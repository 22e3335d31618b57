"""Shared fixture graphs and stream strategies for the test suite.

Edge lists use 1-based vertex ids with u < v.  NAMED_GRAPHS maps a label to
(edges, known stats) where the stats were computed by hand or by exhaustive
enumeration, independently of the library code.
"""

import contextlib
import random

from hypothesis import strategies as st

from tristream import f2_sketch, stream_core
from tristream.stream_core import AdjacencyGraph, EdgeEvent, StreamError


def adjacency(edges) -> AdjacencyGraph:
    g = AdjacencyGraph()
    for u, v in edges:
        g.insert(u, v)
    return g


def adj_dict(edges) -> dict[int, set[int]]:
    return adjacency(edges).adj


BULL = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]          # triangle + two horns
DIAMOND = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]       # K4 minus one edge
PAW = [(1, 2), (1, 3), (1, 4), (2, 3)]                   # triangle + pendant

# label -> (edges, dict(t3=, p2=, f2=, m=))
NAMED_STATS = {
    "bull": (BULL, dict(t3=1, p2=7, f2=24, m=5)),
    "diamond": (DIAMOND, dict(t3=2, p2=8, f2=26, m=5)),
    "paw": (PAW, dict(t3=1, p2=5, f2=18, m=4)),
}


def random_graph_edges(rng: random.Random, n_max: int = 40):
    """A random graph as (edges, n): gnp with random density, possibly empty."""
    n = rng.randint(2, n_max)
    p = rng.uniform(0.03, 0.6)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return edges, n


@st.composite
def small_streams(draw):
    """(n, m_max, events): short streams over a tiny universe, valid or not.

    Most pairs are normalized and inside [1, n] and most signs are +-1, so
    the order and capacity checks are reached as often as the format ones.
    The other pairs draw endpoints from [-1, n+1], negative ones included.
    """
    n = draw(st.integers(2, 5))
    m_max = draw(st.integers(1, 6))
    good = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    raw = st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1))
    pair = st.one_of(good, good, good, raw)
    sign = st.sampled_from((1, 1, 1, -1, -1, -1, 0, 2))
    events = draw(st.lists(st.builds(lambda p, s: EdgeEvent(p[0], p[1], s), pair, sign),
                           max_size=14))
    return n, m_max, events


def contract_outcome(fn):
    """None if ``fn`` runs, else the type and message of the StreamError it raises."""
    try:
        fn()
    except StreamError as err:
        return type(err), str(err)
    return None


@contextlib.contextmanager
def chunk_size(events: int):
    """Read and net streams in chunks of ``events`` events inside the block."""
    saved = stream_core._CHUNK_EVENTS
    stream_core._CHUNK_EVENTS = events
    try:
        yield
    finally:
        stream_core._CHUNK_EVENTS = saved


@contextlib.contextmanager
def kernel_blocks(items: int, cells: int):
    """Run the F2 sketch kernel in blocks of at most ``items`` items and row
    groups of ``cells // block`` rows inside the block."""
    saved = f2_sketch._BLOCK_ITEMS, f2_sketch._BLOCK_CELLS
    f2_sketch._BLOCK_ITEMS, f2_sketch._BLOCK_CELLS = items, cells
    try:
        yield
    finally:
        f2_sketch._BLOCK_ITEMS, f2_sketch._BLOCK_CELLS = saved
