"""Seeded inputs for the three benchmark workloads.

Each workload is a final edge set plus the event stream that reaches it.
Churned streams use a sliding window: every decoy edge joins the stream at a
random position and leaves it at most ``window`` events later, so the live
edge count never exceeds the final edge count plus ``window``.  (The
package's ``with_churn`` puts every delete at the end instead, so its peak is
edges plus decoys, which would force ``m_max`` and the colour count up.)
Decoys join pairs of vertices of the final graph, never a final edge.

``build`` checks every stream with ``materialize`` before it is handed to the
program: the turnstile contract, the peak live count against ``m_max``, and
the final graph against the intended edge set.
"""

import heapq
import random
from dataclasses import dataclass

from tristream import derive_config
from tristream.oracles import GraphStats, graph_stats
from tristream.stream_core import EdgeEvent, StreamConfig, materialize

NAMES = ("colored-churn", "default-hubs", "text-churn")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m_max: int
    k_override: int | None  # None: the copy count derived from the default knobs
    colors: int  # what derive_config must derive from (n, m_max)
    estimates_per_round: int  # library estimates per CLI run in a timed round
    events: list[EdgeEvent]
    peak_live: int
    stats: GraphStats  # exact statistics of the final graph


def _relabel(edges, n, rng):
    """Map the vertices through a seeded permutation of [1, n]."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u - 1], perm[v - 1]
        out.append((a, b) if a < b else (b, a))
    return out


def clustered_edges(rng, clusters=600, size=12, p_in=0.45):
    """Disjoint G(size, p_in) clusters; returns (edges, n)."""
    edges = []
    for c in range(clusters):
        base = c * size
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                if rng.random() < p_in:
                    edges.append((base + i, base + j))
    return edges, clusters * size


def hub_edges(rng, n=6000, hub_degrees=(3000, 2000, 1500, 1000), tail_edges=3000):
    """Hubs of fixed degree over random neighbours, plus a heavy-tailed rest.

    The hubs are joined to each other and to uniformly chosen other
    vertices.  The remaining edges join two non-hub vertices drawn with
    weight rank^-0.6, which closes triangles through the hubs.  The hub
    degrees do not depend on the seed, so neither does the sampler's cost.
    """
    hubs = len(hub_degrees)
    others = list(range(hubs + 1, n + 1))
    edges = {(a, b) for a in range(1, hubs + 1) for b in range(a + 1, hubs + 1)}
    for h, d in enumerate(hub_degrees, start=1):
        edges.update((h, v) for v in rng.sample(others, d))
    cum, total = [], 0.0
    for r in range(1, len(others) + 1):
        total += r ** -0.6
        cum.append(total)
    rest = set()
    while len(rest) < tail_edges:
        u, v = rng.choices(others, cum_weights=cum, k=2)
        if u != v:
            rest.add((u, v) if u < v else (v, u))
    return sorted(edges | rest), n


def planted_edges(triangles=1000, two_paths=3000):
    """Disjoint triangle and 2-path gadgets; alpha = 3t / (3t + p) = 0.5 here."""
    edges = []
    v = 1
    for _ in range(triangles):
        edges += [(v, v + 1), (v, v + 2), (v + 1, v + 2)]
        v += 3
    for _ in range(two_paths):
        edges += [(v, v + 1), (v + 1, v + 2)]
        v += 3
    return edges, v - 1


def sliding_churn(edges, decoys, window, rng):
    """Insert ``edges`` in random order among ``decoys`` insert/delete pairs.

    Returns (events, peak live count).  Each decoy is deleted 1..window
    steps after its insert, so at most ``window`` decoys are live at once.
    """
    final = set(edges)
    vertices = sorted({x for e in edges for x in e})
    order = list(edges)
    rng.shuffle(order)
    real = [True] * len(order) + [False] * decoys
    rng.shuffle(real)
    events, due, live_decoys = [], [], set()
    live = peak = 0
    next_real = iter(order)
    for t, is_real in enumerate(real):
        while due and due[0][0] <= t:
            _, u, v = heapq.heappop(due)
            live_decoys.remove((u, v))
            events.append(EdgeEvent(u, v, -1))
            live -= 1
        if is_real:
            u, v = next(next_real)
        else:
            while True:
                u, v = rng.choice(vertices), rng.choice(vertices)
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in final and (u, v) not in live_decoys:
                    break
            live_decoys.add((u, v))
            heapq.heappush(due, (t + rng.randint(1, window), u, v))
        events.append(EdgeEvent(u, v, 1))
        live += 1
        peak = max(peak, live)
    while due:
        _, u, v = heapq.heappop(due)
        events.append(EdgeEvent(u, v, -1))
    return events, peak


def _generate(name, rng):
    """(final edges, n, events, peak, m_max, k_override, colors, estimates per round)."""
    if name == "colored-churn":
        edges, n = clustered_edges(rng)
        edges = _relabel(edges, n, rng)
        events, peak = sliding_churn(edges, decoys=len(edges) + 2000, window=2000, rng=rng)
        return edges, n, events, peak, 24_000, 10, 2, 2
    if name == "default-hubs":
        edges, n = hub_edges(rng)
        edges = _relabel(edges, n, rng)
        rng.shuffle(edges)
        events = [EdgeEvent(u, v, 1) for u, v in edges]
        return edges, n, events, len(edges), 11_000, None, 1, 1
    if name == "text-churn":
        edges, n = planted_edges()
        edges = _relabel(edges, n, rng)
        events, peak = sliding_churn(edges, decoys=95_500, window=1500, rng=rng)
        return edges, n, events, peak, 11_000, None, 1, 1
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def build(name: str, seed: int) -> Workload:
    """Generate and check one workload; raises ValueError if a check fails."""
    edges, n, events, peak, m_max, k_override, colors, per_round = _generate(name, random.Random(seed))
    if peak > m_max:
        raise ValueError(f"{name}: peak live count {peak} exceeds m_max {m_max}")
    graph = materialize(events, StreamConfig(n=n, m_max=m_max))
    if set(graph.edges()) != set(edges) or graph.m != len(edges):
        raise ValueError(f"{name}: the stream does not end at the intended edge set")
    derived = derive_config(n=n, m_max=m_max).colors
    if derived != colors:
        raise ValueError(f"{name}: derive_config gives {derived} colours, expected {colors}")
    return Workload(name, n, m_max, k_override, colors, per_round, events, peak, graph_stats(graph))


def write_text(events, path) -> None:
    """Write the stream in the CLI's text format, one event per line."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{'+' if e.sign == 1 else '-'} {e.u} {e.v}\n" for e in events)
