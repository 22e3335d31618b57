"""Coin-flip edge sampling baseline for triangle counting.

Each edge is kept independently with probability p, decided by a hash of
the edge so that an insert and a later delete of the same edge always
agree.  Triangles in the kept graph are counted exactly and scaled by
1/p^3.  Unbiased, but the variance blows up on sparse-triangle graphs,
which is what the sparsify-then-sample estimator is built to avoid.
"""

from .hashing import MASK64, mix2
from .oracles import exact_triangles
from .stream_core import AdjacencyGraph, EdgeEvent, StreamError, _malformed, apply_event


def check_keep_probability(p: float, name: str = "keep probability") -> None:
    """Raise ValueError unless 2^-64 <= p <= 1.

    Below 2^-64 the hash-coin threshold ``int(p * 2**64)`` is 0, so no edge
    could be kept (and ``p**3`` may underflow to 0).
    """
    if not (2.0**-64 <= p <= 1):
        raise ValueError(f"{name} must be in [2^-64, 1], got {p}")


class DoulionCounter:
    """Keep each edge with probability p; estimate T3 = exact_kept / p^3."""

    def __init__(self, n: int, p: float, seed: int = 0):
        check_keep_probability(p)
        if n < 2:
            raise ValueError(f"universe must hold at least 2 vertices, got n={n}")
        self.n = n
        self.p = p
        self.seed = seed
        # hash-coin threshold: keep iff mix2(seed, edge_key) < p * 2^64
        self._threshold = int(p * 2.0**64)
        self._graph = AdjacencyGraph()
        self.kept = 0

    def _keeps(self, u: int, v: int) -> bool:
        key = ((u << 32) | v) & MASK64
        return mix2(self.seed, key) < self._threshold

    def update(self, event: EdgeEvent) -> None:
        """Apply one event if its coin keeps it; a malformed one raises first.

        Loops, reversed pairs, signs other than +1 and -1 and ids outside
        [1, n] raise ``_malformed``'s error whatever the coin says.
        """
        err = _malformed(event.u, event.v, event.sign, self.n)
        if err is not None:
            raise err
        if not self._keeps(event.u, event.v):
            return
        apply_event(self._graph, event)
        self.kept += event.sign

    def update_many(self, events) -> None:
        """``update`` each event in order; an error carries the event's 0-based index."""
        for i, event in enumerate(events):
            try:
                self.update(event)
            except StreamError as err:
                raise type(err)(f"event {i}: {err}") from None

    def estimate(self) -> float:
        return exact_triangles(self._graph) / (self.p**3)
