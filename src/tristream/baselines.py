"""Coin-flip edge sampling baseline for triangle counting.

Each edge is kept independently with probability p, decided by a hash of
the edge so that an insert and a later delete of the same edge always
agree.  Triangles in the kept graph are counted exactly and scaled by
1/p^3.  Unbiased, but the variance blows up on sparse-triangle graphs,
which is what the sparsify-then-sample estimator is built to avoid.
"""

from .hashing import MASK64, mix2
from .oracles import exact_triangles
from .stream_core import AdjacencyGraph, EdgeEvent, apply_event


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
        if not self._keeps(event.u, event.v):
            return
        apply_event(self._graph, event)
        self.kept += event.sign

    def update_many(self, events) -> None:
        for event in events:
            self.update(event)

    def estimate(self) -> float:
        return exact_triangles(self._graph) / (self.p**3)
