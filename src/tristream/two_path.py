"""Streaming 2-path count over a dynamic edge stream.

Writes each edge event as two ±1 vertex updates into an F2 sketch, so the
sketch tracks the degree second moment; with the live edge count m the
2-path count follows as F2/2 - m.
"""

import numpy as np

from .f2_sketch import F2Sketch
from .stream_core import EdgeEvent, events_to_arrays


class TwoPathEstimator:
    """Sketch-backed estimate of the number of 2-paths seen so far."""

    def __init__(self, n: int, epsilon: float, delta: float, seed: int = 0):
        self.sketch = F2Sketch.from_accuracy(n, epsilon, delta, seed)
        self.m_net = 0

    def update(self, e: EdgeEvent) -> None:
        """Fold one edge event into the degree sketch."""
        self.sketch.update_many([e.u, e.v], [e.sign, e.sign])
        self.m_net += e.sign

    def update_many(self, events) -> tuple[np.ndarray, np.ndarray]:
        """Batched ingest; identical counters to event-at-a-time updates.

        The sketch is linear, so per-vertex net weights are aggregated first
        and written in one kernel pass.  Returns that sort of the endpoints:
        the distinct ids, ascending, and each endpoint's index among them,
        first every ``u`` then every ``v``, so ``ids[index]`` is
        ``concatenate([us, vs])``.  An empty stream gives two empty arrays.
        """
        us, vs, signs = events_to_arrays(events)
        uniq, inverse = np.unique(np.concatenate([us, vs]), return_inverse=True)
        net = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(net, inverse, np.concatenate([signs, signs]))
        self.sketch.update_many(uniq, net)
        self.m_net += int(signs.sum())
        return uniq, inverse

    def estimate(self) -> float:
        """May be negative on noisy sketches; callers clamp as needed."""
        return self.sketch.estimate() / 2.0 - self.m_net

    def merge(self, other: "TwoPathEstimator") -> "TwoPathEstimator":
        out = TwoPathEstimator.__new__(TwoPathEstimator)
        out.sketch = self.sketch.merge(other.sketch)
        out.m_net = self.m_net + other.m_net
        return out
