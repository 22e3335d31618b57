"""Color-based edge sparsification with uniform 2-path sampling.

A seeded coloring keeps exactly the monochromatic edges, so a triangle
survives whole with probability 1/colors^2.  The surviving subgraph is held
in degree-class buckets: bucket i stores vertices whose 2-path count
C(d,2) lies in [2^i, 2^(i+1)-1], vertices of degree 1 carry no 2-path
mass and hold no slot, and isolated vertices are evicted.  Updates are O(1)
per endpoint.  Drawing a uniform 2-path costs O(log n + d) per call, d the
accepted center's degree: each call rebuilds the class weights and copies
the center's neighbor set, and a draw is accepted with probability above
1/2.  On a star that measured about 10 us per call at hub degree 100 and
610 us at degree 50,000 (Python 3.11, one core of a shared 2-CPU host).

``SparsifiedGraph`` is the paper's incremental structure, for streams fed
event by event.  The estimator does not use it: the estimate depends only
on the final graph, so ``estimator`` nets the stream once, holds the live
edges as one CSR adjacency, and holds each copy as a mask over those edges,
the ones whose endpoints share a color under the same ``ColoringFunction``,
with the degrees it leaves.
"""

import numpy as np

from .hashing import mix2, mix2_array
from .stream_core import DuplicateInsertError, LoopEdgeError, StreamFormatError


class InconsistentDeleteError(ValueError):
    """A monochromatic delete for an edge the sparsified graph never kept."""


class ColoringFunction:
    """Deterministic vertex coloring with values in 1..colors."""

    def __init__(self, seed: int, colors: int):
        if colors < 1:
            raise ValueError(f"need at least one color, got {colors}")
        self.seed = seed
        self.colors = colors

    def color(self, v: int) -> int:
        return 1 + mix2(self.seed, v) % self.colors

    def colors_of(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized form; agrees with ``color`` element for element.

        The remainder is taken as z - (z // c) * c, since numpy divides uint64
        by a scalar several times faster than it takes ``%``.
        """
        if self.colors == 1:
            return np.ones(len(vs), dtype=np.uint64)
        z = mix2_array(seed=self.seed, xs=vs)
        c = np.uint64(self.colors)
        z -= z // c * c
        z += np.uint64(1)
        return z

    def monochromatic(self, u: int, v: int) -> bool:
        return self.color(u) == self.color(v)


def _c2(d: int) -> int:
    return d * (d - 1) // 2


def _bucket(d: int) -> int:
    """Bucket of a vertex of degree d >= 2: floor(log2(C(d,2)))."""
    return _c2(d).bit_length() - 1


class SparsifiedGraph:
    """Monochromatic subgraph with bucketed degree classes.

    A vertex of degree d >= 2 holds a slot in bucket floor(log2(C(d,2))).
    The bucket follows from the degree, so only the slot position is stored
    per vertex.  Degree-1 vertices carry no 2-path mass and hold no slot;
    ``degree_one`` lists them on demand.  ``p2_bucket`` tracks the
    per-bucket totals of C(d,2) and ``p2_total`` their sum.  Every event
    goes through ``apply_events``; ``apply`` is that call on a one-event
    block.
    """

    def __init__(self, n: int, coloring: ColoringFunction):
        if n < 2:
            raise ValueError(f"universe must hold at least 2 vertices, got n={n}")
        self.n = n
        self.coloring = coloring
        self.adj: dict[int, set[int]] = {}
        # floor(2*log2(n)) + 1 slots, computed exactly: C(d,2) < n^2 always
        self.num_buckets = (n * n).bit_length()
        self.buckets: list[list[int]] = [[] for _ in range(self.num_buckets)]
        self._pos: dict[int, int] = {}
        self.p2_bucket = [0] * self.num_buckets
        self.p2_total = 0
        self.m_prime = 0
        # sampler accounting, used by the uniformity and acceptance tests
        self.sample_draws = 0
        self.samples = 0

    @property
    def degree_one(self) -> list[int]:
        """Live vertices of degree 1; a view derived from ``adj``, O(|adj|)."""
        return [x for x, s in self.adj.items() if len(s) == 1]

    # -- updates ------------------------------------------------------------

    def apply(self, u: int, v: int, sign: int) -> bool:
        """Apply one edge event; returns False for a bichromatic no-op.

        Each call pays the fixed cost of a numpy block, tens of
        microseconds, so feed streams to ``apply_events``.
        """
        return self.apply_events(np.array([u]), np.array([v]), np.array([sign])) == 1

    def apply_events(self, us: np.ndarray, vs: np.ndarray, signs: np.ndarray) -> int:
        """Apply a block of edge events in order; returns how many were kept.

        A malformed block (arrays of different lengths, an endpoint outside
        [1, n], a self-loop or a sign other than +1 and -1) raises
        ``ValueError`` before any state changes.  Bichromatic events are
        dropped.  A kept event that inserts a present edge or deletes an
        absent one raises, with the events before it applied.

        An endpoint's degree moves from d - sign to d, and its class from
        floor(log2(C(d - sign, 2))) to floor(log2(C(d, 2))), where class -1
        (degree below 2) holds no slot.  A class change is one swap-remove
        and one append; otherwise only that class's total moves.
        """
        if not len(us) == len(vs) == len(signs):
            raise ValueError(f"event arrays differ in length: {len(us)}, {len(vs)}, {len(signs)}")
        if us.size:
            if min(us.min(), vs.min()) < 1 or max(us.max(), vs.max()) > self.n:
                raise ValueError(f"endpoint outside universe [1, {self.n}]")
            loops = np.flatnonzero(us == vs)
            if loops.size:
                raise LoopEdgeError(f"self-loop at vertex {us[loops[0]]}")
            bad = np.flatnonzero((signs != 1) & (signs != -1))
            if bad.size:
                raise StreamFormatError(f"sign must be +1 or -1, got {signs[bad[0]]}")
        if self.coloring.colors > 1:
            keep = np.flatnonzero(
                self.coloring.colors_of(us) == self.coloring.colors_of(vs)
            )
            us, vs, signs = us[keep], vs[keep], signs[keep]
        adj, pos, buckets, p2b = self.adj, self._pos, self.buckets, self.p2_bucket
        p2_total, m_prime = self.p2_total, self.m_prime
        try:
            for u, v, s in zip(us.tolist(), vs.tolist(), signs.tolist()):
                su = adj.get(u)
                if s == 1:
                    if su is not None and v in su:
                        raise DuplicateInsertError(f"edge ({u}, {v}) already in the sparsified graph")
                elif su is None or v not in su:
                    raise InconsistentDeleteError(f"edge ({u}, {v}) not in the sparsified graph")
                m_prime += s
                for x, y, nbrs in ((u, v, su), (v, u, adj.get(v))):
                    # degree 0 to 1 and back stays in class -1 and moves no total
                    if nbrs is None:
                        adj[x] = {y}
                        continue
                    if s == 1:
                        nbrs.add(y)
                    else:
                        nbrs.remove(y)
                    d = len(nbrs)
                    if d == 0:
                        del adj[x]
                        continue
                    c_new = d * (d - 1) >> 1
                    c_old = (d - s) * (d - s - 1) >> 1
                    b_new = c_new.bit_length() - 1
                    b_old = c_old.bit_length() - 1
                    p2_total += c_new - c_old
                    if b_old == b_new:
                        p2b[b_new] += c_new - c_old
                        continue
                    if b_old >= 0:
                        arr = buckets[b_old]
                        last = arr.pop()
                        if last != x:
                            pos[last] = i = pos[x]
                            arr[i] = last
                        p2b[b_old] -= c_old
                    if b_new >= 0:
                        arr = buckets[b_new]
                        pos[x] = len(arr)
                        arr.append(x)
                        p2b[b_new] += c_new
                    else:
                        del pos[x]
        finally:
            self.p2_total, self.m_prime = p2_total, m_prime
        return len(us)

    # -- queries ------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, v: int) -> int:
        nbrs = self.adj.get(v)
        return 0 if nbrs is None else len(nbrs)

    def sample_two_path(self, rng) -> tuple[int, int, int] | None:
        """Draw a uniform 2-path (u, center, w), u < w; None if there are none.

        Rejection scheme: propose a bucket with weight |H_i| * q_i where
        q_i = 2^(i+1)-1, a member vertex uniformly, and accept with
        probability C(d,2)/q_i; every 2-path then carries identical per-draw
        mass 1/sum(|H_i| * q_i), and a rejection restarts the whole draw.
        Acceptance exceeds 1/2 per draw because C(d,2) >= 2^i > q_i/2.
        """
        if self.p2_total == 0:
            return None
        weights = []
        total = 0
        for i, arr in enumerate(self.buckets):
            if arr:
                w = len(arr) * ((1 << (i + 1)) - 1)
                total += w
                weights.append((i, w))
        while True:
            self.sample_draws += 1
            target = rng.random() * total
            cum = 0
            for i, w in weights:
                cum += w
                if target < cum:
                    break
            arr = self.buckets[i]
            v = arr[rng.randrange(len(arr))]
            q = (1 << (i + 1)) - 1
            if rng.randrange(q) >= _c2(len(self.adj[v])):
                continue
            nbrs = tuple(self.adj[v])
            a, b = rng.sample(nbrs, 2)
            self.samples += 1
            return (a, v, b) if a < b else (b, v, a)

    # -- integrity ----------------------------------------------------------

    def audit(self) -> None:
        """Rebuild the bucket state from ``adj`` and compare; raises on drift."""
        exp_p2_bucket = [0] * self.num_buckets
        exp_slotted = set()
        exp_m2 = 0
        for x, nbrs in self.adj.items():
            d = len(nbrs)
            if d == 0:
                raise RuntimeError(f"audit: vertex {x} lingers with no neighbors")
            exp_m2 += d
            if d >= 2:
                exp_slotted.add(x)
                exp_p2_bucket[_bucket(d)] += _c2(d)
        if set(self._pos) != exp_slotted:
            raise RuntimeError("audit: vertex-to-bucket map diverges from adjacency")
        if self.p2_bucket != exp_p2_bucket:
            raise RuntimeError("audit: per-bucket 2-path totals diverge")
        if self.p2_total != sum(exp_p2_bucket):
            raise RuntimeError("audit: p2_total diverges")
        if self.m_prime != exp_m2 // 2:
            raise RuntimeError("audit: edge count diverges")
        # every slot names a vertex of its bucket's class whose stored position
        # is that slot; with as many slots as slotted vertices this is a bijection
        if sum(map(len, self.buckets)) != len(exp_slotted):
            raise RuntimeError("audit: bucket slots and slotted vertices differ in number")
        for b, arr in enumerate(self.buckets):
            for pos, x in enumerate(arr):
                if x not in exp_slotted or _bucket(self.degree(x)) != b or self._pos[x] != pos:
                    raise RuntimeError(f"audit: slot ({b}, {pos}) inconsistent for vertex {x}")
