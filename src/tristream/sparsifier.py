"""Color-based edge sparsification with uniform 2-path sampling.

A seeded coloring keeps exactly the monochromatic edges, so a triangle
survives whole with probability 1/colors^2.  The surviving subgraph is held
in degree-class buckets: bucket i stores vertices whose 2-path count
C(d,2) lies in [2^i, 2^(i+1)-1], vertices of degree 1 carry no 2-path
mass and hold no slot, and isolated vertices are evicted.  Updates are O(1)
per endpoint;
drawing a uniform 2-path costs O(log n) expected per draw with acceptance
probability above 1/2.

``SparsifiedGraph`` is the paper's incremental structure, for streams fed
event by event.  The estimator does not use it: the estimate depends only
on the final graph, so ``estimator`` nets the stream once, holds the live
edges as one CSR adjacency, and builds each copy as that CSR with every row
masked to its center's color under the same ``ColoringFunction``.
"""

import numpy as np

from .hashing import mix2, mix2_array
from .stream_core import DuplicateInsertError


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
        """Vectorized form; agrees with ``color`` element for element."""
        if self.colors == 1:
            return np.ones(len(vs), dtype=np.uint64)
        return np.uint64(1) + mix2_array(seed=self.seed, xs=vs) % np.uint64(self.colors)

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
    per-bucket totals of C(d,2) and ``p2_total`` their sum.  Both ingest
    paths reject an endpoint outside [1, n] with ``ValueError`` before any
    state changes.
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

    # -- bucket plumbing ----------------------------------------------------

    @property
    def degree_one(self) -> list[int]:
        """Live vertices of degree 1; a view derived from ``adj``, O(|adj|)."""
        return [x for x, s in self.adj.items() if len(s) == 1]

    def _move(self, x: int, b_old: int | None, b_new: int | None) -> None:
        """Move ``x`` between buckets; None stands for holding no slot."""
        pos = self._pos
        if b_old is not None:
            arr = self.buckets[b_old]
            last = arr.pop()
            if last != x:
                i = pos[x]
                arr[i] = last
                pos[last] = i
        if b_new is None:
            del pos[x]
        else:
            arr = self.buckets[b_new]
            pos[x] = len(arr)
            arr.append(x)

    # -- updates ------------------------------------------------------------

    def apply(self, u: int, v: int, sign: int) -> bool:
        """Apply one normalized edge event; returns False for bichromatic no-ops."""
        if not (0 < u <= self.n and 0 < v <= self.n):
            raise ValueError(f"endpoint outside universe [1, {self.n}]")
        coloring = self.coloring
        if coloring.colors > 1 and coloring.color(u) != coloring.color(v):
            return False
        self._apply_kept(u, v, sign)
        return True

    def _apply_kept(self, u: int, v: int, sign: int) -> None:
        """Update for an edge already known monochromatic.

        This is the hot loop of the whole estimator.  A degree moves class
        only when C(d,2) crosses a power of two, so most updates touch just
        the per-bucket totals; a class move is one swap-remove and append.
        """
        adj = self.adj
        if sign == 1:
            su = adj.get(u)
            if su is not None and v in su:
                raise DuplicateInsertError(f"edge ({u}, {v}) already in the sparsified graph")
            self.p2_total += self._grow(u, v, su) + self._grow(v, u, adj.get(v))
            self.m_prime += 1
        else:
            su = adj.get(u)
            if su is None or v not in su:
                raise InconsistentDeleteError(f"edge ({u}, {v}) not in the sparsified graph")
            self.p2_total -= self._shrink(u, v, su) + self._shrink(v, u, adj[v])
            self.m_prime -= 1

    def _grow(self, x: int, y: int, s: set[int] | None) -> int:
        """Add neighbour ``y`` to ``x`` (neighbour set ``s``); returns the C(d,2) gain."""
        if s is None:
            self.adj[x] = {y}
            return 0
        s.add(y)
        d = len(s)
        c_new = d * (d - 1) >> 1
        b_new = c_new.bit_length() - 1
        p2b = self.p2_bucket
        if d == 2:
            b_old = None  # out of the slotless degree-1 spillover
        else:
            c_old = c_new - d + 1
            b_old = c_old.bit_length() - 1
            if b_old == b_new:
                p2b[b_new] += d - 1
                return d - 1
            p2b[b_old] -= c_old
        p2b[b_new] += c_new
        self._move(x, b_old, b_new)
        return d - 1

    def _shrink(self, x: int, y: int, s: set[int]) -> int:
        """Remove neighbour ``y`` from ``x``; returns the C(d,2) loss."""
        s.remove(y)
        d = len(s)
        c_old = (d + 1) * d >> 1
        p2b = self.p2_bucket
        if d >= 2:
            c_new = c_old - d
            b_old = c_old.bit_length() - 1
            b_new = c_new.bit_length() - 1
            if b_old == b_new:
                p2b[b_new] -= d
                return d
            p2b[b_old] -= c_old
            p2b[b_new] += c_new
        elif d == 1:
            b_old, b_new = 0, None  # back to the spillover; drops its C(2,2)=1
            p2b[0] -= 1
        else:
            del self.adj[x]
            return 0
        self._move(x, b_old, b_new)
        return d

    def apply_events(self, us: np.ndarray, vs: np.ndarray, signs: np.ndarray) -> int:
        """Filter a whole event block by color, then apply the survivors.

        Same per-event semantics as ``apply``; returns the number applied.
        """
        if us.size and (min(us.min(), vs.min()) < 1 or max(us.max(), vs.max()) > self.n):
            raise ValueError(f"endpoint outside universe [1, {self.n}]")
        if self.coloring.colors > 1:
            keep = np.flatnonzero(
                self.coloring.colors_of(us) == self.coloring.colors_of(vs)
            )
            if keep.size == 0:
                return 0
            us, vs, signs = us[keep], vs[keep], signs[keep]
        kept = self._apply_kept
        for u, v, s in zip(us.tolist(), vs.tolist(), signs.tolist()):
            kept(u, v, s)
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
