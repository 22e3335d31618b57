"""End-to-end triangle and transitivity estimation over an edge stream.

The estimate is a function of the final graph alone, so the stream is
netted once: a sorting pass per chunk checks the turnstile contract and
leaves the edges live at the end.  Those feed a degree sketch (for the
2-path count; the sketch is linear, so the netted edges give the same
counters as every event) and K independently seeded colorings.  Each copy
keeps the monochromatic live edges.  The sketch's one sort of the endpoints
(``TwoPathEstimator.update_many``) also numbers the V live vertices, and the
live edges are sorted once, as distinct words row * V + neighbor, into one
CSR adjacency over them.  Closure checks search its sorted edge keys in
ascending query order.  A several-color copy is a mask over the live edges
and the degrees from one bincount of its kept endpoints: they give its edge
and 2-path counts and the sampler's distribution, and two exact bounds on
the greedy's count decide most verdicts.  Only a copy the bounds leave open
masks the CSR's rows into a CSR of its own for the greedy certification,
and a sampled center's row is its row of the shared CSR filtered to its
color.  A copy that certifies enough pairwise independent 2-paths
contributes one indicator: whether a uniformly sampled 2-path of its graph
closes into a triangle.  The mean indicator estimates the transitivity
alpha, and T3 = alpha * P2 / 3.  A stream with a length (a list, or an
array triple) is netted as one chunk, so memory is O(events) for it.  Any
other iterable, such as the chunks of ``stream_core.read_chunks`` that
``tristream estimate`` passes, is netted chunk by chunk in
O(m_max + chunk).  On top of that, the shared CSR takes O(live edges), and
so does each several-color copy in turn.

Copies come in groups that share one graph and one verdict: with one color
all K copies keep the whole graph and form one group, otherwise each copy
is a group of its own.  A copy's coloring is a function of its own seed,
``mix2(seed, copy)``.  The sampled 2-paths all come from one numpy
Generator seeded from the estimate's seed and drawn group by group in copy
order, so a copy's indicator depends on the estimate's seed and the copy
order rather than on its own seed alone.

The estimate needs only the number of qualified copies and the sum of
their indicators, so the per-copy results stay columns (``CopyColumns``):
the copy index as a range and one list per other field.
``Report.diagnostics`` builds one ``CopyDiagnostic`` per copy from them on
first access.  ``Report.to_dict(diagnostics=False)`` leaves the per-copy
list out, and ``Report.summary`` describes the run in a few numbers whose
size does not grow with K.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .f2_sketch import sketch_dims
from .hashing import MERSENNE_PRIMES, mix2, mix2_array
from .indep_paths import greedy_independent_count
from .sparsifier import ColoringFunction
from .stream_core import StreamConfig, event_chunks, events_to_arrays, net_chunks
from .two_path import TwoPathEstimator

_SKETCH_TAG = (1 << 40) + 1  # domain separation from copy indices
_SAMPLE_TAG = (1 << 40) + 2
# Allocation limits: the sketch's int64 counters (1 GiB) and the copies,
# whose seeds and per-copy columns are built as arrays and lists of length k.
_MAX_SKETCH_COUNTERS = 1 << 27
_MAX_COPIES = 1 << 24


class InvalidRangeError(ValueError):
    pass


class NoQualifiedCopiesError(RuntimeError):
    """No sparsifier copy certified enough 2-paths to sample from."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@dataclass(frozen=True)
class EstimatorConfig:
    """User accuracy knobs plus the constants derived from them.

    Build through ``derive_config``; the derived fields follow
    b = floor(m_max/18), p = min(1, 5/(epsilon*sqrt(b))),
    colors = max(1, round(1/p)), s = ceil(18/epsilon^2),
    k = ceil((36/(epsilon^2*alpha_min))*ln(2/delta)).
    """

    n: int
    m_max: int
    epsilon: float
    delta: float
    alpha_min: float
    seed: int
    b: int
    p: float
    colors: int
    s: int
    k: int
    degenerate: bool  # m_max < 18 forces full retention


def derive_config(
    n: int,
    m_max: int,
    epsilon: float = 0.3,
    delta: float = 0.1,
    alpha_min: float = 0.05,
    seed: int = 0,
    k_override: int | None = None,
    s_override: int | None = None,
    colors_override: int | None = None,
) -> EstimatorConfig:
    if n < 2:
        raise InvalidRangeError(f"universe must hold at least 2 vertices, got n={n}")
    if m_max < 1:
        raise InvalidRangeError(f"m_max must be positive, got {m_max}")
    if not (0 < epsilon <= 1):
        raise InvalidRangeError(f"epsilon must be in (0, 1], got {epsilon}")
    if not (0 < delta < 1):
        raise InvalidRangeError(f"delta must be in (0, 1), got {delta}")
    if not (0 < alpha_min <= 1):
        raise InvalidRangeError(f"alpha_min must be in (0, 1], got {alpha_min}")
    for name, val in (("k", k_override), ("s", s_override), ("colors", colors_override)):
        if val is not None and val < 1:
            raise InvalidRangeError(f"{name}_override must be positive, got {val}")
    rows, cols = sketch_dims(epsilon, delta)
    top = MERSENNE_PRIMES[-1][1]  # the sketch hashes ids and columns modulo a prime above both
    if max(n, cols) >= top:
        raise InvalidRangeError(f"n={n} and the sketch's {cols} columns must be below {top}")
    if rows * cols > _MAX_SKETCH_COUNTERS:
        raise InvalidRangeError(
            f"the sketch's {rows} x {cols} counters exceed 2^27; raise epsilon or delta"
        )
    b = m_max // 18
    p = 1.0 if b == 0 else min(1.0, 5.0 / (epsilon * math.sqrt(b)))
    colors = colors_override if colors_override is not None else max(1, math.floor(1.0 / p + 0.5))
    s = s_override if s_override is not None else math.ceil(18.0 / (epsilon * epsilon))
    k = (
        k_override
        if k_override is not None
        else math.ceil((36.0 / (epsilon * epsilon * alpha_min)) * math.log(2.0 / delta))
    )
    if k > _MAX_COPIES:
        raise InvalidRangeError(
            f"k={k} copies exceed 2^24; lower k_override or raise epsilon, delta or alpha_min"
        )
    return EstimatorConfig(
        n=n, m_max=m_max, epsilon=epsilon, delta=delta, alpha_min=alpha_min,
        seed=seed, b=b, p=p, colors=colors, s=s, k=k, degenerate=(b == 0),
    )


class CopyDiagnostic(NamedTuple):
    copy: int
    seed: int
    m_prime: int
    p2_total: int
    qualified: bool
    indicator: int | None


class CopyColumns(NamedTuple):
    """The per-copy results, one sequence per ``CopyDiagnostic`` field, in copy order."""

    copy: range
    seed: list[int]
    m_prime: list[int]
    p2_total: list[int]
    qualified: list[bool]
    indicator: list[int | None]

    def records(self) -> list[CopyDiagnostic]:
        return list(map(CopyDiagnostic, *self))


@dataclass(frozen=True)
class Report:
    p2_hat: float
    alpha_hat: float
    t3_hat: float
    ell: int
    k: int
    s: int
    p: float
    colors: int
    config: EstimatorConfig
    columns: CopyColumns
    live_edges: int  # edges live at the end of the stream
    p2_live: int  # exact P2 = sum of C(d,2) over their degrees
    warnings: tuple[str, ...] = field(default=())

    @cached_property
    def diagnostics(self) -> tuple[CopyDiagnostic, ...]:
        """One record per copy, built from ``columns`` on first access."""
        return tuple(self.columns.records())

    @property
    def summary(self) -> dict:
        """The run in a few numbers: how many copies qualified, how much of the
        graph they kept, the standard errors of the estimates, and the
        sketch's 2-path count against the exact one.  A report exists only
        when some copy qualified, so the graph has a 2-path: p2_live > 0.
        """
        alpha_se = math.sqrt(self.alpha_hat * (1.0 - self.alpha_hat) / self.ell)
        return {
            "qualified_rate": self.ell / self.k,
            "kept_fraction": sum(self.columns.m_prime) / (self.k * self.live_edges),
            "kept_fraction_expected": 1.0 / self.colors,
            "alpha_se": alpha_se,
            "t3_se": alpha_se * self.p2_hat / 3.0,
            "p2_live": self.p2_live,
            "p2_rel_error": (self.p2_hat - self.p2_live) / self.p2_live,
        }

    def to_dict(self, diagnostics: bool = True) -> dict:
        """The report as plain data; the per-copy list only with ``diagnostics``."""
        out = {
            "p2_hat": self.p2_hat,
            "alpha_hat": self.alpha_hat,
            "t3_hat": self.t3_hat,
            "ell": self.ell,
            "K": self.k,
            "s": self.s,
            "p": self.p,
            "colors": self.colors,
            "summary": self.summary,
            "warnings": list(self.warnings),
        }
        if diagnostics:
            c = self.columns
            out["diagnostics"] = [
                {"copy": i, "m_prime": m, "p2_total": p2, "qualified": q, "indicator": x}
                for i, m, p2, q, x in zip(c.copy, c.m_prime, c.p2_total, c.qualified, c.indicator)
            ]
        return out


def _draw_positions(rng, copy, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers and two distinct row positions for ``count`` uniform 2-paths of ``copy``.

    Each center comes with probability C(d,2)/P2 by inverse CDF over
    ``copy.cum``, then two distinct positions i != j in its row uniformly.
    numpy's bounded integers are exactly uniform, so every 2-path has
    probability exactly 1/P2.  Needs p2_total > 0.  The Generator calls, in
    this order and with these shapes, fix the indicators of a seeded
    estimate.
    """
    c = copy.cum.searchsorted(rng.integers(0, copy.p2_total, size=count), side="right")
    d = copy.degrees[c]
    i = rng.integers(0, d)
    j = rng.integers(0, d - 1)
    j += j >= i
    return c, i, j


class _CopyGraph:
    """One copy's graph as CSR adjacency over the live vertices.

    Vertices are numbered 0..V-1 in id order, so row ``v`` lists its
    neighbors ``indices[indptr[v]:indptr[v+1]]`` in ascending id order,
    ``degrees`` holds the row lengths and ``cum`` the running sum of C(d,2)
    over the rows, and ``keys`` holds each edge (a, b), a < b, of the live
    graph as ``a*V + b`` in ascending order.

    ``from_edges`` builds the live graph once per estimate; with one color
    every copy keeps it whole, and a several-color copy is a ``_ColoredCopy``
    of it.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray):
        self.indptr, self.indices, self.keys = indptr, indices, keys
        self.num_vertices = indptr.size - 1
        self.degrees = degrees = np.diff(indptr)
        self.cum = np.cumsum(degrees * (degrees - 1) // 2)
        self.m_prime = indices.size // 2
        self.p2_total = int(self.cum[-1]) if self.num_vertices else 0

    @classmethod
    def from_edges(cls, a: np.ndarray, b: np.ndarray, num_vertices: int) -> "_CopyGraph":
        """The graph of the pairs (a, b), sorted with a < b, over 0..num_vertices-1."""
        # Each edge is listed from both endpoints as the word row*V + neighbor;
        # the words are distinct and below V^2 < 2^62, so one sort of them
        # orders the rows and leaves every row ascending.
        rows = np.concatenate([b, a])
        words = rows * num_vertices
        words[:a.size] += a
        words[a.size:] += b
        words.sort()
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
        return cls(indptr, words % num_vertices, a * num_vertices + b)

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoints (a, b) of the edges in ``keys`` order, built for the first colored copy."""
        return np.divmod(self.keys, self.num_vertices)

    @cached_property
    def entry_edges(self) -> np.ndarray:
        """The position in ``keys`` of each entry's edge, built for the first copy's own CSR."""
        rows = np.repeat(np.arange(self.num_vertices), self.degrees)
        lo, hi = np.minimum(rows, self.indices), np.maximum(rows, self.indices)
        return self.keys.searchsorted(lo * self.num_vertices + hi)

    def sample_two_paths(
        self, rng: "np.random.Generator", count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` independent uniform 2-paths as arrays (u, center, w), u < w."""
        c, i, j = _draw_positions(rng, self, count)
        lo = self.indptr[c]
        x, y = self.indices[lo + i], self.indices[lo + j]
        return np.minimum(x, y), c, np.maximum(x, y)

    def has_edges(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Whether each pair (u, w), u < w, is an edge: one search in ``keys``.

        The queries are searched in ascending order, which walks ``keys``
        forward, and the answers are put back in query order.
        """
        q = u * self.num_vertices + w
        order = q.argsort()
        q = q.take(order)
        pos = self.keys.searchsorted(q)
        hit = pos < self.keys.size
        hit[hit] = self.keys.take(pos[hit]) == q[hit]
        found = np.empty_like(hit)
        found[order] = hit
        return found


class _ColoredCopy:
    """A several-color copy of the live graph ``g``: the edges whose endpoints share a color.

    It holds what the verdict and the sampler need: the vertices' ``colors``,
    ``keep`` over the live edges (``g.ends``), and the copy's ``degrees``
    from one bincount of the kept endpoints, with ``cum``, ``m_prime``,
    ``p2_total`` and ``max_degree``.  ``csr`` builds the copy's own CSR on
    request.  A sampled center's row is its row of ``g`` filtered to its
    color; it stays ascending, so positions i and j pick the pair they would
    pick in the copy's own CSR.  Both ends of a 2-path of the copy have its
    center's color, so a sampled pair is an edge of the copy iff it is an
    edge of ``g``: ``has_edges`` searches ``g.keys``.
    """

    def __init__(self, g: _CopyGraph, colors: np.ndarray):
        self.g, self.colors = g, colors
        a, b = g.ends
        self.keep = colors.take(a) == colors.take(b)
        kept = np.flatnonzero(self.keep)
        size = g.num_vertices
        self.degrees = degrees = (
            np.bincount(a.take(kept), minlength=size) + np.bincount(b.take(kept), minlength=size)
        )
        self.cum = np.cumsum(degrees * (degrees - 1) // 2)
        self.m_prime = kept.size
        self.p2_total = int(self.cum[-1]) if size else 0
        self.max_degree = int(degrees.max(initial=0))

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The copy's own CSR (indptr, indices): ``g``'s rows masked to the kept edges."""
        indptr = np.zeros(self.degrees.size + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        entries = np.flatnonzero(self.keep.take(self.g.entry_edges))
        return indptr, self.g.indices.take(entries)

    def sample_two_paths(
        self, rng: "np.random.Generator", count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` independent uniform 2-paths as arrays (u, center, w), u < w."""
        c, i, j = _draw_positions(rng, self, count)
        x, y = np.empty_like(i), np.empty_like(j)
        g, colors = self.g, self.colors
        for k, v in enumerate(c.tolist()):
            row = g.indices[g.indptr[v]:g.indptr[v + 1]]
            row = row[colors.take(row) == colors[v]]
            x[k], y[k] = row[i[k]], row[j[k]]
        return np.minimum(x, y), c, np.maximum(x, y)

    def has_edges(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.g.has_edges(u, w)


def _verdict_from_degrees(m_prime: int, p2_total: int, max_degree: int, s: int) -> bool | None:
    """Whether the greedy would certify ``s`` paths, when the bounds of ``_copy_groups`` decide it.

    None when they leave it open.
    """
    if min(p2_total, m_prime // 2) < s:
        return False
    if p2_total > (s - 1) * (9 * max_degree - 6):
        return True
    return None


def _copy_groups(
    cfg, seeds, vertices, g: _CopyGraph
) -> Iterator[tuple[_CopyGraph | _ColoredCopy, bool, int]]:
    """(graph, qualified, count) per group of copies sharing one graph, in copy order.

    Every copy is cut from ``g``, the one CSR of the live edges over
    ``vertices``.  With one color all K copies keep it whole and form one
    group; a one-color group has no certification threshold: sampling is
    exactly uniform on the input graph, so any 2-path qualifies it.  With
    more colors each copy is a group of its own, a ``_ColoredCopy`` with its
    degrees, and qualifies iff the greedy finds ``s`` independent 2-paths in
    it.  Two exact bounds on the greedy's count decide most copies from the
    degrees alone (m', P2' and d'max of the copy):

    - count <= min(P2', m' // 2): independent 2-paths share no edge, and each has two.
    - count >= P2' / (9 d'max - 6): the greedy's set is maximal, so each 2-path
      shares a pair with a selected one; a pair lies on at most 3 d'max - 2
      2-paths, and a selected path has 3 pairs.

    So min(P2', m' // 2) < s fails the copy and P2' > (s - 1)(9 d'max - 6)
    qualifies it.  Only a copy that neither decides builds its own CSR for
    ``greedy_independent_count``.
    """
    if cfg.colors == 1:
        yield g, g.p2_total > 0, cfg.k
        return
    for seed_i in seeds:
        copy = _ColoredCopy(g, ColoringFunction(seed_i, cfg.colors).colors_of(vertices))
        ok = _verdict_from_degrees(copy.m_prime, copy.p2_total, copy.max_degree, cfg.s)
        if ok is None:
            ok = greedy_independent_count(*copy.csr(), cfg.s) >= cfg.s
        yield copy, ok, 1


def estimate_triangles(events, cfg: EstimatorConfig) -> Report:
    """Run the full estimator over a turnstile stream (deletions included).

    ``events`` is a list or tuple of ``EdgeEvent``, an ``(us, vs, signs)``
    array triple, or an iterable of either events or array triples, read in
    chunks (``stream_core.event_chunks``).  The stream must keep the
    contract of ``stream_core.materialize`` with capacity ``cfg.m_max``; a
    violation raises the same ``StreamError`` with the index of the first
    offending event, before any sketch work.  Copies are read one group at
    a time from one CSR of the netted edges (``_copy_groups``).
    """
    chunks = map(events_to_arrays, event_chunks(events))
    us, vs = net_chunks(chunks, StreamConfig(n=cfg.n, m_max=cfg.m_max))

    tp = TwoPathEstimator(cfg.n, cfg.epsilon, cfg.delta, seed=mix2(cfg.seed, _SKETCH_TAG))
    vertices, ends = tp.update_many((us, vs, np.ones(us.size, dtype=np.int64)))
    p2_hat = max(0.0, tp.estimate())
    g = _CopyGraph.from_edges(ends[:us.size], ends[us.size:], vertices.size)
    del us, vs, ends

    seeds = mix2_array(cfg.seed, np.arange(cfg.k, dtype=np.uint64)).tolist()
    rng = np.random.default_rng(mix2(cfg.seed, _SAMPLE_TAG))
    m_prime, p2_total, qualified, indicator = [], [], [], []
    for copy, ok, count in _copy_groups(cfg, seeds, vertices, g):
        m_prime += [copy.m_prime] * count
        p2_total += [copy.p2_total] * count
        qualified += [ok] * count
        if ok:
            u, _, w = copy.sample_two_paths(rng, count)
            indicator += copy.has_edges(u, w).astype(np.int64).tolist()
        else:
            indicator += [None] * count
    columns = CopyColumns(range(cfg.k), seeds, m_prime, p2_total, qualified, indicator)
    ell = sum(qualified)
    x_sum = sum(filter(None, indicator))

    if ell == 0:
        raise NoQualifiedCopiesError(
            f"none of the {cfg.k} copies certified {cfg.s} independent 2-paths",
            columns.records(),
        )

    alpha_hat = x_sum / ell
    t3_hat = alpha_hat * p2_hat / 3.0

    warnings = []
    if cfg.degenerate:
        warnings.append("degenerate-stream: m_max < 18 forces full retention (p = 1)")
    if ell < cfg.k / 2:
        warnings.append(f"low-confidence: only {ell} of {cfg.k} copies qualified")
    if alpha_hat < cfg.alpha_min:
        # K = ceil(36/(epsilon^2 alpha_min) ln(2/delta)) assumes alpha >= alpha_min
        warnings.append(
            f"below-premise: alpha_hat {alpha_hat:.6g} < alpha_min {cfg.alpha_min:g};"
            " K is sized for alpha >= alpha_min"
        )
    if p2_hat == 0.0 and x_sum > 0:
        warnings.append("inconsistent: sampled closed 2-paths but the 2-path estimate is zero")

    return Report(
        p2_hat=p2_hat,
        alpha_hat=alpha_hat,
        t3_hat=t3_hat,
        ell=ell,
        k=cfg.k,
        s=cfg.s,
        p=cfg.p,
        colors=cfg.colors,
        config=cfg,
        columns=columns,
        live_edges=g.m_prime,
        p2_live=g.p2_total,
        warnings=tuple(warnings),
    )
