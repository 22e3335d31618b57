"""End-to-end triangle and transitivity estimation over an edge stream.

The estimate is a function of the final graph alone, so the stream is
netted once: a sorting pass per chunk checks the turnstile contract and
leaves the edges live at the end.  Those feed a degree sketch (for the
2-path count; the sketch is linear, so the netted edges give the same
counters as every event) and K independently seeded colorings.  Each copy
keeps the monochromatic live edges as a CSR adjacency over the live
vertices.  A copy that certifies enough pairwise independent 2-paths
contributes one indicator: whether a uniformly sampled 2-path of its graph
closes into a triangle.  The mean indicator estimates the transitivity
alpha, and T3 = alpha * P2 / 3.  A stream with a length (a list, or an
array triple) is netted as one chunk, so memory is O(events) for it.  Any
other iterable, such as the chunks of ``stream_core.read_chunks`` that
``tristream estimate`` passes, is netted chunk by chunk in O(m_max +
chunk).  On top of that, one copy's CSR takes O(live edges) at a time.

Copies come in groups that share one graph and one verdict: with one color
all K copies keep the whole graph and form one group, otherwise each copy
is a group of its own.  A copy's coloring is a function of its own seed,
``mix2(seed, copy)``.  The sampled 2-paths all come from one numpy
Generator seeded from the estimate's seed and drawn group by group in copy
order, so a copy's indicator depends on the estimate's seed and the copy
order rather than on its own seed alone.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .hashing import mix2, mix2_array
from .indep_paths import greedy_independent_count
from .sparsifier import ColoringFunction
from .stream_core import StreamConfig, event_chunks, events_to_arrays, net_chunks
from .two_path import TwoPathEstimator

_SKETCH_TAG = (1 << 40) + 1  # domain separation from copy indices
_SAMPLE_TAG = (1 << 40) + 2


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
    b = m_max // 18
    p = 1.0 if b == 0 else min(1.0, 5.0 / (epsilon * math.sqrt(b)))
    colors = colors_override if colors_override is not None else max(1, math.floor(1.0 / p + 0.5))
    s = s_override if s_override is not None else math.ceil(18.0 / (epsilon * epsilon))
    k = (
        k_override
        if k_override is not None
        else math.ceil((36.0 / (epsilon * epsilon * alpha_min)) * math.log(2.0 / delta))
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
    diagnostics: tuple[CopyDiagnostic, ...]
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "p2_hat": self.p2_hat,
            "alpha_hat": self.alpha_hat,
            "t3_hat": self.t3_hat,
            "ell": self.ell,
            "K": self.k,
            "s": self.s,
            "p": self.p,
            "colors": self.colors,
            "diagnostics": [
                {
                    "copy": d.copy,
                    "m_prime": d.m_prime,
                    "p2_total": d.p2_total,
                    "qualified": d.qualified,
                    "indicator": d.indicator,
                }
                for d in self.diagnostics
            ],
            "warnings": list(self.warnings),
        }


class _CopyGraph:
    """One copy's kept edges as CSR adjacency over the live vertices.

    Vertices are numbered 0..V-1 in id order, so row ``v`` lists its
    neighbors ``indices[indptr[v]:indptr[v+1]]`` in ascending id order,
    ``cum`` holds the running sum of C(d,2) over the rows, and ``keys``
    holds each edge (a, b), a < b, as ``a*V + b`` in ascending order.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, num_vertices: int):
        # The pairs come sorted with a < b.  Each edge is listed once from its
        # larger endpoint, then once from its smaller; a stable sort on the
        # row then leaves every row ascending.
        rows = np.concatenate([b, a])
        self.indices = np.concatenate([a, b])[np.argsort(rows, kind="stable")]
        degrees = np.bincount(rows, minlength=num_vertices)
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        self.cum = np.cumsum(degrees * (degrees - 1) // 2)
        self.keys = a * num_vertices + b  # sorted, as the pairs are
        self.num_vertices = num_vertices
        self.m_prime = a.size
        self.p2_total = int(self.cum[-1]) if num_vertices else 0

    def sample_two_paths(
        self, rng: "np.random.Generator", count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` independent uniform 2-paths as arrays (u, center, w), u < w.

        Each center comes with probability C(d,2)/P2 by inverse CDF over
        ``cum``, then two distinct neighbor positions uniformly.  numpy's
        bounded integers are exactly uniform, so every 2-path has probability
        exactly 1/P2.  Needs p2_total > 0.
        """
        c = self.cum.searchsorted(rng.integers(0, self.p2_total, size=count), side="right")
        lo = self.indptr[c]
        d = self.indptr[c + 1] - lo
        i = rng.integers(0, d)
        j = rng.integers(0, d - 1)
        j += j >= i
        x, y = self.indices[lo + i], self.indices[lo + j]
        return np.minimum(x, y), c, np.maximum(x, y)

    def has_edges(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Whether each pair (u, w), u < w, is an edge: one search in ``keys``."""
        q = u * self.num_vertices + w
        pos = self.keys.searchsorted(q)
        found = pos < self.keys.size
        found[found] = self.keys[pos[found]] == q[found]
        return found


def _copy_groups(cfg, seeds, vertices, lu, lv) -> Iterator[tuple[_CopyGraph, bool, int]]:
    """(graph, qualified, count) per group of copies sharing one graph, in copy order.

    A one-color group has no certification threshold: sampling is exactly
    uniform on the input graph, so any 2-path qualifies it.
    """
    if cfg.colors == 1:
        g = _CopyGraph(lu, lv, vertices.size)
        yield g, g.p2_total > 0, cfg.k
        return
    for seed_i in seeds:
        colors = ColoringFunction(seed_i, cfg.colors).colors_of(vertices)
        keep = colors[lu] == colors[lv]
        g = _CopyGraph(lu[keep], lv[keep], vertices.size)
        yield g, greedy_independent_count(g.indptr, g.indices, cfg.s) >= cfg.s, 1


def estimate_triangles(events, cfg: EstimatorConfig) -> Report:
    """Run the full estimator over a turnstile stream (deletions included).

    ``events`` is a list or tuple of ``EdgeEvent``, an ``(us, vs, signs)``
    array triple, or an iterable of either events or array triples, read in
    chunks (``stream_core.event_chunks``).  The stream must keep the
    contract of ``stream_core.materialize`` with capacity ``cfg.m_max``; a
    violation raises the same ``StreamError`` with the index of the first
    offending event, before any sketch work.  Copies are built one group at
    a time from the netted edges (``_copy_groups``).
    """
    chunks = map(events_to_arrays, event_chunks(events))
    us, vs = net_chunks(chunks, StreamConfig(n=cfg.n, m_max=cfg.m_max))

    tp = TwoPathEstimator(cfg.n, cfg.epsilon, cfg.delta, seed=mix2(cfg.seed, _SKETCH_TAG))
    tp.update_many((us, vs, np.ones(us.size, dtype=np.int64)))
    p2_hat = max(0.0, tp.estimate())

    # update_many above sorts the same endpoints once more; sharing that sort
    # would reach into the sketch past TwoPathEstimator, for about 2% here.
    vertices, ends = np.unique(np.concatenate([us, vs]), return_inverse=True)
    lu, lv = ends[:us.size], ends[us.size:]
    del us, vs

    seeds = mix2_array(cfg.seed, np.arange(cfg.k, dtype=np.uint64)).tolist()
    rng = np.random.default_rng(mix2(cfg.seed, _SAMPLE_TAG))
    m_prime, p2_total, qualified, indicator = [], [], [], []
    for g, ok, count in _copy_groups(cfg, seeds, vertices, lu, lv):
        m_prime += [g.m_prime] * count
        p2_total += [g.p2_total] * count
        qualified += [ok] * count
        if ok:
            u, _, w = g.sample_two_paths(rng, count)
            indicator += g.has_edges(u, w).astype(np.int64).tolist()
        else:
            indicator += [None] * count
    columns = (range(cfg.k), seeds, m_prime, p2_total, qualified, indicator)
    diagnostics = list(map(CopyDiagnostic, *columns))
    ell = sum(qualified)
    x_sum = sum(filter(None, indicator))

    if ell == 0:
        raise NoQualifiedCopiesError(
            f"none of the {cfg.k} copies certified {cfg.s} independent 2-paths",
            diagnostics,
        )

    alpha_hat = x_sum / ell
    t3_hat = alpha_hat * p2_hat / 3.0

    warnings = []
    if cfg.degenerate:
        warnings.append("degenerate-stream: m_max < 18 forces full retention (p = 1)")
    if ell < cfg.k / 2:
        warnings.append(f"low-confidence: only {ell} of {cfg.k} copies qualified")
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
        diagnostics=tuple(diagnostics),
        warnings=tuple(warnings),
    )
