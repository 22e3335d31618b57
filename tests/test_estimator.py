import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tristream
from conftest import contract_outcome, random_graph_edges, small_streams
from tristream import estimator
from tristream.estimator import (
    CopyDiagnostic,
    InvalidRangeError,
    NoQualifiedCopiesError,
    _ColoredCopy,
    _CopyGraph,
    derive_config,
    estimate_triangles,
)
from tristream.f2_sketch import sketch_dims
from tristream.generators import (
    complete_bipartite_edges,
    complete_edges,
    edges_to_events,
    gnp_edges,
    mixed_update_stream,
    planted_cluster_edges,
    with_churn,
)
from tristream.hashing import mix2
from tristream.indep_paths import csr_from_adj, enumerate_two_paths, greedy_independent_count
from tristream.oracles import exact_two_paths
from tristream.sparsifier import ColoringFunction, SparsifiedGraph
from tristream.stream_core import (
    EdgeEvent,
    OutOfUniverseError,
    OverCapacityError,
    StreamConfig,
    events_to_arrays,
    materialize,
)
from tristream.two_path import TwoPathEstimator


def test_derive_config_frozen_examples():
    cfg = derive_config(n=100, m_max=1800, epsilon=1.0, delta=0.5, alpha_min=1.0)
    assert (cfg.b, cfg.p, cfg.colors, cfg.s, cfg.k) == (100, 0.5, 2, 18, 50)
    assert not cfg.degenerate

    cfg = derive_config(n=100, m_max=1800, epsilon=0.5, delta=0.5, alpha_min=1.0)
    assert (cfg.p, cfg.colors, cfg.s, cfg.k) == (1.0, 1, 72, 200)

    cfg = derive_config(n=20, m_max=190, epsilon=0.3, delta=0.2, alpha_min=1.0)
    assert (cfg.b, cfg.p, cfg.colors, cfg.s, cfg.k) == (10, 1.0, 1, 200, 922)

    cfg = derive_config(n=1000, m_max=100_000)  # library defaults
    assert (cfg.epsilon, cfg.delta, cfg.alpha_min) == (0.3, 0.1, 0.05)
    assert cfg.s == 200 and cfg.k == 23966

    cfg = derive_config(n=10, m_max=10)
    assert cfg.b == 0 and cfg.p == 1.0 and cfg.degenerate


def test_derive_config_validation():
    bad = [
        dict(n=1, m_max=10),
        dict(n=10, m_max=0),
        dict(n=10, m_max=10, epsilon=0.0),
        dict(n=10, m_max=10, epsilon=1.2),
        dict(n=10, m_max=10, delta=0.0),
        dict(n=10, m_max=10, delta=1.0),
        dict(n=10, m_max=10, alpha_min=0.0),
        dict(n=10, m_max=10, alpha_min=1.5),
        dict(n=10, m_max=10, k_override=0),
        dict(n=10, m_max=10, s_override=0),
        dict(n=10, m_max=10, colors_override=-1),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidRangeError):
            derive_config(**kwargs)


def test_derive_config_rejects_universes_the_sketch_cannot_hash():
    # the sketch hashes ids and columns modulo 2^31 - 1, its largest prime
    for kwargs in (dict(n=2**31 - 1), dict(n=2**31), dict(n=10, epsilon=3e-4)):
        with pytest.raises(InvalidRangeError, match="must be below 2147483647"):
            derive_config(m_max=10, **kwargs)
    cfg = derive_config(n=2**31 - 2, m_max=10)
    assert TwoPathEstimator(cfg.n, cfg.epsilon, cfg.delta).sketch.prime == 2**31 - 1


def test_derive_config_rejects_arrays_too_large_to_allocate():
    # 144 sketch rows at delta 0.1; at most 2^27 counters and 2^24 copies
    for kwargs, what in (
        (dict(epsilon=0.001), r"144 x 216000000 counters exceed 2\^27"),
        (dict(epsilon=0.01), r"144 x 2160000 counters exceed 2\^27"),
        (dict(alpha_min=1e-6), r"copies exceed 2\^24"),
        (dict(k_override=2**24 + 1), r"k=16777217 copies exceed 2\^24"),
    ):
        with pytest.raises(InvalidRangeError, match=what):
            derive_config(n=10, m_max=10, **kwargs)
    cfg = derive_config(n=10, m_max=10, epsilon=0.02, k_override=2**24)
    assert cfg.k == 2**24 and math.prod(sketch_dims(cfg.epsilon, cfg.delta)) == 77_760_000


def test_overrides_win():
    cfg = derive_config(n=10, m_max=100, k_override=7, s_override=3, colors_override=4)
    assert (cfg.k, cfg.s, cfg.colors) == (7, 3, 4)


def test_bipartite_graph_estimates_zero_triangles():
    edges = complete_bipartite_edges(5, 5)
    cfg = derive_config(n=10, m_max=25, epsilon=0.3, delta=0.1, k_override=50, seed=3)
    assert cfg.colors == 1
    report = estimate_triangles(edges_to_events(edges), cfg)
    assert report.alpha_hat == 0.0
    assert report.t3_hat == 0.0
    assert report.ell == 50
    assert all(d.indicator == 0 for d in report.diagnostics)


def test_complete_graph_full_retention_is_exact_on_alpha():
    edges = complete_edges(6)
    cfg = derive_config(n=6, m_max=15, k_override=40, seed=11)
    assert cfg.degenerate  # m_max < 18
    report = estimate_triangles(edges_to_events(edges), cfg)
    assert report.alpha_hat == 1.0
    assert report.t3_hat == report.p2_hat / 3.0
    assert any(w.startswith("degenerate-stream") for w in report.warnings)
    for d in report.diagnostics:
        assert d.qualified and d.indicator == 1
        assert d.m_prime == 15 and d.p2_total == 60


def test_p2_hat_is_order_invariant():
    edges = gnp_edges(30, 0.3, seed=5)
    events = edges_to_events(edges)
    shuffled = list(events)
    random.Random(9).shuffle(shuffled)
    cfg = derive_config(n=30, m_max=len(edges), k_override=5, seed=1)
    a = estimate_triangles(events, cfg)
    b = estimate_triangles(shuffled, cfg)
    # counter cells accumulate integers, so the sketch readout is exactly
    # permutation invariant; sampling internals are allowed to differ
    assert a.p2_hat == b.p2_hat


def test_no_qualified_copies():
    events = edges_to_events([(1, 2), (2, 3), (3, 4)])
    cfg = derive_config(n=4, m_max=3, k_override=10, colors_override=2, seed=0)
    assert cfg.s == 200  # unattainable on three edges
    with pytest.raises(NoQualifiedCopiesError) as err:
        estimate_triangles(events, cfg)
    diags = err.value.diagnostics
    assert len(diags) == 10
    assert not any(d.qualified for d in diags)


def test_one_color_without_two_paths_has_no_qualified_copy():
    events = edges_to_events([(1, 2), (3, 4)])
    cfg = derive_config(n=4, m_max=2, k_override=6, seed=9)
    assert cfg.colors == 1
    with pytest.raises(NoQualifiedCopiesError) as err:
        estimate_triangles(events, cfg)
    diags = err.value.diagnostics
    assert [d.copy for d in diags] == list(range(6))
    for i, d in enumerate(diags):
        assert d.seed == mix2(9, i)
        assert (d.m_prime, d.p2_total, d.qualified, d.indicator) == (2, 0, False, None)


def test_low_confidence_warning_when_few_copies_qualify():
    # a lone triangle under two colors survives intact only when all three
    # vertices collide, so roughly a quarter of the copies qualify
    events = edges_to_events([(1, 2), (1, 3), (2, 3)])
    cfg = derive_config(
        n=3, m_max=3, k_override=40, s_override=1, colors_override=2, seed=2
    )
    report = estimate_triangles(events, cfg)
    assert 1 <= report.ell < 20
    assert report.alpha_hat == 1.0  # any surviving 2-path closes
    assert any(w.startswith("low-confidence") for w in report.warnings)


def test_below_premise_warning_when_alpha_hat_is_under_alpha_min():
    # a 30-leaf star with one edge between two leaves has alpha = 3/437,
    # below the default alpha_min of 0.05; K8 has alpha = 1
    sparse = [(1, v) for v in range(2, 32)] + [(2, 3)]
    for edges, n, warns in ((sparse, 31, True), (complete_edges(8), 8, False)):
        cfg = derive_config(n=n, m_max=len(edges), k_override=200, seed=4)
        assert cfg.colors == 1 and cfg.alpha_min == 0.05
        report = estimate_triangles(edges_to_events(edges), cfg)
        below = [w for w in report.warnings if w.startswith("below-premise")]
        assert (report.alpha_hat < cfg.alpha_min) is warns
        assert below == ([f"below-premise: alpha_hat {report.alpha_hat:.6g} < alpha_min 0.05; "
                          "K is sized for alpha >= alpha_min"] if warns else [])
        assert report.to_dict(diagnostics=False)["warnings"] == list(report.warnings)


def test_report_shape_and_shared_structure():
    edges = complete_edges(5)
    cfg = derive_config(n=5, m_max=10, k_override=12, seed=7)
    report = estimate_triangles(edges_to_events(edges), cfg)
    assert len(report.diagnostics) == 12
    assert report.ell == sum(d.qualified for d in report.diagnostics)
    assert len({(d.m_prime, d.p2_total) for d in report.diagnostics}) == 1

    payload = report.to_dict()
    assert set(payload) == {
        "p2_hat", "alpha_hat", "t3_hat", "ell", "K", "s", "p", "colors",
        "diagnostics", "summary", "warnings",
    }
    assert set(payload["summary"]) == {
        "qualified_rate", "kept_fraction", "kept_fraction_expected",
        "alpha_se", "t3_se", "p2_live", "p2_rel_error",
    }
    assert set(report.to_dict(diagnostics=False)) == set(payload) - {"diagnostics"}
    assert payload["K"] == 12
    assert set(payload["diagnostics"][0]) == {
        "copy", "m_prime", "p2_total", "qualified", "indicator",
    }


@pytest.mark.parametrize("colors", [1, 3])
def test_diagnostics_are_built_from_the_columns_on_first_access(colors):
    events = edges_to_events(gnp_edges(30, 0.3, seed=4))
    cfg = derive_config(n=30, m_max=len(events), k_override=25, s_override=2,
                        colors_override=colors, seed=8)
    report = estimate_triangles(events, cfg)
    assert "diagnostics" not in vars(report)
    diagnostics = report.diagnostics
    assert diagnostics is report.diagnostics
    assert all(type(d) is CopyDiagnostic for d in diagnostics)
    assert [d.copy for d in diagnostics] == list(range(25))
    assert report.ell == sum(d.qualified for d in diagnostics)
    assert report.to_dict()["diagnostics"] == [
        {"copy": d.copy, "m_prime": d.m_prime, "p2_total": d.p2_total,
         "qualified": d.qualified, "indicator": d.indicator}
        for d in diagnostics
    ]


def test_no_qualified_copies_error_holds_copy_records():
    events = edges_to_events([(1, 2), (2, 3), (3, 4), (4, 5)])
    cfg = derive_config(n=5, m_max=4, k_override=7, colors_override=2, seed=3)
    with pytest.raises(NoQualifiedCopiesError) as err:
        estimate_triangles(events, cfg)
    diags = err.value.diagnostics
    assert type(diags) is list and all(type(d) is CopyDiagnostic for d in diags)
    assert [d.copy for d in diags] == list(range(7))
    assert all(d.seed == mix2(3, d.copy) and not d.qualified and d.indicator is None
               for d in diags)


@pytest.mark.parametrize("colors", [1, 3])
def test_summary_p2_live_is_the_exact_two_path_count_of_the_final_graph(colors):
    events = mixed_update_stream(25, 400, seed=6)
    final = materialize(events, StreamConfig(n=25, m_max=len(events)))
    assert final.m < sum(e.sign == 1 for e in events)  # deletions changed the graph
    cfg = derive_config(n=25, m_max=len(events), k_override=30, s_override=1,
                        colors_override=colors, seed=2)
    report = estimate_triangles(events, cfg)
    summary = report.to_dict()["summary"]
    assert summary["p2_live"] == exact_two_paths(final) > 0
    assert summary["p2_rel_error"] == (report.p2_hat - summary["p2_live"]) / summary["p2_live"]
    assert summary["kept_fraction"] == \
        sum(d.m_prime for d in report.diagnostics) / (report.k * final.m)
    assert summary["kept_fraction_expected"] == 1 / colors


def test_summary_rates_and_standard_errors():
    # one color keeps the whole graph in every copy
    events = edges_to_events(gnp_edges(30, 0.3, seed=1))
    report = estimate_triangles(events, derive_config(n=30, m_max=len(events), k_override=50,
                                                      seed=5))
    summary = report.summary
    assert report.colors == 1 and summary["kept_fraction"] == 1.0
    assert 0 < report.alpha_hat < 1
    a = report.alpha_hat
    assert summary["alpha_se"] == math.sqrt(a * (1 - a) / report.ell)
    assert summary["t3_se"] == summary["alpha_se"] * report.p2_hat / 3
    assert summary["qualified_rate"] == report.ell / report.k == 1.0

    # a lone triangle under two colors: some copies lose it, and alpha_hat = 1
    events = edges_to_events([(1, 2), (1, 3), (2, 3)])
    cfg = derive_config(n=3, m_max=3, k_override=40, s_override=1, colors_override=2, seed=2)
    report = estimate_triangles(events, cfg)
    assert 0 < report.ell < report.k
    assert report.summary["qualified_rate"] == report.ell / report.k
    assert report.alpha_hat == 1.0 and report.summary["alpha_se"] == 0.0

    # a bipartite graph closes no 2-path: alpha_hat = 0
    events = edges_to_events(complete_bipartite_edges(4, 4))
    report = estimate_triangles(events, derive_config(n=8, m_max=16, k_override=20, seed=1))
    assert report.alpha_hat == 0.0
    assert report.summary["alpha_se"] == 0.0 and report.summary["t3_se"] == 0.0


def test_accepts_prebuilt_event_arrays():
    events = edges_to_events(complete_edges(6))
    cfg = derive_config(n=6, m_max=15, k_override=8, seed=4)
    a = estimate_triangles(events, cfg)
    b = estimate_triangles(events_to_arrays(events), cfg)
    assert a.to_dict() == b.to_dict()


def test_accepts_a_generator():
    events = edges_to_events(gnp_edges(25, 0.3, seed=2))
    cfg = derive_config(n=25, m_max=len(events), k_override=9, colors_override=2, s_override=2,
                        seed=6)
    assert estimate_triangles((e for e in events), cfg).to_dict() == \
        estimate_triangles(events, cfg).to_dict()


def test_enforces_capacity():
    events = edges_to_events(complete_edges(10))
    cfg = derive_config(n=10, m_max=5, k_override=3)
    with pytest.raises(OverCapacityError, match="^event 5: "):
        estimate_triangles(events, cfg)


def test_negative_endpoint_is_out_of_universe():
    cfg = derive_config(n=5, m_max=4, k_override=2)
    events = [EdgeEvent(1, 2, 1), EdgeEvent(-1, 2, 1)]
    arrays = (np.array([1, -1]), np.array([2, 2]), np.array([1, 1]))
    lists = ([1, -1], [2, 2], [1, 1])
    for stream in (events, arrays, lists):
        with pytest.raises(OutOfUniverseError, match=r"^event 1: endpoint outside \[1, 5\]: \(-1, 2\)$"):
            estimate_triangles(stream, cfg)
    # ids past the int64 range overflow in every form, lists included
    beyond = ([2**63, 1], [2**63 + 1, 2], [1, 1])
    for stream in ([EdgeEvent(*t) for t in zip(*beyond)], beyond):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                estimate_triangles(stream, cfg)



@pytest.mark.parametrize("us, vs, signs, kind", [
    (np.array([1.7, 2.2, 1.0]), np.array([2.9, 3.5, 3.0]), np.array([1, 1, 1]), ValueError),
    ([1.0, 1, 2], [2, 3, 3], [1, 1, 1], ValueError),
    (np.array([1, 1, 2]), np.array([2, 3, 3]), np.array([True, True, True]), ValueError),
    ([1, 1, 2], [2, 3, 3], [True, 1, 1], ValueError),
    (np.array([1, 2**63], dtype=np.uint64), np.array([2, 3], dtype=np.uint64), np.array([1, 1]),
     OverflowError),
    ([1, 1, 2], [2, 3, 3], [1], ValueError),
], ids=["float-array", "float-list", "bool-array", "bool-list", "uint64-past-int64",
        "unequal-lengths"])
def test_array_input_takes_integers_only(us, vs, signs, kind):
    # one rule for every array consumer: nothing is truncated, wrapped or
    # indexed past its end
    cfg = derive_config(n=5, m_max=5, k_override=5)
    with pytest.raises(kind) as err:
        estimate_triangles((us, vs, signs), cfg)
    assert type(err.value) is kind
    with pytest.raises(kind):
        TwoPathEstimator(5, 0.3, 0.1).sketch.update_many(us, signs)


def test_an_edge_event_takes_integers_only():
    # The float events below were truncated to a triangle on the estimator's
    # side and kept as six float vertices by materialize; now neither is
    # reached.  numpy integers pass, as they do in an array triple.
    for fields in ((1.7, 2.9, 1), (2.2, 3.5, 1), (1.0, 3.0, True), (1, 2, True),
                   (1, np.float64(2.0), 1), (False, 2, 1)):
        with pytest.raises(ValueError, match="EdgeEvent fields must be integers"):
            EdgeEvent(*fields)
    events = [EdgeEvent(1, 2, 1), EdgeEvent(np.int64(2), np.int32(3), 1), EdgeEvent(1, 3, np.int8(1))]
    cfg = derive_config(n=5, m_max=5, k_override=5)
    assert estimate_triangles(events, cfg).t3_hat == 1.0
    assert materialize(events, StreamConfig(n=5, m_max=5)).m == 3


def _estimate_or_diagnostics(events, cfg):
    """The report as a dict, or the diagnostics when no copy qualified."""
    try:
        return estimate_triangles(events, cfg).to_dict()
    except NoQualifiedCopiesError as err:
        return err.diagnostics


@settings(max_examples=150, deadline=None)
@given(small_streams(), st.integers(1, 3))
def test_contract_matches_materialize(case, colors):
    n, m_max, events = case
    cfg = derive_config(n=n, m_max=m_max, k_override=2, s_override=1, colors_override=colors)
    want = contract_outcome(lambda: materialize(events, StreamConfig(n=n, m_max=m_max)))
    assert contract_outcome(lambda: _estimate_or_diagnostics(events, cfg)) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)))
def test_report_depends_only_on_the_final_graph(seed, colors):
    rng = random.Random(seed)
    edges, n_base = random_graph_edges(rng, n_max=24)
    decoys = rng.randint(0, 40)
    churned, n = with_churn(edges, decoys, seed=seed, n_base=n_base)
    final = edges_to_events(edges)
    rng.shuffle(final)
    cfg = derive_config(n=n, m_max=max(1, len(edges) + decoys), k_override=12,
                        s_override=rng.randint(1, 4), colors_override=colors, seed=seed)
    assert _estimate_or_diagnostics(churned, cfg) == _estimate_or_diagnostics(final, cfg)


def test_copies_match_replay_through_sparsified_graph():
    # reference: every event replayed through the incremental structure, then
    # greedy certification on its adjacency
    outcomes = Counter()
    for seed in range(16):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        if seed % 2:
            events = mixed_update_stream(n, rng.randint(100, 800), seed=seed)
        else:
            events, n = with_churn(gnp_edges(n, rng.uniform(0.1, 0.5), seed=seed),
                                   rng.randint(1, 60), seed=seed, n_base=n)
        colors, s = 2 + seed % 3, rng.randint(1, 8)
        cfg = derive_config(n=n, m_max=len(events), k_override=10, s_override=s,
                            colors_override=colors, seed=seed)
        try:
            diagnostics = estimate_triangles(events, cfg).diagnostics
        except NoQualifiedCopiesError as err:
            diagnostics = err.diagnostics
        arrays = events_to_arrays(events)
        for d in diagnostics:
            gs = SparsifiedGraph(n, ColoringFunction(d.seed, colors))
            gs.apply_events(*arrays)
            qualified = greedy_independent_count(*csr_from_adj(gs.adj), s) >= s
            assert (d.m_prime, d.p2_total, d.qualified) == (gs.m_prime, gs.p2_total, qualified)
            outcomes[qualified] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def test_copy_graph_from_edges_matches_a_python_reference():
    rng = np.random.default_rng(19)
    graphs = [([], 0), ([], 3), ([(0, b) for b in range(1, 50)], 50)]  # empty, edgeless, a star
    for size in (10, 60, 400):
        # ids 10..19 of the 40 are isolated
        ids = [x for x in range(40) if not 10 <= x < 20]
        draw = rng.choice(ids, size=(size, 2)).tolist()
        graphs.append((sorted({(a, b) for a, b in draw if a < b}), 40))
    for pairs, num_vertices in graphs:
        a = np.array([x for x, _ in pairs], dtype=np.int64)
        b = np.array([y for _, y in pairs], dtype=np.int64)
        g = _CopyGraph.from_edges(a, b, num_vertices)
        rows = [sorted([y for x, y in pairs if x == v] + [x for x, y in pairs if y == v])
                for v in range(num_vertices)]
        assert g.indptr.tolist() == [0] + np.cumsum([len(r) for r in rows]).tolist()
        assert g.indices.tolist() == [y for r in rows for y in r]
        assert g.keys.tolist() == [x * num_vertices + y for x, y in pairs]
        assert g.cum.tolist() == np.cumsum([len(r) * (len(r) - 1) // 2 for r in rows]).tolist()
        assert g.indptr.dtype == g.indices.dtype == np.int64


def test_copy_graph_samples_two_paths_uniformly():
    # vertex numbers 0..6, pairs sorted with a < b; P2 = 3 + 3 + 3 + 1 + 1 = 11.
    # Vertex 6, the highest, has an empty row, so a query such as (4, 6) lies
    # above the last edge key and its search ends past the keys.
    pairs = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4)]
    g = _CopyGraph.from_edges(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), 7)
    adj = {x: set() for x in range(7)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    assert g.m_prime == 7 and g.p2_total == 11
    qa, qb = np.array([(a, b) for a in range(7) for b in range(a + 1, 7)]).T
    assert g.keys.searchsorted(qa * 7 + qb).max() == g.keys.size
    assert g.has_edges(qa, qb).tolist() == [b in adj[a] for a, b in zip(qa, qb)]
    paths = enumerate_two_paths(adj)
    draws = 22_000
    u, c, w = g.sample_two_paths(np.random.default_rng(8), draws)
    assert u.shape == c.shape == w.shape == (draws,)
    seen = Counter(zip(u.tolist(), c.tolist(), w.tolist()))
    assert set(seen) == set(paths)
    expected = draws / len(paths)
    chi2 = sum((seen[p] - expected) ** 2 / expected for p in paths)
    assert chi2 < 29.59  # 0.999 quantile of chi-square with 10 degrees of freedom


def test_copy_graph_has_edges_answers_in_query_order():
    # Answers come in the queries' order: draw them unsorted, with repeats,
    # and with pairs on the top vertices 36..39, which no edge touches, so
    # their keys lie above the largest key.
    rng = np.random.default_rng(16)
    pairs = sorted({(a, b) for a, b in rng.integers(0, 36, size=(300, 2)).tolist() if a < b})
    edges = set(pairs)
    g = _CopyGraph.from_edges(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), 40)
    qa = rng.integers(0, 39, size=2_000)
    qb = qa + rng.integers(1, 40 - qa)
    qa, qb = np.concatenate([qa, qa[:500], [35, 38]]), np.concatenate([qb, qb[:500], [39, 39]])
    found = g.has_edges(qa, qb)
    assert found.tolist() == [(a, b) in edges for a, b in zip(qa.tolist(), qb.tolist())]
    assert 0 < found.sum() < found.size and (qb >= 36).any()
    assert g.has_edges(qa[:0], qb[:0]).tolist() == []


def test_colored_copy_samples_monochromatic_two_paths_uniformly():
    # the graph of test_copy_graph_samples_two_paths_uniformly on vertices
    # 1, 2, 3, 5, 6, 7 of color 1, plus edges to vertices 0 and 4 of other
    # colors, which sit inside the full rows; the copy has P2 = 3+3+3+1+1 = 11
    kept = [(1, 2), (1, 3), (1, 7), (2, 3), (2, 5), (3, 6), (5, 6)]
    cross = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (2, 4), (3, 4), (4, 6), (4, 7)]
    pairs = kept + cross
    colors = np.array([2, 1, 1, 1, 3, 1, 1, 1], dtype=np.uint64)
    a, b = (np.array(x) for x in zip(*sorted(pairs)))
    copy = _ColoredCopy(_CopyGraph.from_edges(a, b, 8), colors)
    keep = colors[a] == colors[b]
    want = _CopyGraph.from_edges(a[keep], b[keep], 8)
    indptr, indices = copy.csr()
    assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
    assert np.array_equal(copy.degrees, want.degrees) and np.array_equal(copy.cum, want.cum)
    assert (copy.m_prime, copy.p2_total) == (want.m_prime, want.p2_total) == (7, 11)
    assert copy.max_degree == want.degrees.max() == 3
    adj = {x: set() for x in range(8)}
    for u, w in pairs:
        if colors[u] == colors[w]:
            adj[u].add(w)
            adj[w].add(u)
    assert copy.degrees.tolist() == [len(adj[x]) for x in range(8)]
    paths = enumerate_two_paths(adj)
    draws = 22_000
    u, c, w = copy.sample_two_paths(np.random.default_rng(8), draws)
    assert u.shape == c.shape == w.shape == (draws,)
    seen = Counter(zip(u.tolist(), c.tolist(), w.tolist()))
    assert set(seen) == set(paths)
    expected = draws / len(paths)
    chi2 = sum((seen[p] - expected) ** 2 / expected for p in paths)
    assert chi2 < 29.59  # 0.999 quantile of chi-square with 10 degrees of freedom
    same = [x for x in range(8) if colors[x] == 1]
    qa, qb = np.array([(x, y) for x in same for y in same if x < y]).T
    assert copy.has_edges(qa, qb).tolist() == [y in adj[x] for x, y in zip(qa, qb)]


def _reference_copy_groups(cfg, seeds, vertices, g):
    """Several-color copies each built as a CSR of their own kept edges,
    certified on that CSR; sampling and the closing-edge search then run on
    it too.  The live edges are read back from the keys of the shared CSR."""
    assert cfg.colors > 1
    lu, lv = g.keys // vertices.size, g.keys % vertices.size
    for seed_i in seeds:
        colors = ColoringFunction(seed_i, cfg.colors).colors_of(vertices)
        keep = colors[lu] == colors[lv]
        g = _CopyGraph.from_edges(lu[keep], lv[keep], vertices.size)
        yield g, greedy_independent_count(g.indptr, g.indices, cfg.s) >= cfg.s, 1


def _estimate_outcome(events, cfg):
    """(columns, to_dict) of the report, or the diagnostics when no copy qualified."""
    try:
        report = estimate_triangles(events, cfg)
    except NoQualifiedCopiesError as err:
        return err.diagnostics
    return report.columns, report.to_dict()


@pytest.mark.parametrize("colors", [2, 3, 5])
def test_colored_copies_match_a_csr_per_copy(monkeypatch, colors):
    verdicts = Counter()
    for seed in range(8):
        rng = random.Random(100 * colors + seed)
        n = rng.randint(20, 40)
        if seed % 2:
            events = mixed_update_stream(n, rng.randint(300, 900), seed=seed)
        else:
            events, n = with_churn(gnp_edges(n, rng.uniform(0.2, 0.6), seed=seed),
                                   rng.randint(1, 60), seed=seed, n_base=n)
        # s near the greedy count of a copy of m/colors edges, so that some
        # copies qualify and some do not; s = 200 qualifies none
        m = materialize(events, StreamConfig(n=n, m_max=len(events))).m
        s = 200 if seed == 7 else max(1, round(m / colors / 3 * rng.uniform(0.5, 1.5)))
        cfg = derive_config(n=n, m_max=len(events), k_override=rng.randint(20, 40), s_override=s,
                            colors_override=colors, seed=seed)
        got = _estimate_outcome(events, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(estimator, "_copy_groups", _reference_copy_groups)
            assert got == _estimate_outcome(events, cfg)
        if isinstance(got, list):
            verdicts["none"] += 1
        else:
            verdicts.update(got[0].qualified)
    assert verdicts[True] and verdicts[False] and verdicts["none"]


def test_decided_copies_skip_the_greedy(monkeypatch):
    calls = []

    def counted(indptr, indices, target=None):
        calls.append(target)
        return greedy_independent_count(indptr, indices, target)

    monkeypatch.setattr(estimator, "greedy_independent_count", counted)
    # 40 disjoint K6 with about a tenth of their edges dropped: each 2-color
    # copy keeps P2' of 374 to 580 at d'max <= 5, above (s - 1)(9 d'max - 6)
    # = 156, so the degree bounds qualify every copy
    rng = random.Random(5)
    edges = [(6 * c + u, 6 * c + v) for c in range(40) for u, v in complete_edges(6)
             if rng.random() < 0.9]
    events = edges_to_events(edges)
    cfg = derive_config(n=240, m_max=len(edges), k_override=30, s_override=5,
                        colors_override=2, seed=3)
    got = _estimate_outcome(events, cfg)
    assert calls == [] and got[1]["ell"] == 30
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_copy_groups", _reference_copy_groups)
        assert got == _estimate_outcome(events, cfg)
    # the four-color graph of test_four_color_report_is_frozen, whose copies'
    # greedy counts spread around s = 35, leaves copies to the greedy
    edges, n = planted_cluster_edges(160, 480)
    cfg = derive_config(n=n, m_max=len(edges), k_override=50, s_override=35,
                        colors_override=4, seed=9)
    estimate_triangles(edges_to_events(edges), cfg)
    assert calls and set(calls) == {35}


def test_colored_copies_share_one_csr(monkeypatch):
    built = []

    class Counted(_CopyGraph):
        @classmethod
        def from_edges(cls, *args):
            built.append(args)
            return super().from_edges(*args)

    monkeypatch.setattr(estimator, "_CopyGraph", Counted)
    events = edges_to_events(gnp_edges(40, 0.3, seed=3))
    cfg = derive_config(n=40, m_max=len(events), k_override=20, s_override=2,
                        colors_override=3, seed=4)
    report = estimate_triangles(events, cfg)
    assert report.k == 20 and 0 < report.ell
    assert len(built) == 1


def test_four_color_report_is_frozen():
    # a scaled-down criterion 09 graph; s = 35 sits inside the spread of the
    # copies' greedy counts, so some copies qualify and some do not
    edges, n = planted_cluster_edges(160, 480)
    cfg = derive_config(n=n, m_max=len(edges), k_override=50, s_override=35,
                        colors_override=4, seed=9)
    report = estimate_triangles(edges_to_events(edges), cfg)
    assert (report.ell, report.alpha_hat, report.p2_hat) == (36, 14 / 36, 960.0)
    assert [tuple(d[2:]) for d in report.diagnostics[:10]] == [
        (362, 61, True, 1), (365, 58, True, 0), (359, 61, True, 1), (386, 76, True, 0),
        (361, 52, True, 0), (352, 43, False, None), (364, 49, False, None),
        (337, 54, False, None), (392, 77, True, 1), (362, 49, False, None),
    ]


def test_one_color_report_at_default_knobs_is_frozen():
    # 1,500 triangles, a matching of 6,000 edges and 5 stars of 99 leaves on
    # 17,000 ids up to 600,000: the sketch hashes modulo 2^31 - 1 and takes
    # its 17,000 vertices in two item blocks.  P2 = 4,500 + 5 * C(99, 2).
    rng = np.random.default_rng(16)
    ids = rng.choice(np.arange(1, 600_001), size=17_000, replace=False).tolist()
    edges = [(ids[i + j], ids[i + k])
             for i in range(0, 4500, 3) for j, k in ((0, 1), (1, 2), (0, 2))]
    edges += [(ids[i], ids[i + 1]) for i in range(4500, 16500, 2)]
    edges += [(ids[16500 + h], ids[16505 + 99 * h + j]) for h in range(5) for j in range(99)]
    edges = [(min(e), max(e)) for e in edges]
    cfg = derive_config(n=600_000, m_max=len(edges), seed=5)
    assert (cfg.colors, cfg.k) == (1, 23966)
    report = estimate_triangles(edges_to_events(edges), cfg)
    assert (report.live_edges, report.p2_live) == (10_995, 28_755)
    assert (report.p2_hat, report.alpha_hat, report.ell) == (28697.5, 3809 / 23966, 23966)


def test_two_color_report_at_default_knobs_is_frozen():
    # 705 disjoint paths of two edges and 10 disjoint triangles; m_max =
    # 11,250 derives 2 colors at the default knobs.  Every degree is at most
    # 2, so no copy qualifies from its degrees: a copy with P2' < s fails
    # there, and the rest go to the greedy, which qualifies some (an intact
    # path is one independent 2-path) and fails others (a triangle's three
    # 2-paths count once).  The indicators and alpha_hat are not pinned.
    edges = [(3 * i + a, 3 * i + b) for i in range(705) for a, b in ((1, 2), (2, 3))]
    edges += [(3 * i + a, 3 * i + b) for i in range(705, 715) for a, b in ((1, 2), (1, 3), (2, 3))]
    cfg = derive_config(n=3 * 715, m_max=11_250, seed=2)
    assert (cfg.colors, cfg.k, cfg.s) == (2, 23966, 200)
    columns = estimate_triangles(edges_to_events(edges), cfg).columns
    assert sum(columns.qualified) == 929
    assert (sum(columns.m_prime), sum(columns.p2_total)) == (17_257_633, 4_405_321)
    assert list(zip(columns.m_prime[:10], columns.p2_total[:10], columns.qualified[:10])) == [
        (726, 182, False), (723, 178, False), (733, 200, False), (691, 159, False),
        (710, 173, False), (701, 172, False), (685, 169, False), (759, 191, False),
        (729, 173, False), (704, 173, False),
    ]
    assert [i for i, ok in enumerate(columns.qualified) if ok][:10] == [
        20, 27, 31, 45, 50, 53, 96, 153, 189, 190]


def test_one_color_copies_draw_independently():
    # K4 minus the edge (3, 4): P2 = 8, closed 2-paths 6, alpha = 0.75.  A
    # batch that reused one draw for every copy would read 0 or 1.
    events = edges_to_events([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    k = 20_000
    cfg = derive_config(n=4, m_max=5, k_override=k, seed=12)
    assert cfg.colors == 1
    report = estimate_triangles(events, cfg)
    assert report.ell == k
    assert abs(report.alpha_hat - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / k)


@pytest.mark.parametrize("colors", [1, 3])
def test_copy_seeds_are_mix2_of_the_copy_index(colors):
    events = edges_to_events(complete_edges(12))
    for seed in (0, 5, 2**64 - 3):
        cfg = derive_config(n=12, m_max=66, k_override=40, s_override=1,
                            colors_override=colors, seed=seed)
        diagnostics = estimate_triangles(events, cfg).diagnostics
        assert [d.copy for d in diagnostics] == list(range(40))
        assert all(d.seed == mix2(seed, d.copy) for d in diagnostics)


def test_a_tuple_of_three_events_is_a_stream():
    events = [EdgeEvent(1, 2, 1), EdgeEvent(1, 3, 1), EdgeEvent(2, 3, 1)]
    cfg = derive_config(n=3, m_max=3, k_override=20, seed=1)
    report = estimate_triangles(tuple(events), cfg)
    assert report.to_dict() == estimate_triangles(events, cfg).to_dict()
    assert report.t3_hat == 1.0


def test_importing_the_package_leaves_numpy_random_unloaded():
    # the sampler's Generator is made per estimate; loading numpy.random on
    # import would add to the start of every CLI call
    src = str(Path(tristream.__file__).resolve().parent.parent)
    code = "import sys, tristream; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
