import copy
import random
from collections import Counter

import numpy as np
import pytest

from conftest import BULL, adjacency
from tristream.generators import complete_edges, edges_to_events, mixed_update_stream
from tristream.hashing import mix2
from tristream.indep_paths import enumerate_two_paths
from tristream.sparsifier import ColoringFunction, InconsistentDeleteError, SparsifiedGraph
from tristream.stream_core import DuplicateInsertError, OutOfUniverseError, events_to_arrays


def _block(triples):
    us, vs, signs = zip(*triples)
    return (np.array(us, dtype=np.uint64), np.array(vs, dtype=np.uint64),
            np.array(signs, dtype=np.int64))


def _state(g):
    """Everything an update moves, with each bucket's slot order."""
    return (g.adj, [list(b) for b in g.buckets], g._pos, g.p2_bucket, g.p2_total, g.m_prime)


def _rebuilt(g):
    """A fresh graph holding ``g``'s edges, inserted in sorted order."""
    fresh = SparsifiedGraph(g.n, g.coloring)
    for u in sorted(g.adj):
        for v in sorted(g.adj[u]):
            if u < v:
                fresh.apply(u, v, 1)
    return fresh


def test_coloring_range_and_determinism():
    c = ColoringFunction(seed=5, colors=7)
    cols = [c.color(v) for v in range(1, 500)]
    assert min(cols) >= 1 and max(cols) <= 7
    assert cols == [c.color(v) for v in range(1, 500)]
    assert len(set(Counter(cols).values())) <= 7  # all classes hit at this size
    with pytest.raises(ValueError):
        ColoringFunction(seed=0, colors=0)


def test_colors_of_matches_scalar():
    c = ColoringFunction(seed=99, colors=11)
    vs = np.arange(1, 300, dtype=np.uint64)
    assert c.colors_of(vs).tolist() == [c.color(int(v)) for v in vs]
    one = ColoringFunction(seed=99, colors=1)
    assert set(one.colors_of(vs).tolist()) == {1}


def test_single_color_keeps_everything():
    g = SparsifiedGraph(6, ColoringFunction(0, 1))
    for u, v in complete_edges(6):
        assert g.apply(u, v, 1)
    assert g.m_prime == 15
    assert g.p2_total == 60
    g.audit()


def test_bichromatic_events_are_noops():
    coloring = ColoringFunction(seed=3, colors=4)
    g = SparsifiedGraph(50, coloring)
    applied = 0
    for u, v in complete_edges(20):
        applied += g.apply(u, v, 1)
        assert g.has_edge(u, v) == coloring.monochromatic(u, v)
    assert 0 < applied < 190
    g.audit()


def test_turnstile_errors_on_kept_edges():
    g = SparsifiedGraph(10, ColoringFunction(0, 1))
    g.apply(1, 2, 1)
    with pytest.raises(DuplicateInsertError):
        g.apply(1, 2, 1)
    with pytest.raises(InconsistentDeleteError):
        g.apply(1, 3, -1)
    g.apply(1, 2, -1)
    assert g.m_prime == 0 and g.p2_total == 0 and not g.adj


def test_degree_classes_small_path():
    g = SparsifiedGraph(8, ColoringFunction(0, 1))
    g.apply(1, 2, 1)
    assert not g._pos and not any(g.buckets)  # degree 1 holds no slot
    assert set(g.degree_one) == {1, 2}
    g.apply(2, 3, 1)
    assert g.buckets[0] == [2] and g._pos == {2: 0}  # C(2,2)=1 lands in bucket 0
    assert g.p2_total == 1
    g.apply(2, 4, 1)  # degree 3: C(3,2)=3 -> bucket 1
    assert not g.buckets[0] and g.buckets[1] == [2] and g._pos == {2: 0}
    assert g.p2_total == 3
    g.audit()

    # a star centre grows from degree 0 to 70 and shrinks back, crossing
    # every class boundary 0..11 (C(70,2) = 2415) once each way
    g = SparsifiedGraph(80, ColoringFunction(0, 1))
    grow = [(1, leaf, 1) for leaf in range(2, 72)]
    shrink = [(1, leaf, -1) for leaf in range(71, 1, -1)]
    for steps in (grow, shrink):
        classes = []
        for u, v, sign in steps:
            g.apply(u, v, sign)
            g.audit()
            assert g.p2_bucket == _rebuilt(g).p2_bucket
            d = g.degree(1)
            if d >= 2:
                b = (d * (d - 1) // 2).bit_length() - 1
                assert g.buckets[b][g._pos[1]] == 1
                classes.append(b)
        assert sorted(set(classes)) == list(range(12))
    assert not g.adj and not g._pos and not any(g.buckets) and g.p2_total == 0


def test_apply_events_equals_scalar_loop():
    for seed in range(12):
        n = 40
        events = mixed_update_stream(n, 300, seed=seed)
        for colors in (1, 3, 8):
            a = SparsifiedGraph(n, ColoringFunction(seed + 100, colors))
            for e in events:
                a.apply(e.u, e.v, e.sign)
            b = SparsifiedGraph(n, ColoringFunction(seed + 100, colors))
            us, vs, signs = events_to_arrays(events)
            applied = b.apply_events(us, vs, signs)
            a.audit()
            b.audit()
            assert a.adj == b.adj
            assert a.p2_bucket == b.p2_bucket and a.p2_total == b.p2_total
            assert a.m_prime == b.m_prime
            if colors == 1:
                assert applied == len(events)


def test_incremental_state_matches_rebuild():
    # mixed updates, then insert the surviving edges alone into a fresh
    # structure: bucket membership is degree-determined, so the sets agree
    for seed in range(8):
        n = 30
        events = mixed_update_stream(n, 500, seed=seed)
        g = SparsifiedGraph(n, ColoringFunction(seed, 2))
        for e in events:
            g.apply(e.u, e.v, e.sign)
        fresh = _rebuilt(g)
        assert fresh.adj == g.adj
        assert fresh.p2_bucket == g.p2_bucket and fresh.p2_total == g.p2_total
        assert fresh.m_prime == g.m_prime
        for b in range(g.num_buckets):
            assert set(g.buckets[b]) == set(fresh.buckets[b])
        fresh.audit()
        g.audit()


def test_sample_returns_none_without_two_paths():
    g = SparsifiedGraph(6, ColoringFunction(0, 1))
    rng = random.Random(0)
    assert g.sample_two_path(rng) is None
    g.apply(1, 2, 1)  # a lone edge still has no 2-path
    assert g.sample_two_path(rng) is None


def test_sampled_paths_are_valid():
    g = SparsifiedGraph(5, ColoringFunction(0, 1))
    for u, v in BULL:
        g.apply(u, v, 1)
    rng = random.Random(42)
    for _ in range(300):
        u, c, w = g.sample_two_path(rng)
        assert u < w and u != c and w != c
        assert g.has_edge(u, c) and g.has_edge(c, w)
    assert g.samples == 300 and g.sample_draws >= g.samples


def test_sampler_close_to_uniform_quick():
    # bull graph: 7 two-paths; a loose chi-square guard at 20k draws
    g = SparsifiedGraph(5, ColoringFunction(0, 1))
    for u, v in BULL:
        g.apply(u, v, 1)
    paths = enumerate_two_paths(g.adj)
    rng = random.Random(7)
    counts = Counter(g.sample_two_path(rng) for _ in range(20_000))
    assert set(counts) == set(paths)
    exp = 20_000 / len(paths)
    chi2 = sum((counts[p] - exp) ** 2 / exp for p in paths)
    assert chi2 < 22.5  # dof 6, far beyond the 0.1% point ~ 22.46


def test_acceptance_rate_bound():
    # every draw accepts with probability > 1/2, so draws <= 2x samples on average
    g = SparsifiedGraph(30, ColoringFunction(0, 1))
    for u, v in complete_edges(9):
        g.apply(u, v, 1)
    for u in range(10, 30, 2):
        g.apply(u, u + 1, 1)
        g.apply(1, u, 1)
    rng = random.Random(5)
    for _ in range(5000):
        g.sample_two_path(rng)
    assert g.sample_draws / g.samples < 2.0
    g.audit()


def test_copy_seeds_differ():
    assert mix2(3, 0) != mix2(3, 1) != mix2(4, 1)


def test_apply_events_rejects_out_of_universe():
    # both ingest paths reject the same endpoints, whatever the coloring
    for colors in (1, 3):
        g = SparsifiedGraph(10, ColoringFunction(1, colors))
        for u, v in ((0, 5), (11, 5), (5, 0), (5, 11)):
            with pytest.raises(ValueError):
                g.apply(u, v, 1)
            with pytest.raises(ValueError) as raised:
                g.apply_events(np.array([u], dtype=np.uint64), np.array([v], dtype=np.uint64),
                               np.array([1], dtype=np.int64))
            assert raised.type is OutOfUniverseError
        # ids no uint64 holds reach ``apply`` too
        for u, v in ((2**70, 5), (-1, 5)):
            with pytest.raises(ValueError):
                g.apply(u, v, 1)
        assert not g.adj and g.m_prime == 0
        # the universe's own ends are accepted by both
        g.apply(1, 10, 1)
        g.apply_events(np.array([2], dtype=np.uint64), np.array([10], dtype=np.uint64),
                       np.array([1], dtype=np.int64))
        if colors == 1:
            assert g.m_prime == 2


def test_audit_detects_slot_drift():
    def build():
        g = SparsifiedGraph(30, ColoringFunction(0, 1))
        for u, v in complete_edges(6) + [(7, 8), (8, 9), (1, 10)]:
            g.apply(u, v, 1)
        g.audit()
        return g

    g = build()  # two slots in one bucket trade places
    arr = next(a for a in g.buckets if len(a) >= 2)
    arr[0], arr[1] = arr[1], arr[0]
    with pytest.raises(RuntimeError):
        g.audit()
    g = build()  # a vertex keeps a slot after dropping to degree 1
    g.adj[8].discard(9)
    g.adj[9].discard(8)
    g.m_prime -= 1
    g.p2_bucket[0] -= 1
    g.p2_total -= 1
    del g.adj[9]
    with pytest.raises(RuntimeError):
        g.audit()
    g = build()  # a slot is duplicated
    arr = next(a for a in g.buckets if a)
    arr.append(arr[0])
    with pytest.raises(RuntimeError):
        g.audit()
    g = build()
    g.p2_bucket[0] += 1
    with pytest.raises(RuntimeError):
        g.audit()


def test_large_universe_short_block_stays_small():
    # ingest memory follows the block, not the universe
    import tracemalloc

    n = 2_000_000  # an O(n) table would take 16 MB
    g = SparsifiedGraph(n, ColoringFunction(4, 3))
    us = np.array([1, 2, n], dtype=np.uint64)
    vs = np.array([2, 3, 5], dtype=np.uint64)
    tracemalloc.start()
    g.apply_events(us, vs, np.ones(3, dtype=np.int64))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    g.audit()


def test_apply_events_rejects_malformed_blocks():
    # a self-loop, a sign other than +1 and -1, or arrays of different
    # lengths raise ValueError before any event of the block is applied
    for colors in (1, 3):
        g = SparsifiedGraph(12, ColoringFunction(5, colors))
        pairs = [(u, v) for u in range(1, 13) for v in range(u + 1, 13)
                 if g.coloring.monochromatic(u, v)]
        (a, b), (c, d) = pairs[:2]
        g.apply_events(*_block([(a, b, 1), (c, d, 1)]))
        before = copy.deepcopy(_state(g))
        blocks = [
            [(3, 3, 1)],
            [(a, b, -1), (4, 4, -1)],
            [(a, b, 0)],
            [(c, d, -1), (a, b, 2)],
            [(a, b, -2)],
        ]
        for triples in blocks:
            with pytest.raises(ValueError):
                g.apply_events(*_block(triples))
            assert _state(g) == before
        us, vs, signs = _block([(a, b, -1), (c, d, -1)])
        for cut in ((us[:1], vs, signs), (us, vs[:1], signs), (us, vs, signs[:1])):
            with pytest.raises(ValueError):
                g.apply_events(*cut)
            assert _state(g) == before
        for u, v, sign in ((3, 3, 1), (a, b, 0), (a, b, 2)):
            with pytest.raises(ValueError):
                g.apply(u, v, sign)
            assert _state(g) == before
        g.audit()


def test_block_failing_part_way_keeps_its_prefix():
    # event i of a block inserts a kept edge again, or deletes a kept pair
    # that is absent: events 0..i-1 stay applied, exactly as if fed alone
    for seed in range(6):
        n, colors = 30, 1 + seed % 3
        events = mixed_update_stream(n, 400, seed=seed)
        us, vs, signs = events_to_arrays(events)
        coloring = ColoringFunction(seed + 50, colors)
        for i in (0, 1, 137, 399):
            prefix = SparsifiedGraph(n, coloring)
            prefix.apply_events(us[:i], vs[:i], signs[:i])
            live = sorted((u, v) for u in prefix.adj for v in prefix.adj[u] if u < v)
            absent = next((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if coloring.monochromatic(u, v) and not prefix.has_edge(u, v))
            bad = [(absent, -1, InconsistentDeleteError, "not in the sparsified graph")]
            if live:
                bad.append((live[len(live) // 2], 1, DuplicateInsertError,
                            "already in the sparsified graph"))
            for (u, v), sign, kind, words in bad:
                g = SparsifiedGraph(n, coloring)
                block = (np.append(us[:i], u), np.append(vs[:i], v),
                         np.append(signs[:i], sign))
                with pytest.raises(kind) as info:
                    g.apply_events(*block)
                assert type(info.value) is kind
                assert str(info.value) == f"edge ({u}, {v}) {words}"
                g.audit()
                assert _state(g) == _state(prefix)
