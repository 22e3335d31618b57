import random
import time

import numpy as np
import pytest

from conftest import adj_dict, adjacency, random_graph_edges
from tristream import estimator
from tristream.cli import main
from tristream.estimator import (
    NoQualifiedCopiesError,
    _CopyGraph,
    _verdict_from_degrees,
    derive_config,
    estimate_triangles,
)
from tristream.generators import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    edges_to_events,
    gnp_edges,
    path_edges,
    star_edges,
    with_churn,
)
from tristream.hashing import mix2
from tristream.indep_paths import (
    BudgetExceededError,
    HasIsolatedEdgesError,
    NotConnectedError,
    _assert_independent,
    csr_from_adj,
    enumerate_two_paths,
    greedy_independent_count,
    max_independent_two_paths,
    spanning_tree_two_paths,
    verify_lower_bounds,
)
from tristream.sparsifier import ColoringFunction
from tristream.stream_core import StreamConfig, materialize, write_stream


def test_enumerate_counts_match_degree_formula():
    adj = adj_dict(complete_edges(5))
    assert len(enumerate_two_paths(adj)) == 5 * 6  # 5 centers, C(4,2) each
    adj = adj_dict(star_edges(7))
    assert len(enumerate_two_paths(adj)) == 15


def _greedy(edges, target=None):
    return greedy_independent_count(*csr_from_adj(adj_dict(edges)), target)


def test_greedy_frozen_examples():
    assert _greedy(complete_edges(3), 5) == 1
    assert _greedy(path_edges(5), 5) == 2
    assert _greedy(star_edges(7), 2) == 2  # K_{1,6}, early exit
    assert _greedy(star_edges(7)) == 3  # (2,3) (4,5) (6,7)


def _reference_greedy(indptr, indices, target=None):
    """Reference greedy on a vertex -> selected-path incidence map: a
    candidate is kept iff no selected path id turns up at two of its vertices."""
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    selected_at: dict[int, list[int]] = {}
    count = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2).tolist():
        ordered = indices[indptr[v]:indptr[v + 1]].tolist()
        for i in range(len(ordered) - 1):
            u = ordered[i]
            for j in range(i + 1, len(ordered)):
                w = ordered[j]
                ids = list(selected_at.get(u, ()))
                ids.extend(selected_at.get(v, ()))
                ids.extend(selected_at.get(w, ()))
                if len(ids) != len(set(ids)):
                    continue
                for x in (u, v, w):
                    selected_at.setdefault(x, []).append(count)
                count += 1
                if target is not None and count >= target:
                    return count
    return count


_TARGETS = (None, 1, 3, 7, 20, 200)


def test_greedy_matches_incidence_list_reference():
    rng = random.Random(2024)
    for _ in range(320):
        csr = csr_from_adj(adj_dict(random_graph_edges(rng, n_max=40)[0]))
        for target in _TARGETS:
            assert greedy_independent_count(*csr, target) == _reference_greedy(*csr, target)


def _kept_copies(events, cfg):
    """Each several-color copy of an estimate, built from its own kept edges:
    the final graph renumbered 0..V-1 in id order, colored by the copy's seed."""
    graph = materialize(events, StreamConfig(n=cfg.n, m_max=cfg.m_max))
    a, b = (np.array(x, dtype=np.uint64) for x in zip(*sorted(graph.edges())))
    vertices = np.unique(np.concatenate([a, b]))
    a, b = vertices.searchsorted(a), vertices.searchsorted(b)
    for copy in range(cfg.k):
        colors = ColoringFunction(mix2(cfg.seed, copy), cfg.colors).colors_of(vertices)
        keep = colors[a] == colors[b]
        yield _CopyGraph.from_edges(a[keep], b[keep], vertices.size)


def test_greedy_matches_reference_on_estimator_copies(monkeypatch):
    verdicts = []
    copies = iter(())

    def checked(indptr, indices, target=None):
        # the greedy gets the copy's own CSR, so it visits only the copy's
        # centers; only the copies the degree bounds leave open reach it
        want = next(copies)
        assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
        for t in _TARGETS + (target,):
            assert greedy_independent_count(indptr, indices, t) == _reference_greedy(indptr, indices, t)
        count = greedy_independent_count(indptr, indices, target)
        verdicts.append(count >= target)
        return count

    monkeypatch.setattr(estimator, "greedy_independent_count", checked)
    greedy_calls = 0
    for seed in range(6):
        events, n = with_churn(gnp_edges(40, 0.3, seed=seed), 30, seed=seed, n_base=40)
        cfg = derive_config(n=n, m_max=len(events), k_override=8, s_override=3 + 4 * seed,
                            colors_override=2 + seed % 3, seed=seed)
        open_copies = []
        for copy in _kept_copies(events, cfg):
            verdict = _verdict_from_degrees(copy.m_prime, copy.p2_total,
                                            int(copy.degrees.max(initial=0)), cfg.s)
            if verdict is None:
                open_copies.append(copy)
            else:
                count = greedy_independent_count(copy.indptr, copy.indices, cfg.s)
                assert verdict == (count >= cfg.s)
                verdicts.append(verdict)
        decided = len(verdicts)
        copies = iter(open_copies)
        try:
            estimate_triangles(events, cfg)
        except NoQualifiedCopiesError:
            pass
        assert next(copies, None) is None
        assert len(verdicts) == decided + len(open_copies)
        greedy_calls += len(open_copies)
    assert len(verdicts) == 48 and True in verdicts and False in verdicts
    assert 0 < greedy_calls < 48


def _bound_cases():
    """Graphs as edge lists: G(n, p) with n <= 30, stars, matchings, a lone
    triangle, disjoint small clusters, and graphs with no edge at all."""
    rng = random.Random(31)
    yield []
    yield [(1, 2), (1, 3), (2, 3)]
    for d in range(1, 13):
        yield star_edges(d + 1)
    for k in (1, 2, 5, 12):
        yield [(u, u + 1) for u in range(1, 2 * k, 2)]
    for _ in range(10):
        edges, base = [], 0
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(2, 6)
            edges += [(base + u, base + v) for u, v in complete_edges(size) if rng.random() < 0.8]
            base += size
        yield edges
    for _ in range(150):
        n = rng.randint(2, 30)
        yield gnp_edges(n, rng.uniform(0.02, 0.9), seed=rng.randrange(2**31))


def test_degree_bounds_give_the_greedy_verdict_whenever_they_decide():
    # a bound that decides must agree with the greedy for every s from 1 to
    # its count + 2; each of the two bounds decides some of these cases
    decided = {False: 0, True: 0}
    seen = set()
    for edges in _bound_cases():
        indptr, indices = csr_from_adj(adj_dict(edges))
        d = np.diff(indptr)
        m, p2, dmax = indices.size // 2, int((d * (d - 1) // 2).sum()), int(d.max(initial=0))
        cases = (("m=0", m == 0), ("p2=0", p2 == 0), ("dmax=1", dmax == 1))
        seen.update(name for name, hit in cases if hit)
        for s in range(1, greedy_independent_count(indptr, indices) + 3):
            verdict = _verdict_from_degrees(m, p2, dmax, s)
            if verdict is not None:
                assert verdict == (greedy_independent_count(indptr, indices, s) >= s), (edges, s)
                decided[verdict] += 1
    assert decided[False] and decided[True]
    assert seen == {"m=0", "p2=0", "dmax=1"}


def test_assert_independent_is_one_path_per_vertex_pair():
    with pytest.raises(RuntimeError, match=r"paths \(0, 1\) share two vertices"):
        _assert_independent([(1, 2, 3), (1, 3, 4)])
    _assert_independent([(1, 2, 3), (3, 4, 5), (1, 6, 5)])  # each pair shares one vertex


def test_hub_star_is_fast(tmp_path, capsys):
    edges = star_edges(2001)  # K_{1,2000}
    start = time.perf_counter()
    rep = verify_lower_bounds(adj_dict(edges))
    elapsed = time.perf_counter() - start
    assert rep.greedy_count == 1000
    assert elapsed < 5.0, f"verify_lower_bounds took {elapsed:.2f}s on K_1,2000"

    path = tmp_path / "star.txt"
    with open(path, "w") as f:
        write_stream(edges_to_events(edges), f)
    assert main(["verify-lemmas", str(path)]) == 0
    capsys.readouterr()


def test_exact_small_cases():
    assert max_independent_two_paths(adj_dict(complete_edges(3))) == 1
    # K4: every 2-path uses 3 of the 4 vertices, so any two share at least
    # two vertices and the maximum independent set has size 1
    assert max_independent_two_paths(adj_dict(complete_edges(4))) == 1
    assert max_independent_two_paths(adj_dict(star_edges(5))) == 2
    assert max_independent_two_paths(adj_dict(path_edges(5))) == 2
    assert max_independent_two_paths(adj_dict(cycle_edges(5))) == 2


def test_exact_budget():
    with pytest.raises(BudgetExceededError):
        max_independent_two_paths(adj_dict(complete_edges(6)))  # 60 two-paths


def test_greedy_never_beats_exact():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        edges, _ = random_graph_edges(rng, n_max=7)
        if not edges:
            continue
        adj = adj_dict(edges)
        if len(enumerate_two_paths(adj)) > 24:
            continue
        assert _greedy(edges) <= max_independent_two_paths(adj)
        checked += 1


def test_spanning_tree_witness_meets_floor():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(3, 40)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        paths = spanning_tree_two_paths(adj_dict(edges))
        assert len(paths) >= (n + 1) // 2 - 1
        adj = adj_dict(edges)
        for u, c, w in paths:
            assert c in adj[u] and c in adj[w]


def _spans(edges, n):
    """Whether the edges connect all of the vertices 1..n."""
    adj = adj_dict(edges)
    seen, todo = set(), [1]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(adj.get(x, ()))
    return len(seen) == n


def _connected_fixture(rng):
    """A random connected graph on 2 to 40 vertices with random distinct ids:
    a tree, a connected gnp draw, a star, a path or a clique."""
    n = rng.randint(2, 40)
    family = rng.choice(("tree", "gnp", "star", "path", "clique"))
    if family == "tree":
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    elif family == "gnp":
        edges = []
        while not _spans(edges, n):
            edges = gnp_edges(n, rng.uniform(0.1, 0.6), seed=rng.randrange(2**32))
    elif family == "star":
        edges = star_edges(n)
    elif family == "path":
        edges = path_edges(n)
    else:
        edges = complete_edges(min(n, 15))
    ids = rng.sample(range(1, 10**6), n)
    return adj_dict([(ids[u - 1], ids[v - 1]) for u, v in edges])


def test_spanning_tree_witness_is_independent_and_exact():
    rng = random.Random(17)
    for _ in range(1200):
        adj = _connected_fixture(rng)
        paths = spanning_tree_two_paths(adj)
        assert len(paths) == (len(adj) - 1) // 2
        seen = set()
        for u, c, w in paths:
            assert u < w and c in adj[u] and c in adj[w]
            for pair in ({u, c}, {c, w}, {u, w}):
                assert frozenset(pair) not in seen
                seen.add(frozenset(pair))


def test_spanning_tree_frozen_examples():
    # the BFS tree of a path is the path: pairs from the far end up
    assert spanning_tree_two_paths(adj_dict(path_edges(7))) == [(5, 6, 7), (3, 4, 5), (1, 2, 3)]
    # K_{1,6}: the hub pairs its leaves, deepest BFS order first
    assert spanning_tree_two_paths(adj_dict(star_edges(7))) == [(6, 1, 7), (4, 1, 5), (2, 1, 3)]
    # 7's lone child 10 goes up to 3; 5 pairs 8 and 9 and then joins 2
    tree = [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (5, 8), (5, 9), (7, 10)]
    assert spanning_tree_two_paths(adj_dict(tree)) == [(3, 7, 10), (8, 5, 9), (5, 2, 6), (3, 1, 4)]


def test_spanning_tree_does_not_depend_on_insertion_order():
    rng = random.Random(23)
    reordered = 0
    for _ in range(20):
        # a random tree over 400 ids plus sparse extra edges: neighbor sets of
        # ids this large iterate in an order that follows insertion
        edges = {(rng.randint(1, v - 1), v) for v in range(2, 401)}
        edges.update(gnp_edges(400, 0.02, seed=rng.randrange(2**32)))
        ordered = adj_dict(sorted(edges))
        shuffled_edges = list(edges)
        rng.shuffle(shuffled_edges)
        shuffled = adj_dict(shuffled_edges)
        assert ordered == shuffled
        reordered += any(list(ordered[x]) != list(shuffled[x]) for x in ordered)
        assert spanning_tree_two_paths(shuffled) == spanning_tree_two_paths(ordered)
    assert reordered == 20


def test_spanning_tree_is_fast_at_a_hub():
    adj = adj_dict(star_edges(16_001))  # K_{1,16000}
    start = time.perf_counter()
    paths = spanning_tree_two_paths(adj)
    elapsed = time.perf_counter() - start
    assert len(paths) == 8_000
    assert elapsed < 0.5, f"spanning_tree_two_paths took {elapsed:.2f}s on K_1,16000"


def test_spanning_tree_witness_on_cliques_and_cycles():
    assert len(spanning_tree_two_paths(adj_dict(complete_edges(8)))) >= 3
    assert len(spanning_tree_two_paths(adj_dict(cycle_edges(9)))) >= 4


def test_verify_requires_connected_no_isolated_edges():
    with pytest.raises(NotConnectedError):
        verify_lower_bounds(adj_dict([(1, 2), (2, 3), (5, 6)]))
    # connectivity is checked first, so only K2 itself can trip this one
    with pytest.raises(HasIsolatedEdgesError):
        verify_lower_bounds(adj_dict([(1, 2)]))
    with pytest.raises(NotConnectedError):
        verify_lower_bounds({})


def test_verify_flags_on_standard_fixtures():
    rep = verify_lower_bounds(adj_dict(complete_bipartite_edges(3, 3)))
    assert rep.m == 9 and rep.bound_bipartite == 1
    assert rep.connected_ok and rep.general_ok and rep.bipartite_ok

    rep = verify_lower_bounds(adj_dict(complete_edges(10)))
    assert rep.bound_general == 2 and rep.general_ok
    assert rep.bipartite_ok is None  # odd cycles everywhere

    rep = verify_lower_bounds(adj_dict(path_edges(10)))
    assert rep.bound_connected == 4 and rep.connected_ok
    assert rep.tree_witness >= 4

    rep = verify_lower_bounds(adj_dict(cycle_edges(9)))
    assert rep.bound_bipartite is None and rep.bipartite_ok is None  # odd cycle
    assert rep.tree_witness == 4 and rep.connected_ok

    rep = verify_lower_bounds(adj_dict(cycle_edges(10)))
    assert rep.bound_bipartite == 1 and rep.bipartite_ok
    assert rep.tree_witness == 4 and rep.connected_ok

    rep = verify_lower_bounds(adj_dict(star_edges(12)))  # K_{1,11}
    assert rep.bound_bipartite == 1 and rep.bipartite_ok
    assert rep.tree_witness == 5 and rep.connected_ok


def test_verify_random_connected_graphs():
    rng = random.Random(77)
    done = 0
    while done < 80:
        edges, _ = random_graph_edges(rng, n_max=25)
        if not edges:
            continue
        try:
            rep = verify_lower_bounds(adj_dict(edges))
        except (NotConnectedError, HasIsolatedEdgesError):
            continue
        assert rep.connected_ok and rep.general_ok
        assert rep.bipartite_ok is not False
        done += 1
