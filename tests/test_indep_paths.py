import heapq
import random
import time
from collections import deque

import numpy as np
import pytest

from conftest import adj_dict, adjacency, random_graph_edges
from tristream import estimator
from tristream.cli import main
from tristream.estimator import NoQualifiedCopiesError, derive_config, estimate_triangles
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
from tristream.stream_core import write_stream


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


def test_greedy_matches_reference_on_estimator_copies(monkeypatch):
    verdicts = []

    def checked(indptr, indices, target=None):
        for t in _TARGETS + (target,):
            assert greedy_independent_count(indptr, indices, t) == _reference_greedy(indptr, indices, t)
        count = greedy_independent_count(indptr, indices, target)
        verdicts.append(count >= target)
        return count

    monkeypatch.setattr(estimator, "greedy_independent_count", checked)
    for seed in range(6):
        events, n = with_churn(gnp_edges(40, 0.3, seed=seed), 30, seed=seed, n_base=40)
        cfg = derive_config(n=n, m_max=len(events), k_override=8, s_override=3 + 4 * seed,
                            colors_override=2 + seed % 3, seed=seed)
        try:
            estimate_triangles(events, cfg)
        except NoQualifiedCopiesError:
            pass
    assert len(verdicts) == 48 and True in verdicts and False in verdicts


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


def _reference_spanning_tree(adj):
    """Reference construction: rebuilds ``children[v] - {u}`` and takes its
    min every round, which is quadratic at a hub."""
    root = min(adj)
    parent = {root: 0}
    depth = {root: 0}
    children = {v: set() for v in adj}
    order = deque([root])
    while order:
        x = order.popleft()
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                parent[y] = x
                children[x].add(y)
                order.append(y)
    alive = set(adj)
    heap = [(-depth[v], v) for v in adj if not children[v]]
    heapq.heapify(heap)
    paths = []
    while len(alive) >= 3 and heap:
        _, u = heapq.heappop(heap)
        if u not in alive or children[u] or u == root:
            continue
        v = parent[u]
        siblings = children[v] - {u}
        if siblings:
            w = min(siblings)
            paths.append((min(u, w), v, max(u, w)))
            alive.discard(u)
            alive.discard(w)
            children[v] -= {u, w}
            if not children[v]:
                heapq.heappush(heap, (-depth[v], v))
        else:
            if v == root:
                break
            w = parent[v]
            a, b = sorted((u, w))
            paths.append((a, v, b))
            alive.discard(u)
            alive.discard(v)
            children[w].discard(v)
            if not children[w]:
                heapq.heappush(heap, (-depth[w], w))
    return paths


def test_spanning_tree_matches_reference():
    rng = random.Random(17)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 60)
        # a random tree keeps the graph connected; extra edges, often to a
        # few hubs, vary the BFS tree and its sibling groups
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        hubs = rng.sample(range(1, n + 1), min(n, 3))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.choice(hubs), rng.randint(1, n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        adj = adj_dict(sorted(edges))
        assert spanning_tree_two_paths(adj) == _reference_spanning_tree(adj)
        checked += 1


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
