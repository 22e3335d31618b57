import random

import pytest

from conftest import adj_dict, adjacency, random_graph_edges
from tristream.generators import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    path_edges,
    star_edges,
)
from tristream.indep_paths import (
    BudgetExceededError,
    HasIsolatedEdgesError,
    NotConnectedError,
    csr_from_adj,
    enumerate_two_paths,
    greedy_independent_count,
    max_independent_two_paths,
    spanning_tree_two_paths,
    verify_lower_bounds,
)


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
