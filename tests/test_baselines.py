import pytest

from tristream.baselines import DoulionCounter
from tristream.generators import complete_edges, edges_to_events, with_churn
from tristream.stream_core import EdgeEvent


def test_full_keep_probability_is_exact_under_churn():
    events, n = with_churn(complete_edges(6), num_decoys=20, seed=3)
    counter = DoulionCounter(n, 1.0)
    counter.update_many(events)
    assert counter.estimate() == 20.0  # C(6,3)
    assert counter.kept == 15


def test_insert_then_delete_nets_zero():
    counter = DoulionCounter(10, 1.0)
    counter.update(EdgeEvent(2, 7, 1))
    counter.update(EdgeEvent(2, 7, -1))
    assert counter.kept == 0
    assert counter.estimate() == 0.0


def test_same_seed_same_estimate():
    events = edges_to_events(complete_edges(8))
    runs = []
    for _ in range(2):
        counter = DoulionCounter(8, 0.6, seed=42)
        counter.update_many(events)
        runs.append(counter.estimate())
    assert runs[0] == runs[1]


def test_validation():
    with pytest.raises(ValueError):
        DoulionCounter(10, 0.0)
    with pytest.raises(ValueError):
        DoulionCounter(10, 1.5)
    with pytest.raises(ValueError):
        DoulionCounter(1, 0.5)


def test_rejects_a_keep_probability_the_hash_coin_cannot_realise():
    # below 2^-64 the coin's threshold p * 2^64 is 0 and p^3 may underflow
    for p in (1e-200, 2.0**-65):
        with pytest.raises(ValueError, match=r"must be in \[2\^-64, 1\]"):
            DoulionCounter(10, p)
    counter = DoulionCounter(10, 2.0**-64)
    counter.update_many(edges_to_events(complete_edges(3)))
    assert counter.estimate() == 0.0


def test_mean_estimate_is_close_on_complete_graph():
    events = edges_to_events(complete_edges(8))  # 56 triangles
    total = 0.0
    trials = 300
    for t in range(trials):
        counter = DoulionCounter(8, 0.5, seed=t)
        counter.update_many(events)
        total += counter.estimate()
    mean = total / trials
    assert abs(mean - 56.0) <= 0.15 * 56.0
