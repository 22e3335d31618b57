import pytest
from hypothesis import given, settings

from conftest import contract_outcome, small_streams
from tristream.baselines import DoulionCounter
from tristream.generators import complete_edges, edges_to_events, with_churn
from tristream.stream_core import EdgeEvent, LoopEdgeError, StreamConfig, materialize


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


def test_malformed_events_raise_before_the_coin():
    # the loop, the out-of-universe edge and the reversed pair each raise,
    # whether or not the coin would keep them
    stream = [EdgeEvent(3, 3, 1), EdgeEvent(0, 9, 1), EdgeEvent(4, 2, 1), EdgeEvent(2, 4, 1)]
    with pytest.raises(LoopEdgeError, match=r"^event 0: self-loop at vertex 3$"):
        DoulionCounter(5, 1.0).update_many(stream)
    for p in (1.0, 2.0**-64):
        for i, e in enumerate(stream[:3]):
            counter = DoulionCounter(5, p)
            outcome = contract_outcome(lambda: counter.update_many([EdgeEvent(1, 2, 1), e]))
            assert outcome == contract_outcome(
                lambda: materialize([EdgeEvent(1, 2, 1), e], StreamConfig(n=5, m_max=5)))
            assert outcome[1].startswith("event 1: ")


@settings(max_examples=200, deadline=None)
@given(small_streams())
def test_full_keep_probability_rejects_what_materialize_rejects(case):
    n, _, events = case
    cfg = StreamConfig(n=n, m_max=len(events) + 1)
    want = contract_outcome(lambda: materialize(events, cfg))
    assert contract_outcome(lambda: DoulionCounter(n, 1.0).update_many(events)) == want
