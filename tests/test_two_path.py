import random

import numpy as np

from conftest import adjacency
from tristream.generators import complete_edges, edges_to_events, with_churn
from tristream.oracles import exact_two_paths
from tristream.stream_core import EdgeEvent, events_to_arrays
from tristream.two_path import TwoPathEstimator


def test_streamed_equals_batched():
    events = edges_to_events(complete_edges(6)) + [EdgeEvent(1, 6, -1), EdgeEvent(2, 6, -1)]
    a = TwoPathEstimator(6, epsilon=1.0, delta=0.5, seed=2)
    for e in events:
        a.update(e)
    b = TwoPathEstimator(6, epsilon=1.0, delta=0.5, seed=2)
    b.update_many(events)
    assert np.array_equal(a.sketch.counters, b.sketch.counters)
    assert a.m_net == b.m_net == 13


def test_a_tuple_of_three_events_is_a_stream():
    events = [EdgeEvent(1, 2, 1), EdgeEvent(1, 3, 1), EdgeEvent(2, 3, 1)]
    a = TwoPathEstimator(3, epsilon=1.0, delta=0.5, seed=5)
    a.update_many(tuple(events))
    b = TwoPathEstimator(3, epsilon=1.0, delta=0.5, seed=5)
    b.update_many(events)
    assert np.array_equal(a.sketch.counters, b.sketch.counters)
    assert a.m_net == b.m_net == 3
    assert a.estimate() == b.estimate() == 3.0


def test_deletions_cancel_exactly():
    # churn stream ending in K5 must leave counters bit-equal to plain K5
    events, n = with_churn(complete_edges(6), 30, seed=8)
    events += [EdgeEvent(u, 6, -1) for u in range(1, 6)]
    dyn = TwoPathEstimator(n, epsilon=1.0, delta=0.5, seed=7)
    dyn.update_many(events)
    plain = TwoPathEstimator(n, epsilon=1.0, delta=0.5, seed=7)
    plain.update_many(edges_to_events(complete_edges(5)))
    assert np.array_equal(dyn.sketch.counters, plain.sketch.counters)
    assert dyn.m_net == plain.m_net == 10
    assert dyn.estimate() == plain.estimate()


def test_estimate_tracks_truth_loosely():
    edges = complete_edges(6)
    truth = exact_two_paths(adjacency(edges))
    hits = 0
    for seed in range(20):
        tp = TwoPathEstimator(6, epsilon=1.0, delta=0.5, seed=seed)
        tp.update_many(edges_to_events(edges))
        hits += abs(tp.estimate() - truth) <= 0.35 * truth
    assert hits >= 18


def test_merge_matches_single_pass():
    events = edges_to_events(complete_edges(7))
    random.Random(3).shuffle(events)
    whole = TwoPathEstimator(7, epsilon=1.0, delta=0.5, seed=4)
    whole.update_many(events)
    left = TwoPathEstimator(7, epsilon=1.0, delta=0.5, seed=4)
    right = TwoPathEstimator(7, epsilon=1.0, delta=0.5, seed=4)
    left.update_many(events[:10])
    right.update_many(events[10:])
    merged = left.merge(right)
    assert np.array_equal(merged.sketch.counters, whole.sketch.counters)
    assert merged.m_net == whole.m_net


def test_accepts_prebuilt_arrays():
    events = edges_to_events(complete_edges(5))
    a = TwoPathEstimator(5, epsilon=1.0, delta=0.5, seed=1)
    a.update_many(events)
    b = TwoPathEstimator(5, epsilon=1.0, delta=0.5, seed=1)
    b.update_many(events_to_arrays(events))
    assert np.array_equal(a.sketch.counters, b.sketch.counters)


def test_update_many_returns_its_sort_of_the_endpoints():
    # the distinct ids it sketched and each endpoint's index among them, us
    # first: the estimator numbers the live vertices with them
    events, n = with_churn(complete_edges(9), 40, seed=3)
    us, vs, _ = events_to_arrays(events)
    tp = TwoPathEstimator(n, epsilon=1.0, delta=0.5, seed=6)
    ids, index = tp.update_many(events)
    assert np.array_equal(ids, np.unique(np.concatenate([us, vs])))
    assert np.array_equal(ids[index], np.concatenate([us, vs]))
    plain = TwoPathEstimator(n, epsilon=1.0, delta=0.5, seed=6)
    for e in events:
        plain.update(e)
    assert np.array_equal(tp.sketch.counters, plain.sketch.counters)
    assert tp.m_net == plain.m_net == 36
    ids, index = TwoPathEstimator(5, epsilon=1.0, delta=0.5).update_many([])
    assert ids.size == index.size == 0
