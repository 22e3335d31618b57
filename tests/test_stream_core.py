import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contract_outcome, small_streams
from tristream.stream_core import (
    AdjacencyGraph,
    DeleteAbsentError,
    DuplicateInsertError,
    EdgeEvent,
    LoopEdgeError,
    OutOfUniverseError,
    OverCapacityError,
    StreamConfig,
    StreamFormatError,
    events_to_arrays,
    format_event,
    materialize,
    net_events,
    normalize_event,
    read_stream,
    write_stream,
)


def test_normalize_orders_endpoints():
    e = normalize_event(7, 3, 1)
    assert (e.u, e.v, e.sign) == (3, 7, 1)


def test_normalize_rejects_loops_and_universe():
    with pytest.raises(LoopEdgeError):
        normalize_event(4, 4, 1)
    with pytest.raises(OutOfUniverseError):
        normalize_event(0, 3, 1, n=10)
    with pytest.raises(OutOfUniverseError):
        normalize_event(2, 11, 1, n=10)
    with pytest.raises(StreamFormatError):
        normalize_event(1, 2, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(n=1, m_max=5)
    with pytest.raises(ValueError):
        StreamConfig(n=5, m_max=0)


def test_materialize_turnstile_rules():
    cfg = StreamConfig(n=5, m_max=10)
    g = materialize([EdgeEvent(1, 2, 1), EdgeEvent(1, 3, 1), EdgeEvent(1, 2, -1)], cfg)
    assert g.m == 1 and g.has_edge(1, 3) and not g.has_edge(1, 2)

    with pytest.raises(DuplicateInsertError, match="event 1"):
        materialize([EdgeEvent(1, 2, 1), EdgeEvent(1, 2, 1)], cfg)
    with pytest.raises(DeleteAbsentError):
        materialize([EdgeEvent(1, 2, -1)], cfg)
    with pytest.raises(StreamFormatError):
        materialize([EdgeEvent(3, 2, 1)], cfg)  # not normalized
    with pytest.raises(OverCapacityError):
        materialize([EdgeEvent(1, 2, 1), EdgeEvent(1, 3, 1)], StreamConfig(n=5, m_max=1))
    with pytest.raises(StreamFormatError, match="event 0: sign"):
        materialize([EdgeEvent(1, 2, 0)], cfg)


def test_adjacency_graph_degree_cleanup():
    g = AdjacencyGraph()
    g.insert(1, 2)
    g.insert(2, 3)
    g.delete(1, 2)
    assert g.degree(1) == 0 and 1 not in g.adj
    assert sorted(g.edges()) == [(2, 3)]


def test_read_stream_parses_comments_and_blanks():
    text = "# header\n\n+ 1 2\n- 1 2\n+ 2 3\n"
    events = read_stream(io.StringIO(text))
    assert events == [EdgeEvent(1, 2, 1), EdgeEvent(1, 2, -1), EdgeEvent(2, 3, 1)]


def test_read_stream_error_carries_line_number():
    with pytest.raises(StreamFormatError, match="line 2") as err:
        read_stream(io.StringIO("+ 1 2\n* 3 4\n"))
    assert err.value.line == 2
    with pytest.raises(LoopEdgeError, match="line 3") as err:
        read_stream(io.StringIO("+ 1 2\n\n+ 5 5\n"))
    assert err.value.line == 3
    with pytest.raises(StreamFormatError, match="integers"):
        read_stream(io.StringIO("+ a 2\n"))


event_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.sampled_from([1, -1]),
    ).filter(lambda t: t[0] != t[1]),
    max_size=60,
)


@given(event_lists)
def test_text_round_trip(raw):
    events = [normalize_event(u, v, s) for u, v, s in raw]
    buf = io.StringIO()
    write_stream(events, buf)
    assert read_stream(io.StringIO(buf.getvalue())) == events


def test_format_event():
    assert format_event(EdgeEvent(3, 9, 1)) == "+ 3 9"
    assert format_event(EdgeEvent(3, 9, -1)) == "- 3 9"


def test_events_to_arrays_shapes_and_passthrough():
    events = [EdgeEvent(1, 2, 1), EdgeEvent(2, 5, -1)]
    us, vs, signs = events_to_arrays(events)
    assert us.dtype == np.uint64 and vs.dtype == np.uint64 and signs.dtype == np.int64
    assert us.tolist() == [1, 2] and vs.tolist() == [2, 5] and signs.tolist() == [1, -1]
    again = events_to_arrays((us, vs, signs))
    assert again[0] is us and again[2] is signs

    empty = events_to_arrays([])
    assert all(a.size == 0 for a in empty)


def test_events_to_arrays_accepts_a_generator():
    events = [EdgeEvent(u, u + 1 + u % 3, 1 - 2 * (u % 2)) for u in range(1, 2_000, 2)]
    want = events_to_arrays(events)
    got = events_to_arrays(e for e in events)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
    assert events_to_arrays(iter(()))[0].size == 0


@settings(max_examples=300, deadline=None)
@given(small_streams())
def test_net_events_agrees_with_materialize(case):
    n, m_max, events = case
    cfg = StreamConfig(n=n, m_max=m_max)
    graphs = []
    want = contract_outcome(lambda: graphs.append(materialize(events, cfg)))
    nets = []
    got = contract_outcome(lambda: nets.append(net_events(*events_to_arrays(events), cfg)))
    assert got == want
    if want is None:
        us, vs = nets[0]
        live = list(zip(us.tolist(), vs.tolist()))
        assert live == sorted(graphs[0].edges())


def test_net_events_reports_the_first_violation_of_any_kind():
    cfg = StreamConfig(n=6, m_max=2)
    cases = [
        # a duplicate insert at 3 comes before the loop at 4
        ([(1, 2, 1), (2, 3, 1), (1, 2, -1), (2, 3, 1), (4, 4, 1)], DuplicateInsertError, 3),
        # over capacity at 2 comes before the absent delete at 3
        ([(1, 2, 1), (2, 3, 1), (3, 4, 1), (5, 6, -1)], OverCapacityError, 2),
        # an absent delete at 1 comes before the universe error at 2
        ([(1, 2, 1), (1, 3, -1), (1, 7, 1)], DeleteAbsentError, 1),
        ([(1, 2, 1), (3, 2, 1)], StreamFormatError, 1),
        ([(0, 2, 1)], OutOfUniverseError, 0),
        ([(1, 2, 1), (-1, 2, 1)], OutOfUniverseError, 1),
        ([(2, -1, 1)], StreamFormatError, 0),
        ([(-1, -1, 1)], LoopEdgeError, 0),
        ([(2, 3, 1), (1, 2, 2)], StreamFormatError, 1),
        ([(3, 3, -1)], LoopEdgeError, 0),
    ]
    for raw, kind, index in cases:
        arrays = events_to_arrays([EdgeEvent(*t) for t in raw])
        with pytest.raises(kind, match=f"^event {index}: "):
            net_events(*arrays, cfg)


def test_net_events_nets_churn_to_the_final_edges():
    cfg = StreamConfig(n=9, m_max=3)
    raw = [(1, 2, 1), (4, 5, 1), (1, 2, -1), (2, 9, 1), (1, 2, 1), (4, 5, -1)]
    us, vs = net_events(*events_to_arrays([EdgeEvent(*t) for t in raw]), cfg)
    assert us.dtype == np.uint64 and list(zip(us.tolist(), vs.tolist())) == [(1, 2), (2, 9)]
    us, vs = net_events(*events_to_arrays([]), cfg)
    assert us.size == 0 and vs.size == 0
