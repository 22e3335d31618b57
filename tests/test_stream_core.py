import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chunk_size, contract_outcome, small_streams
from tristream import stream_core
from tristream.generators import mixed_update_stream
from tristream.stream_core import (
    AdjacencyGraph,
    DeleteAbsentError,
    DuplicateInsertError,
    MAX_ID,
    EdgeEvent,
    LoopEdgeError,
    OutOfUniverseError,
    OverCapacityError,
    StreamConfig,
    StreamError,
    StreamFormatError,
    events_to_arrays,
    format_event,
    materialize,
    net_chunks,
    normalize_event,
    read_chunks,
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
    # edge keys u*(n+1) + v must fit in 64 bits
    assert StreamConfig(n=MAX_ID, m_max=5).n == 2**32 - 1
    with pytest.raises(ValueError, match="too large for 64-bit edge keys"):
        StreamConfig(n=MAX_ID + 1, m_max=5)


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
    assert us.dtype == vs.dtype == signs.dtype == np.int64
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
def test_net_chunks_agrees_with_materialize(case):
    n, m_max, events = case
    cfg = StreamConfig(n=n, m_max=m_max)
    graphs = []
    want = contract_outcome(lambda: graphs.append(materialize(events, cfg)))
    nets = []
    got = contract_outcome(lambda: nets.append(net_chunks([events_to_arrays(events)], cfg)))
    assert got == want
    if want is None:
        us, vs = nets[0]
        live = list(zip(us.tolist(), vs.tolist()))
        assert live == sorted(graphs[0].edges())


def test_net_chunks_reports_the_first_violation_of_any_kind():
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
            net_chunks([arrays], cfg)


def test_net_chunks_nets_churn_to_the_final_edges():
    cfg = StreamConfig(n=9, m_max=3)
    raw = [(1, 2, 1), (4, 5, 1), (1, 2, -1), (2, 9, 1), (1, 2, 1), (4, 5, -1)]
    us, vs = net_chunks([events_to_arrays([EdgeEvent(*t) for t in raw])], cfg)
    assert us.dtype == np.int64 and list(zip(us.tolist(), vs.tolist())) == [(1, 2), (2, 9)]
    us, vs = net_chunks([events_to_arrays([])], cfg)
    assert us.size == 0 and vs.size == 0


@settings(max_examples=300, deadline=None)
@given(small_streams(), st.integers(1, 4))
def test_net_chunks_agrees_with_one_chunk_at_every_chunk_size(case, size):
    n, m_max, events = case
    cfg = StreamConfig(n=n, m_max=m_max)
    us, vs, signs = events_to_arrays(events)
    chunks = [(us[i:i + size], vs[i:i + size], signs[i:i + size])
              for i in range(0, us.size, size)]
    whole, cut = [], []
    want = contract_outcome(lambda: whole.append(net_chunks([(us, vs, signs)], cfg)))
    assert contract_outcome(lambda: cut.append(net_chunks(chunks, cfg))) == want
    if want is None:
        assert all(np.array_equal(a, b) and b.dtype == np.int64 for a, b in zip(*whole, *cut))


def test_net_chunks_carries_the_live_set_across_chunks():
    cfg = StreamConfig(n=9, m_max=2)
    raw = [(1, 2, 1), (4, 5, 1), (1, 2, -1), (2, 9, 1), (1, 2, 1), (4, 5, -1)]
    arrays = events_to_arrays([EdgeEvent(*t) for t in raw])
    # (4, 5) is live when its delete arrives in the second chunk, and (1, 2)
    # comes back over capacity there: the third live edge at event 4
    chunks = [tuple(a[:3] for a in arrays), tuple(a[3:] for a in arrays)]
    with pytest.raises(OverCapacityError, match="^event 4: "):
        net_chunks(chunks, cfg)
    us, vs = net_chunks(chunks, StreamConfig(n=9, m_max=3))
    assert list(zip(us.tolist(), vs.tolist())) == [(1, 2), (2, 9)]
    with pytest.raises(DuplicateInsertError, match=r"^event 3: edge \(4, 5\) already live$"):
        net_chunks([tuple(a[:2] for a in arrays), events_to_arrays([EdgeEvent(4, 6, 1),
                                                                    EdgeEvent(4, 5, 1)])],
                   StreamConfig(n=9, m_max=5))

    def chunked(*chunks):
        return [events_to_arrays([EdgeEvent(*t) for t in raw]) for raw in chunks]

    # (1, 2) is deleted in the second chunk, so its delete in the third is absent
    with pytest.raises(DeleteAbsentError, match=r"^event 4: edge \(1, 2\) not live$"):
        net_chunks(chunked([(1, 2, 1), (4, 5, 1)], [(1, 2, -1)], [(4, 5, -1), (1, 2, -1)]),
                   StreamConfig(n=9, m_max=5))
    # (4, 5) is live before the second chunk, deleted and inserted again in it
    us, vs = net_chunks(chunked([(1, 2, 1), (4, 5, 1)], [(4, 5, -1), (2, 3, 1), (4, 5, 1)]),
                        StreamConfig(n=9, m_max=5))
    assert list(zip(us.tolist(), vs.tolist())) == [(1, 2), (2, 3), (4, 5)]


def _net_outcome(stream, cfg, size=None):
    """``materialize``'s outcome for ``stream``, checked against ``net_chunks`` in chunks of ``size``.

    ``size`` None nets the stream as one chunk.
    """
    graphs, nets = [], []
    want = contract_outcome(lambda: graphs.append(materialize(stream, cfg)))
    us, vs, signs = events_to_arrays(stream)
    size = size or max(us.size, 1)
    chunks = [(us[i:i + size], vs[i:i + size], signs[i:i + size]) for i in range(0, us.size, size)]
    assert contract_outcome(lambda: nets.append(net_chunks(chunks, cfg))) == want
    if want is None:
        assert list(zip(*(a.tolist() for a in nets[0]))) == sorted(graphs[0].edges())
    return want


def test_net_chunks_keeps_event_order_within_long_chunks():
    # thousands of events over 28 keys, so each key has many events per chunk
    events = mixed_update_stream(8, 4000, seed=5)
    cfg = StreamConfig(n=8, m_max=28)
    for flip in (None, 2101, 3999):  # an insert made a delete, a delete made an insert
        stream = list(events)
        if flip is not None:
            e = stream[flip]
            stream[flip] = EdgeEvent(e.u, e.v, -e.sign)
        _net_outcome(stream, cfg, 1500)


def _packed_limit(size):
    """The largest n whose edge keys pack with the slots of a ``size``-event chunk into 64 bits.

    ``net_chunks`` packs a chunk when ``((n+1)**2 - 1).bit_length() +
    size.bit_length() <= 64``, that is when (n+1)^2 <= 2^(64 - size.bit_length()).
    """
    return math.isqrt(2 ** (64 - size.bit_length())) - 1


def test_net_chunks_restores_event_order_among_equal_keys_beside_a_larger_live_set():
    # 2,500 edges go live in the first chunk; the second chunk holds 2,000
    # events on five keys, two of them carried live, so the live run is
    # longer than the chunk and each key's run of events is long
    rng = np.random.default_rng(18)
    pairs = rng.permutation([(a, b) for a in range(1, 121) for b in range(a + 1, 121)]).tolist()
    first = [(a, b, 1) for a, b in pairs[:2500]]
    carried, fresh = pairs[:2], pairs[2500:2503]
    live = set(map(tuple, carried))
    second = []
    for a, b in rng.choice(carried + fresh, size=2000).tolist():
        second.append((a, b, -1 if (a, b) in live else 1))
        live ^= {(a, b)}
    # numpy's default sort does not keep these ties in event order
    us, vs, _ = events_to_arrays([EdgeEvent(*t) for t in second])
    key = (us * 121 + vs).astype(np.uint64)  # the keys net_chunks sorts
    assert not np.array_equal(np.argsort(key), np.argsort(key, kind="stable"))
    # the same events over vertices 1..120, whose keys pack with their
    # slots, and moved to the top of the largest universe, whose keys do not
    for n in (120, MAX_ID):
        shift = n - 120
        stream = [EdgeEvent(a + shift, b + shift, sign) for a, b, sign in first + second]
        cfg = StreamConfig(n=n, m_max=2510)
        for size in (1, 2, 7, 2500, None):
            assert _net_outcome(stream, cfg, size) is None
        for a, b in (carried[0], fresh[0]):  # runs that open with a delete and with an insert
            a, b = a + shift, b + shift
            run = [i for i, e in enumerate(stream) if (e.u, e.v) == (a, b) and i >= 2500]
            for i in (run[0], run[len(run) // 2], run[-1]):
                flipped = list(stream)
                flipped[i] = EdgeEvent(a, b, -stream[i].sign)
                for size in (2500, None):
                    kind, message = _net_outcome(flipped, cfg, size)
                    assert kind in (DuplicateInsertError, DeleteAbsentError)
                    assert message.startswith(f"event {i}: ")


def test_net_chunks_at_the_largest_universe():
    # n = 2^32 - 1, the universe of the file commands without --n: keys
    # u*2^32 + v use all 64 bits.  Each chunk size also nets at the largest
    # universe whose keys pack with its slots into one word, and at the next
    # one up, whose keys are too wide for that.
    def cases(n):
        raw = [(n - 2, n - 1, 1), (n - 1, n, 1), (1, n, 1), (n - 2, n - 1, -1), (2, n - 1, 1),
               (1, n, -1), (n - 2, n - 1, 1)]
        stream = [EdgeEvent(*t) for t in raw]
        return [
            (stream, None),
            (stream[:4] + [EdgeEvent(n - 1, n, 1)],
             (DuplicateInsertError, f"event 4: edge ({n - 1}, {n}) already live")),
            (stream[:5] + [EdgeEvent(n - 2, n - 1, -1)],
             (DeleteAbsentError, f"event 5: edge ({n - 2}, {n - 1}) not live")),
            # malformed events while edges are live; in chunks of 1 or 2 each
            # opens its chunk, which then holds no well-formed event
            (stream[:2] + [EdgeEvent(n - 1, n + 1, 1)],
             (OutOfUniverseError, f"event 2: endpoint outside [1, {n}]: ({n - 1}, {n + 1})")),
            (stream[:4] + [EdgeEvent(3, 3, 1)], (LoopEdgeError, "event 4: self-loop at vertex 3")),
        ]

    for size in (1, 2, 7, None):  # None: each stream as one chunk, of at most 7 events
        limit = _packed_limit(size or 7)
        for n in (limit, limit + 1, MAX_ID):
            cfg = StreamConfig(n=n, m_max=3)
            for stream, want in cases(n):
                assert _net_outcome(stream, cfg, size) == want


def test_no_chunk_outlives_the_read_of_the_next():
    # Only the live keys carry over from one chunk to the next, so netting a
    # file holds one chunk's arrays at a time, not two.
    held = []

    def lines():
        for u in range(1, 10):
            assert all(ref() is None for ref in held), "an earlier chunk is still held"
            yield f"+ {u} {u + 1}\n"

    def watched(chunks):
        for chunk in chunks:
            held[:] = map(weakref.ref, chunk)
            yield chunk
            del chunk

    with chunk_size(2):
        us, vs = net_chunks(watched(read_chunks(lines())), StreamConfig(n=10, m_max=9))
    assert us.tolist() == list(range(1, 10)) and vs.tolist() == list(range(2, 11))


def test_net_chunks_refuses_a_chunk_its_event_positions_overflow():
    big = np.broadcast_to(np.uint64(1), (1 << 31,))  # a view, nothing allocated
    with pytest.raises(ValueError, match="chunk too large"):
        net_chunks([(big, big, big.view(np.int64))], StreamConfig(n=5, m_max=5))


def _read_outcome(text, n, reader):
    """The events a reader returns as (u, v, sign) tuples, or its error and line."""
    try:
        return reader(io.StringIO(text), n)
    except StreamError as err:
        return type(err), str(err), err.line


def _by_read_stream(f, n):
    return [(e.u, e.v, e.sign) for e in read_stream(f, n)]


def _by_read_chunks(f, n):
    out = []
    for us, vs, signs in read_chunks(f, n):
        assert us.dtype == vs.dtype == signs.dtype == np.int64
        assert 0 < us.size <= stream_core._CHUNK_EVENTS
        out += zip(us.tolist(), vs.tolist(), signs.tolist())
    return out


# lines that a blind "+" -> "1" rewrite, or a loose gate, would misread
GATE_HAZARDS = [
    "+3 7", "+ 3 7 9", "+  3 7", "+\t3 7", " + 3 7", "+ 3 7 ", "+ 3 7\r", "- -3 7",
    "+ 0 4", "+ 5 5", "+ 7 3", "+ 007 03", "+ 1 1234567890123456789",
    "+ 1 123456789012345678", "# n=5", "", "#", "  ", " # note", "+ 1 ٣", "* 1 2",
    "+ 1", "+ 1 2 # note", "+ 1 2+", "- 4 2-", "+ 1 -2", "++ 1 2",
]


@pytest.mark.parametrize("size", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize("n", [5, None])
def test_read_chunks_reads_gate_hazards_as_read_stream(size, n):
    cases = [f"+ 1 2\n{line}\n- 1 2\n+ 2 4" for line in GATE_HAZARDS]
    cases += ["# n=5\n+ 1 2\n\n# comment\n+ 2 3\n- 1 2\n", "+ 1 2\r\n+ 2 3\r\n", "+ 4 1",
              "\n\n# only comments\n", "", "+ 2 1\n+ 1 2\n"]
    with chunk_size(size):
        for text in cases:
            want = _read_outcome(text, n, _by_read_stream)
            assert _read_outcome(text, n, _by_read_chunks) == want, text


def test_read_chunks_parses_gen_output_without_the_line_reader(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("fell back to iter_stream")

    text = "# n=30\n" + "".join(f"{'+-'[i % 2]} {30 - i // 2} {i // 2 + 1}\n" for i in range(40))
    want = _by_read_stream(io.StringIO(text), 30)
    monkeypatch.setattr(stream_core, "iter_stream", fail)
    with chunk_size(7):
        assert _by_read_chunks(io.StringIO(text), 30) == want
        assert _by_read_chunks(io.StringIO(text.rstrip("\n")), 30) == want


def test_read_chunks_yields_the_events_before_a_bad_line_first():
    with chunk_size(4):
        chunks = read_chunks(io.StringIO("+ 1 2\n+ 2 3\n+ 3 4\n+ 4 5\n+ 1 2\n+ 1 1\n"), 5)
        assert next(chunks)[0].size == 4
        assert next(chunks)[0].tolist() == [1]
        with pytest.raises(LoopEdgeError, match="^line 6: ") as err:
            next(chunks)
    assert err.value.line == 6


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="+- 0129#\t\r", max_size=9), max_size=7),
       st.booleans(), st.sampled_from((3, None)), st.sampled_from((1, 2, 3, 1 << 16)))
def test_read_chunks_reads_any_text_as_read_stream(lines, final_newline, n, size):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    with chunk_size(size):
        assert _read_outcome(text, n, _by_read_chunks) == _read_outcome(text, n, _by_read_stream)
