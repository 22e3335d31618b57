"""Turnstile edge-stream primitives.

A stream is a sequence of signed edge events over vertices 1..n.  Inserting
an edge that is already live, or deleting one that is not, is a contract
violation and raises; multiplicities never leave {0, 1}.

Text format, one event per line::

    + 3 7
    - 3 7

Blank lines and lines starting with ``#`` are ignored.  ``read_chunks``
reads a text stream as array chunks; ``net_chunks`` checks the contract
chunk by chunk and keeps only the live edges, so a long stream is read and
checked in memory proportional to the live edges plus one chunk.
"""

from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Iterable, Iterator

import numpy as np

# Events per chunk: the lines per block that ``read_chunks`` reads, and the
# events per chunk that ``event_chunks`` cuts from an EdgeEvent iterator.
_CHUNK_EVENTS = 1 << 16

# The largest vertex id whose edge key u*(n+1) + v fits in 64 bits.
MAX_ID = 2**32 - 1


class StreamError(ValueError):
    """Base class for stream contract violations."""


class LoopEdgeError(StreamError):
    pass


class OutOfUniverseError(StreamError):
    pass


class DuplicateInsertError(StreamError):
    pass


class DeleteAbsentError(StreamError):
    pass


class OverCapacityError(StreamError):
    pass


class StreamFormatError(StreamError):
    pass


def _require_integer(x, name: str) -> None:
    """Raise ``ValueError`` unless ``x`` is an int or a numpy integer; a bool is not."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be integers, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """A signed edge update; endpoints are normalized so u < v.

    A float or bool field raises ``ValueError`` here, by ``int64_array``'s
    rule, so ``events_to_arrays`` and ``materialize`` only ever see integers.
    """

    u: int
    v: int
    sign: int

    def __post_init__(self):
        for x in (self.u, self.v, self.sign):
            _require_integer(x, "EdgeEvent fields")


@dataclass(frozen=True, slots=True)
class StreamConfig:
    """Universe size and live-edge capacity for a stream.

    The universe is at most ``MAX_ID``, so that every edge key fits in 64
    bits; a larger one raises ``ValueError``.
    """

    n: int
    m_max: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"universe must hold at least 2 vertices, got n={self.n}")
        if self.n > MAX_ID:
            raise ValueError(f"universe too large for 64-bit edge keys: n={self.n}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be positive, got {self.m_max}")


def normalize_event(u_raw: int, v_raw: int, sign: int, n: int | None = None) -> EdgeEvent:
    """Validate and canonicalize a raw event (endpoints sorted ascending)."""
    if sign not in (1, -1):
        raise StreamFormatError(f"sign must be +1 or -1, got {sign}")
    if u_raw == v_raw:
        raise LoopEdgeError(f"self-loop at vertex {u_raw}")
    if u_raw < 1 or v_raw < 1 or (n is not None and (u_raw > n or v_raw > n)):
        raise OutOfUniverseError(f"endpoint outside [1, {n}]: ({u_raw}, {v_raw})")
    if u_raw < v_raw:
        return EdgeEvent(u_raw, v_raw, sign)
    return EdgeEvent(v_raw, u_raw, sign)


class AdjacencyGraph:
    """Exact adjacency state (dict of neighbor sets); desk-scale reference."""

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.m = 0

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, v: int) -> int:
        nbrs = self.adj.get(v)
        return 0 if nbrs is None else len(nbrs)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def insert(self, u: int, v: int) -> None:
        if self.has_edge(u, v):
            raise DuplicateInsertError(f"edge ({u}, {v}) already live")
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.m += 1

    def delete(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise DeleteAbsentError(f"edge ({u}, {v}) not live")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        if not self.adj[u]:
            del self.adj[u]
        if not self.adj[v]:
            del self.adj[v]
        self.m -= 1


def apply_event(graph: AdjacencyGraph, e: EdgeEvent) -> AdjacencyGraph:
    """Apply one normalized event in place; returns the graph for chaining."""
    if e.sign == 1:
        graph.insert(e.u, e.v)
    else:
        graph.delete(e.u, e.v)
    return graph


def _malformed(u: int, v: int, sign: int, n: int) -> StreamError | None:
    """The first loop, normalization, sign or universe error of one event, if any."""
    if u == v:
        return LoopEdgeError(f"self-loop at vertex {u}")
    if u > v:
        return StreamFormatError(f"event not normalized: ({u}, {v})")
    if sign not in (1, -1):
        return StreamFormatError(f"sign must be +1 or -1, got {sign}")
    if u < 1 or v > n:
        return OutOfUniverseError(f"endpoint outside [1, {n}]: ({u}, {v})")
    return None


def materialize(events: Iterable[EdgeEvent], cfg: StreamConfig) -> AdjacencyGraph:
    """Fold a whole stream into an adjacency graph, enforcing the contract.

    Errors carry the 0-based index of the offending event.
    """
    g = AdjacencyGraph()
    for i, e in enumerate(events):
        try:
            err = _malformed(e.u, e.v, e.sign, cfg.n)
            if err is not None:
                raise err
            apply_event(g, e)
            if g.m > cfg.m_max:
                raise OverCapacityError(f"live edges exceed m_max={cfg.m_max}")
        except StreamError as err:
            raise type(err)(f"event {i}: {err}") from None
    return g


def net_chunks(chunks, cfg: StreamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Check a stream of event array chunks against the contract; return the final live edges.

    Array form of ``materialize``: it accepts and rejects the same streams
    with the same error, message and event index (counted over all chunks),
    and at one event it keeps the same precedence (loop, normalization and
    sign, universe, insert or delete, capacity).  Each chunk is a triple
    ``(us, vs, signs)`` in the form of ``events_to_arrays``, and only the
    sorted keys ``u*(n+1) + v`` of the live edges outlive it.  The keys fit
    in 64 bits because ``StreamConfig`` holds n to at most ``MAX_ID``.

    Each chunk is netted in one sorted run: the live keys, as inserts,
    followed by the chunk's keys, with each key's events in event order and
    an edge live before the chunk leading its run with +1.  An edge's
    multiplicity stays in {0, 1} exactly when its signs in the run alternate
    +1, -1, ... starting with +1, so a break in that pattern is a duplicate
    insert or a delete of an absent edge.  The edges live after the chunk
    are those whose last sign in the run is +1, already sorted.  The live
    count plus the running sum of the chunk's signs is checked against
    ``m_max``.  A chunk is checked whole before the next one is read, so the
    first violation in a chunk is the stream's first.

    The run is built one of two ways, chosen from n and the chunk's size
    alone; both give each entry's key and its slot, the event's position in
    the chunk plus 1, or 0 for a live key, and share everything after.

    - Packed, when a key and a slot fit in one 64-bit word together, that
      is when ``((n+1)**2 - 1).bit_length() + size.bit_length() <= 64``;
      at 65,536-event chunks, n below 2^23.5, about 1.19e7.  Each event is
      the word ``key << b | slot``, with ``b = size.bit_length()``, and each
      live key the word ``key << b``, whose slot 0 puts it first in its run.
      One value sort of the chunk's words, then a stable sort that merges
      them with the sorted live words in linear time, gives the run; a
      shift and a mask give back the key and the slot.
    - Wide, otherwise: any larger universe for the chunk's size, such as
      n = ``MAX_ID`` in the file commands ``exact``, ``doulion`` and
      ``verify-lemmas`` without ``--n``.  The chunk's keys take numpy's
      default sort, which may leave equal keys in any order; a second sort,
      of the distinct words ``(run << 32) | position``, puts each key's
      events back in event order.  A stable argsort then merges the two
      sorted runs, live keys first among equal keys.

    Either way a chunk must hold fewer than 2^31 events; a larger one raises
    ``ValueError``.  A chunk costs O(live + chunk log chunk).  Returns
    (us, vs) of the edges live at the end as int64 arrays, sorted by (u, v).
    """
    n = cfg.n
    base = np.uint64(n + 1)
    key_bits = ((n + 1) ** 2 - 1).bit_length()
    live = np.empty(0, dtype=np.uint64)
    start = 0  # stream index of the chunk's first event
    for us, vs, signs in chunks:
        size = us.size
        if not size:
            continue
        if size >= 1 << 31:
            raise ValueError(f"chunk too large to sort by event position: {size} events")
        malformed = (us == vs) | (us > vs) | (np.abs(signs) != 1) | (us < 1) | (vs > n)
        first_bad = int(np.argmax(malformed))
        k = first_bad if malformed[first_bad] else size
        del malformed
        # every event before k is well formed; the order checks run on those
        ps = signs[:k]
        held = live.size
        ck = np.multiply(us[:k], base, dtype=np.uint64, casting="unsafe")
        np.add(ck, vs[:k], out=ck, dtype=np.uint64, casting="unsafe")
        b = size.bit_length()
        if key_bits + b <= 64:
            shift = np.uint64(b)
            ck <<= shift
            ck |= np.arange(1, k + 1, dtype=np.uint64)
            ck.sort()
            words = np.concatenate((live << shift, ck))
            del ck
            words.sort(kind="stable")  # two sorted runs: one linear merge
            key = words >> shift
            slot = (words & np.uint64((1 << b) - 1)).view(np.int64)
            del words
        else:
            # The default sort may leave equal keys in any order; sorting the
            # words (run << 32) | position puts each run back in event order.
            pos = np.argsort(ck)
            ck = ck[pos]
            words = np.zeros(k, dtype=np.int64)
            np.cumsum(ck[1:] != ck[:-1], out=words[1:])
            words <<= 32
            words |= pos
            words.sort()
            key = np.concatenate((live, ck))
            slot = np.zeros(key.size, dtype=np.int64)
            np.bitwise_and(words, 0xFFFFFFFF, out=slot[held:])
            slot[held:] += 1
            del ck, pos, words
            # two sorted runs, which the stable sort merges with live keys leading ties
            order = np.argsort(key, kind="stable")
            key, slot = key[order], slot[order]
            del order
        # each entry inserts its key or deletes it; a live key counts as an insert
        ins = np.concatenate(((True,), ps == 1))[slot]
        same = key[1:] == key[:-1]
        # an entry breaks its run's alternation when it inserts after an
        # insert of its key, or deletes after a delete or at the run's head
        repeat = np.empty(key.size, dtype=bool)
        repeat[:1] = ~ins[:1]
        np.equal(ins[1:], same & ins[:-1], out=repeat[1:])
        # a live key leads its run with an insert, so every flagged slot is an event's
        first_repeat = int(slot[repeat].min()) - 1 if repeat.any() else size
        over = np.flatnonzero(np.cumsum(ps) > cfg.m_max - held)
        first_over = int(over[0]) if over.size else size

        i = min(first_repeat, first_over, k)
        if i < size:
            u, v, sign = int(us[i]), int(vs[i]), int(signs[i])
            if i == first_repeat and sign == 1:
                err = DuplicateInsertError(f"edge ({u}, {v}) already live")
            elif i == first_repeat:
                err = DeleteAbsentError(f"edge ({u}, {v}) not live")
            elif i == first_over:
                err = OverCapacityError(f"live edges exceed m_max={cfg.m_max}")
            else:  # event k, the first malformed one
                err = _malformed(u, v, sign, n)
            raise type(err)(f"event {start + i}: {err}")
        start += size

        # a key is live after the chunk iff its last event in the run inserts it
        last = np.ones(key.size, dtype=bool)
        last[:-1] = ~same
        live = key[last & ins]
        # only the live keys outlive the chunk: its arrays are freed before
        # the next chunk is read and parsed, not when the loop reassigns them
        del us, vs, signs, ps, key, slot, ins, same, repeat, last
    us, vs = np.empty((2, live.size), dtype=np.int64)
    np.divmod(live, base, out=(us, vs), casting="unsafe")
    return us, vs


# ---------------------------------------------------------------------------
# text format


def _line_error(kind: type[StreamError], lineno: int, message: str) -> StreamError:
    err = kind(f"line {lineno}: {message}")
    err.line = lineno  # structured position for machine-readable error output
    return err


def iter_stream(
    f: IO[str] | Iterable[str], n: int | None = None, start: int = 1
) -> Iterator[tuple[int, EdgeEvent]]:
    """Yield (line_number, event) pairs from a text stream whose first line is ``start``."""
    for lineno, line in enumerate(f, start=start):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise _line_error(StreamFormatError, lineno, f"expected '{{+|-}} u v', got {stripped!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise _line_error(StreamFormatError, lineno, "endpoints must be integers") from None
        sign = 1 if parts[0] == "+" else -1
        try:
            yield lineno, normalize_event(u, v, sign, n)
        except StreamError as err:
            raise _line_error(type(err), lineno, str(err)) from None


def read_stream(f: IO[str], n: int | None = None) -> list[EdgeEvent]:
    return [e for _, e in iter_stream(f, n)]


def _parse_block(text: str, n: int | None):
    """The events of a block of whole lines as (us, vs, signs), or None.

    None when a line fails the strict gate, or when an event is a loop or
    has an endpoint outside [1, n] (n None: no upper bound).  The gate
    passes comment lines (first character ``#``), empty lines, and event
    lines that are exactly a ``+`` or ``-``, one space, 1 to 18 ASCII
    digits, one space, 1 to 18 digits; ``iter_stream`` reads every such
    line the same way.  Whatever else ``iter_stream`` accepts (other
    whitespace, a sign glued to a number, longer numbers) is left to it.
    """
    if not text.endswith("\n"):
        text += "\n"
    # non-ASCII characters encode to bytes >= 0x80, which no event line holds
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    head = buf[starts]
    skip = (head == ord("#")) | (head == 10)
    if skip.any():
        buf = buf[np.repeat(~skip, ends - starts + 1)]
        ends = np.flatnonzero(buf == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
        head = buf[starts]
    # Two spaces per line, the first right after the sign and the second
    # before the newline; then exactly the sign, the spaces and the newline
    # are not digits.
    spaces = np.flatnonzero(buf == 32)
    if spaces.size != 2 * ends.size:
        return None
    first, second = spaces[0::2], spaces[1::2]
    len_u, len_v = second - first - 1, ends - second - 1
    if not (
        ((head == ord("+")) | (head == ord("-"))).all()
        and (first == starts + 1).all()
        and ((len_u >= 1) & (len_u <= 18) & (len_v >= 1) & (len_v <= 18)).all()
        and np.count_nonzero((buf - ord("0")) > 9) == 4 * ends.size
    ):
        return None
    signs = np.where(head == ord("+"), 1, -1)
    digits = buf.copy()
    digits[starts] = 32
    uv = np.fromstring(digits.tobytes(), dtype=np.int64, sep=" ").reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if (lo == hi).any() or (lo < 1).any() or (n is not None and (hi > n).any()):
        return None
    return lo, hi, signs


def read_chunks(
    f: IO[str], n: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read a text stream as ``(us, vs, signs)`` chunks of at most ``_CHUNK_EVENTS`` events.

    The events, errors, messages and line numbers are those of
    ``iter_stream``.  Lines are read in blocks of ``_CHUNK_EVENTS``, and a
    block that ``_parse_block`` reads is parsed in one numpy pass.  Any other
    block is read again by ``iter_stream`` from its first line number; if it
    raises, the events before the bad line come as a chunk first, so that a
    consumer that checks each chunk before asking for the next meets
    violations in file order.  Endpoints are normalized (u < v) and int64,
    as ``events_to_arrays`` gives them; chunks are never empty.
    """
    lineno = 1
    while lines := list(islice(f, _CHUNK_EVENTS)):
        count = len(lines)
        chunk = _parse_block("".join(lines), n)
        if chunk is None:
            events = []
            try:
                for _, e in iter_stream(lines, n, start=lineno):
                    events.append(e)
            except StreamError:
                if events:
                    yield events_to_arrays(events)
                raise
            chunk = events_to_arrays(events)
            del events
        # the block's lines are dropped before the consumer works on the chunk
        del lines
        if chunk[0].size:
            yield chunk
        del chunk  # and the chunk before the next block is read
        lineno += count


def format_event(e: EdgeEvent) -> str:
    return f"{'+' if e.sign == 1 else '-'} {e.u} {e.v}"


def write_stream(events: Iterable[EdgeEvent], f: IO[str]) -> None:
    for e in events:
        f.write(format_event(e) + "\n")


def event_chunks(events) -> Iterator:
    """A stream cut into the chunks that ``events_to_arrays`` converts, in order.

    A stream with a length (a list or tuple of EdgeEvent, or an array
    triple) is one chunk.  Any other iterable is read as it goes: EdgeEvents
    in lists of at most ``_CHUNK_EVENTS``, and any other items, such as the
    chunks of ``read_chunks``, one chunk each.
    """
    if hasattr(events, "__len__"):
        yield events
        return
    it = iter(events)
    head = next(it, None)
    if head is None:
        return
    it = chain((head,), it)
    if isinstance(head, EdgeEvent):
        while batch := list(islice(it, _CHUNK_EVENTS)):
            yield batch
    else:
        yield from it


def int64_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; anything but integers is refused.

    An array must have an integer dtype (an empty one may have any), and a
    uint64 value of 2^63 or more raises ``OverflowError``; an int64 array
    passes through.  Any other sequence is read element by element, never
    through the dtype numpy would infer for it (float64 for ``[2**63, 1]``):
    a float or bool element raises ``ValueError``, and an integer outside
    the int64 range raises ``OverflowError``.
    """
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
        if values.dtype == np.uint64 and values.size and values.max() >= 2**63:
            raise OverflowError(f"{name} holds {values.max()}, outside the int64 range")
        return np.ascontiguousarray(values, dtype=np.int64)
    for x in values:
        _require_integer(x, name)
    return np.array(values, dtype=np.int64)


def events_to_arrays(events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical array form (u, v, sign) used by the batched ingest paths.

    Accepts any iterable of EdgeEvent, generators included, or an
    ``(us, vs, signs)`` triple of arrays or lists; int64 arrays pass through.
    A tuple of three EdgeEvents is three events, not a triple.  Every field
    is read as int64, so an id outside the int64 range raises
    ``OverflowError`` in every input form.  A triple goes through
    ``int64_array``, so a float or bool field raises ``ValueError``, as do
    fields of unequal lengths; an ``EdgeEvent`` refuses such a field when it
    is built, so none reaches this function.
    """
    if isinstance(events, tuple) and len(events) == 3 and not isinstance(events[0], EdgeEvent):
        triple = tuple(map(int64_array, events, ("us", "vs", "signs")))
        if not triple[0].shape == triple[1].shape == triple[2].shape:
            raise ValueError(
                f"us, vs and signs must have equal lengths, got {[a.size for a in triple]}"
            )
        return triple
    if not hasattr(events, "__len__"):
        events = list(events)
    us = np.fromiter((e.u for e in events), dtype=np.int64, count=len(events))
    vs = np.fromiter((e.v for e in events), dtype=np.int64, count=len(events))
    ss = np.fromiter((e.sign for e in events), dtype=np.int64, count=len(events))
    return us, vs, ss
