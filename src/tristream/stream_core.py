"""Turnstile edge-stream primitives.

A stream is a sequence of signed edge events over vertices 1..n.  Inserting
an edge that is already live, or deleting one that is not, is a contract
violation and raises; multiplicities never leave {0, 1}.

Text format, one event per line::

    + 3 7
    - 3 7

Blank lines and lines starting with ``#`` are ignored.
"""

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np


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


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """A signed edge update; endpoints are normalized so u < v."""

    u: int
    v: int
    sign: int


@dataclass(frozen=True, slots=True)
class StreamConfig:
    """Universe size and live-edge capacity for a stream."""

    n: int
    m_max: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"universe must hold at least 2 vertices, got n={self.n}")
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


def net_events(
    us: np.ndarray, vs: np.ndarray, signs: np.ndarray, cfg: StreamConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Check a whole event array against the contract; return the final live edges.

    Array form of ``materialize``: it accepts and rejects the same streams
    with the same error, message and event index, and at one event it keeps
    the same precedence (loop, normalization and sign, universe, insert or
    delete, capacity).  The events are stable-sorted on the key
    ``u*(n+1) + v``.  An edge's running multiplicity stays in {0, 1} exactly
    when its signs alternate starting with +1, so a repeated sign is a
    duplicate insert or a delete of an absent edge.  The running sum of all
    signs is the live count, checked against ``m_max``.  The endpoint
    arrays are read as signed 64-bit integers, so a negative endpoint that
    ``events_to_arrays`` stored as its uint64 bit pattern is reported as
    ``materialize`` reports it.  Returns (us, vs) of the edges live at the
    end, sorted by (u, v).
    """
    n = cfg.n
    if n >= 1 << 32:
        raise ValueError(f"universe too large for 64-bit edge keys: n={n}")
    su, sv = us.view(np.int64), vs.view(np.int64)
    size = us.size
    malformed = (su == sv) | (su > sv) | (np.abs(signs) != 1) | (su < 1) | (sv > n)
    first_bad = int(np.argmax(malformed)) if size else 0
    k = first_bad if size and malformed[first_bad] else size
    del malformed
    # every event before k is well formed; the order checks run on those
    ps = signs[:k]
    key = us[:k].astype(np.uint64)
    key *= np.uint64(n + 1)
    key += vs[:k].astype(np.uint64, copy=False)
    order = np.argsort(key, kind="stable")
    key = key[order]
    s = ps[order]
    same = key[1:] == key[:-1]
    repeat = np.empty(k, dtype=bool)
    repeat[:1] = s[:1] != 1
    repeat[1:] = np.where(same, s[1:] == s[:-1], s[1:] != 1)
    first_repeat = int(order[repeat].min()) if repeat.any() else size
    over = np.flatnonzero(np.cumsum(ps) > cfg.m_max)
    first_over = int(over[0]) if over.size else size

    i = min(first_repeat, first_over, k)
    if i < size:
        u, v, sign = int(su[i]), int(sv[i]), int(signs[i])
        if i == first_repeat and sign == 1:
            err = DuplicateInsertError(f"edge ({u}, {v}) already live")
        elif i == first_repeat:
            err = DeleteAbsentError(f"edge ({u}, {v}) not live")
        elif i == first_over:
            err = OverCapacityError(f"live edges exceed m_max={cfg.m_max}")
        else:  # event k, the first malformed one
            err = _malformed(u, v, sign, n)
        raise type(err)(f"event {i}: {err}")

    # an edge is live at the end iff the last event of its key inserts it
    last = np.flatnonzero(np.append(~same, True) & (s == 1))
    live = order[last]
    return us[live], vs[live]


# ---------------------------------------------------------------------------
# text format


def _line_error(kind: type[StreamError], lineno: int, message: str) -> StreamError:
    err = kind(f"line {lineno}: {message}")
    err.line = lineno  # structured position for machine-readable error output
    return err


def iter_stream(f: IO[str], n: int | None = None) -> Iterator[tuple[int, EdgeEvent]]:
    """Yield (line_number, event) pairs from a text stream."""
    for lineno, line in enumerate(f, start=1):
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


def format_event(e: EdgeEvent) -> str:
    return f"{'+' if e.sign == 1 else '-'} {e.u} {e.v}"


def write_stream(events: Iterable[EdgeEvent], f: IO[str]) -> None:
    for e in events:
        f.write(format_event(e) + "\n")


def _endpoints(x) -> np.ndarray:
    x = np.ascontiguousarray(x)
    return x if x.dtype == np.uint64 else x.astype(np.int64, copy=False).view(np.uint64)


def events_to_arrays(events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical array form (u, v, sign) used by the batched ingest paths.

    Accepts any iterable of EdgeEvent, generators included, or an
    already-built array triple, whose uint64 endpoint arrays pass through.  A
    tuple of three EdgeEvents is three events, not a triple.  Any other
    endpoints are read as 64-bit signed integers and stored as their uint64
    bit pattern, so a negative endpoint wraps the same way in every input;
    ``net_events`` reads them back signed.
    """
    if isinstance(events, tuple) and len(events) == 3 and not isinstance(events[0], EdgeEvent):
        u, v, s = events
        return _endpoints(u), _endpoints(v), np.ascontiguousarray(s, dtype=np.int64)
    if not hasattr(events, "__len__"):
        events = list(events)
    us = np.fromiter((e.u for e in events), dtype=np.int64, count=len(events)).view(np.uint64)
    vs = np.fromiter((e.v for e in events), dtype=np.int64, count=len(events)).view(np.uint64)
    ss = np.fromiter((e.sign for e in events), dtype=np.int64, count=len(events))
    return us, vs, ss
