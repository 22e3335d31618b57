"""Span recording around the program's public functions, from outside.

``Tracer.install`` replaces the names that ``tristream.cli`` and
``tristream.estimator`` look up at call time, and the named methods of
``SparsifiedGraph``, ``ColoringFunction`` and ``TwoPathEstimator``, with
wrappers that record one span per call: (name, start, end, parent index).
``uninstall`` puts the originals back, so the timed pass runs unwrapped.
Spans and counts stay in memory until ``dump`` writes them out.
"""

import json
from time import perf_counter

from tristream import cli, estimator
from tristream.sparsifier import ColoringFunction, SparsifiedGraph
from tristream.two_path import TwoPathEstimator


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, owner, attr: str, name: str, counter=None, inner=None) -> None:
        """Replace ``owner.attr`` by a spanned call of ``inner`` (default: itself)."""
        orig = getattr(owner, attr)
        inner = inner or orig
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(name, inner, *args, **kwargs)
            if counter is not None:
                counter(tracer, args, out)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        w(cli, "read_stream", "stream_core.read_stream",
          lambda t, a, out: t.count("parsed_events", len(out)))
        w(cli, "materialize", "stream_core.materialize",
          lambda t, a, out: t.count("validated_events", len(a[0])))
        w(cli, "derive_config", "estimator.derive_config")
        w(cli, "estimate_triangles", "estimator.estimate_triangles")
        w(estimator, "events_to_arrays", "stream_core.events_to_arrays",
          lambda t, a, out: t.count("array_events", len(out[0])))
        w(estimator, "greedy_independent_count", "indep_paths.greedy_independent_count")
        w(TwoPathEstimator, "__init__", "two_path.build")
        w(TwoPathEstimator, "update_many", "two_path.update_many")
        w(TwoPathEstimator, "estimate", "two_path.estimate")
        w(ColoringFunction, "colors_of", "sparsifier.colors_of")

        def ingest_counts(t, a, out):
            t.count("offered_events", len(a[1]))
            t.count("applied_events", out)

        w(SparsifiedGraph, "apply_events", "sparsifier.apply_events", ingest_counts)
        orig_sample = SparsifiedGraph.sample_two_path

        def sample_with_counts(graph, rng):
            d0, s0 = graph.sample_draws, graph.samples
            out = orig_sample(graph, rng)
            self.count("sample_draws", graph.sample_draws - d0)
            self.count("samples", graph.samples - s0)
            return out

        w(SparsifiedGraph, "sample_two_path", "sparsifier.sample_two_path",
          inner=sample_with_counts)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reading the spans ---------------------------------------------------

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, summed seconds) of the spans named ``name``."""
        calls, secs = 0, 0.0
        for s in self.spans:
            if s[0] == name:
                calls += 1
                secs += s[2] - s[1]
        return calls, secs

    def self_seconds(self, name: str, children=None) -> tuple[int, float]:
        """(calls, summed self time) of the spans named ``name``.

        Self time is a span's duration minus that of its direct children
        (all of them, or only those named in ``children``).  Calls run on one
        thread, so sibling spans never overlap.
        """
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own and (children is None or s[0] in children):
                own[s[3]] -= s[2] - s[1]
        return len(own), sum(own.values())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"counts": self.counts, "spans": self.spans}, f)
