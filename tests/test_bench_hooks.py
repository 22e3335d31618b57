"""The benchmark's tracer (bench/spans.py) wraps package names from outside.

It replaces names that ``tristream.cli`` and ``tristream.estimator`` look up
at call time, and methods of a few classes.  A rename in the package would
otherwise break only a traced benchmark run, so these tests install the
tracer, run the CLI through the wrapped names, and check that every span is
recorded and that ``uninstall`` restores the originals.
"""

import importlib.util
from pathlib import Path

from tristream import cli, estimator
from tristream.sparsifier import ColoringFunction, SparsifiedGraph
from tristream.two_path import TwoPathEstimator

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
WRAPPED = [
    (cli, "read_stream"), (cli, "materialize"), (cli, "derive_config"),
    (cli, "estimate_triangles"), (estimator, "events_to_arrays"),
    (estimator, "greedy_independent_count"), (TwoPathEstimator, "__init__"),
    (TwoPathEstimator, "update_many"), (TwoPathEstimator, "estimate"),
    (ColoringFunction, "colors_of"), (SparsifiedGraph, "apply_events"),
    (SparsifiedGraph, "sample_two_path"),
]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_and_restores_the_package_names(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("+ 1 2\n+ 1 3\n+ 1 4\n+ 2 3\n+ 2 4\n+ 3 4\n")
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    tracer = _tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(WRAPPED, originals))
        argv = ["estimate", str(path), "--n", "4", "--m-max", "6", "--k-override", "4",
                "--s-override", "1", "--colors-override", "2", "--seed", "1"]
        assert cli.main(argv) == 0
        assert cli.main(["exact", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(o, a) is f for (o, a), f in zip(WRAPPED, originals))

    # the CLI reads through read_chunks and nets with net_chunks, so the
    # wrapped read_stream and materialize are never called; WRAPPED still
    # checks that the names resolve
    names = {s[0] for s in tracer.spans}
    assert names >= {
        "estimator.derive_config", "estimator.estimate_triangles",
        "stream_core.events_to_arrays", "indep_paths.greedy_independent_count",
        "two_path.build", "two_path.update_many", "two_path.estimate", "sparsifier.colors_of",
    }
    assert tracer.counts["array_events"] == 6
