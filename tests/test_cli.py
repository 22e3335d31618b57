import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tristream
from conftest import chunk_size, small_streams
from tristream import cli
from tristream.baselines import DoulionCounter
from tristream.cli import main
from tristream.estimator import NoQualifiedCopiesError, derive_config, estimate_triangles
from tristream.generators import (
    complete_bipartite_edges,
    complete_edges,
    gnp_edges,
    path_edges,
    planted_cluster_edges,
    star_edges,
    with_churn,
)
from tristream.hashing import mix2
from tristream.indep_paths import verify_lower_bounds
from tristream.oracles import graph_stats
from tristream.stream_core import (
    AdjacencyGraph,
    StreamConfig,
    StreamError,
    iter_stream,
    materialize,
    read_chunks,
    read_stream,
    write_stream,
)


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_gen_exact_roundtrip(tmp_path, capsys):
    code, out = run_cli(["gen", "complete", "4", "--delete-fraction", "0.5", "--seed", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# n=10"  # 4 base vertices + 2 per decoy edge
    assert len(lines) == 1 + 6 + 2 * 3  # header, inserts, decoy churn
    path = tmp_path / "k4.txt"
    path.write_text(out)

    code, out = run_cli(["exact", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["t3"] == 4 and payload["p2"] == 12 and payload["m"] == 6
    assert payload["alpha"] == 1.0
    assert payload["command"] == "exact"
    assert payload["version"] == tristream.__version__


def test_estimate_output_is_byte_identical_across_reruns(tmp_path, capsys):
    code, out = run_cli(["gen", "gnp", "30", "0.3", "--seed", "7"], capsys)
    assert code == 0
    path = tmp_path / "gnp.txt"
    path.write_text(out)

    argv = [
        "estimate", str(path), "--n", "30", "--m-max", "500",
        "--k-override", "20", "--seed", "5", "--diagnostics",
    ]
    code_a, out_a = run_cli(argv, capsys)
    code_b, out_b = run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b

    payload = json.loads(out_a)
    assert payload["command"] == "estimate"
    assert payload["seed"] == 5
    assert payload["version"] == tristream.__version__
    assert payload["K"] == 20 and payload["config"]["k"] == 20
    assert payload["config"]["n"] == 30 and payload["config"]["m_max"] == 500
    assert 0.0 <= payload["alpha_hat"] <= 1.0
    assert len(payload["diagnostics"]) == 20


def test_estimate_default_output_is_a_summary_whose_size_does_not_grow_with_k(tmp_path, capsys):
    code, out = run_cli(["gen", "gnp", "30", "0.3", "--seed", "7"], capsys)
    path = tmp_path / "gnp.txt"
    path.write_text(out)
    base = ["estimate", str(path), "--n", "30", "--m-max", "500", "--seed", "5"]

    outs = {}
    for k in ("20", "2000"):
        argv = base + ["--k-override", k]
        code_a, out_a = run_cli(argv, capsys)
        code_b, out_b = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        outs[k] = out_a
        payload = json.loads(out_a)
        assert "diagnostics" not in payload
        assert payload["summary"]["qualified_rate"] == 1.0
        assert payload["summary"]["kept_fraction"] == 1.0
        code, full = run_cli(argv + ["--diagnostics"], capsys)
        full = json.loads(full)
        assert len(full.pop("diagnostics")) == int(k)
        assert full == payload

    number = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")
    assert number.sub("0", outs["20"]) == number.sub("0", outs["2000"])


def test_estimate_exits_3_when_no_copy_qualifies(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("+ 1 2\n+ 2 3\n+ 3 4\n")
    code, out = run_cli(
        ["estimate", str(path), "--n", "4", "--m-max", "3",
         "--colors-override", "2", "--k-override", "5"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["type"] == "NoQualifiedCopiesError"
    assert payload["command"] == "estimate"


def test_malformed_stream_exits_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+ 1 2\nbogus line\n")
    code, out = run_cli(["exact", str(path)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "StreamFormatError"
    assert payload["error"]["line"] == 2


def test_missing_file_exits_2(tmp_path, capsys):
    code, out = run_cli(["exact", str(tmp_path / "nope.txt")], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, kind", [
    (["estimate", "--n", "1", "--m-max", "5"], "InvalidRangeError"),
    (["exact", "--n", "1"], "ValueError"),
    (["doulion", "--p", "0"], "ValueError"),
    (["exact", "--n", "4294967296"], "ValueError"),  # above MAX_ID
    (["doulion", "--p", "0.5", "--n", "4294967296"], "ValueError"),
])
def test_parameter_errors_come_before_a_missing_file(tmp_path, capsys, argv, kind):
    command, *options = argv
    code, out = run_cli([command, str(tmp_path / "missing.txt"), *options], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == kind


def test_doulion_full_keep_and_validation(tmp_path, capsys):
    code, out = run_cli(["gen", "complete", "6"], capsys)
    path = tmp_path / "k6.txt"
    path.write_text(out)

    code, out = run_cli(["doulion", str(path), "--p", "1.0", "--trials", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == 20.0
    assert payload["config"] == {"n": 6, "p": 1.0, "trials": 2}

    code, out = run_cli(["doulion", str(path), "--p", "0"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_doulion_rejects_a_keep_probability_below_the_hash_coin_before_the_stream(
    tmp_path, capsys
):
    path = tmp_path / "triangle.txt"
    path.write_text("+ 1 2\n+ 2 3\n+ 1 3\n")
    code, out = run_cli(["doulion", str(path), "--p", "1e-200"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": "--p must be in [2^-64, 1], got 1e-200"}
    loop = tmp_path / "loop.txt"
    loop.write_text("+ 3 3\n")  # the parameter error comes before the stream's
    code, out = run_cli(["doulion", str(loop), "--p", "1e-200"], capsys)
    assert code == 2 and json.loads(out)["error"]["type"] == "ValueError"


def test_doulion_on_live_edges_equals_replay_of_every_event(tmp_path, capsys):
    events, n = with_churn(gnp_edges(30, 0.4, seed=3), 80, seed=3, n_base=30)
    path = tmp_path / "churn.txt"
    with open(path, "w") as f:
        write_stream(events, f)
    trials, seed = 8, 11
    code, out = run_cli(["doulion", str(path), "--p", "0.6", "--trials", str(trials),
                         "--n", str(n), "--seed", str(seed)], capsys)
    assert code == 0
    estimates = []
    for t in range(trials):
        counter = DoulionCounter(n, 0.6, seed=mix2(seed, t))
        counter.update_many(events)
        estimates.append(counter.estimate())
    assert json.loads(out)["estimate"] == sum(estimates) / trials


def test_human_format_is_same_object_indented(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("+ 1 2\n+ 1 3\n+ 2 3\n")
    _, compact = run_cli(["exact", str(path)], capsys)
    _, human = run_cli(["exact", str(path), "--format", "human"], capsys)
    assert json.loads(compact) == json.loads(human)
    assert len(human.splitlines()) > 1


def test_verify_lemmas_file_and_sweep_modes(tmp_path, capsys):
    code, out = run_cli(["gen", "complete", "8"], capsys)
    path = tmp_path / "k8.txt"
    path.write_text(out)

    code, out = run_cli(["verify-lemmas", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["report"]["n"] == 8 and payload["report"]["m"] == 28

    code, out = run_cli(["verify-lemmas", "--sweep", "10", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["fixtures"] == 10 and payload["violations"] == 0


def test_verify_lemmas_rejects_a_file_with_sweep(tmp_path, capsys):
    for path in (tmp_path / "absent.txt", "-"):
        code, out = run_cli(["verify-lemmas", str(path), "--sweep", "2"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError", "message": "verify-lemmas takes a stream file or --sweep, not both"}


def test_gen_rejects_bad_parameters(capsys):
    code, out = run_cli(["gen", "complete"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"

    code, out = run_cli(["gen", "complete", "4", "--delete-fraction", "1.0"], capsys)
    assert code == 2



@pytest.mark.parametrize("delete_fraction", [None, "0.3"])
@pytest.mark.parametrize("family, params, edges, n", [
    ("complete", ["6"], complete_edges(6), 6),
    ("path", ["7"], path_edges(7), 7),
    ("star", ["6"], star_edges(6), 6),
    ("bipartite-complete", ["3", "4"], complete_bipartite_edges(3, 4), 7),
    ("gnp", ["12", "0.4"], gnp_edges(12, 0.4, seed=5), 12),
    ("planted-triangles", ["3", "2"], *planted_cluster_edges(3, 2)),
])
def test_gen_writes_every_family_whose_final_graph_is_its_edges(
    tmp_path, capsys, family, params, edges, n, delete_fraction
):
    churn = ["--delete-fraction", delete_fraction] if delete_fraction else []
    code, out = run_cli(["gen", family, *params, "--seed", "5", *churn], capsys)
    assert code == 0
    decoys = int(float(delete_fraction) * len(edges) + 0.5) if delete_fraction else 0
    assert out.splitlines()[0] == f"# n={n + 2 * decoys}"
    path = tmp_path / "family.txt"
    path.write_text(out)

    code, out = run_cli(["exact", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    graph = AdjacencyGraph()
    for u, v in edges:
        graph.insert(u, v)
    want = graph_stats(graph)
    assert (payload["t3"], payload["p2"], payload["m"]) == (want.t3, want.p2, want.m)


@pytest.mark.parametrize("argv, message", [
    (["verify-lemmas", "--sweep", "0"], "--sweep must be positive, got 0"),
    (["verify-lemmas"], "verify-lemmas needs a stream file or --sweep"),
    (["doulion", "missing.txt", "--p", "0.5", "--trials", "0"], "--trials must be positive, got 0"),
], ids=["sweep-0", "no-input", "trials-0"])
def test_parameter_errors_exit_2_with_their_message(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


def test_reads_stream_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("+ 1 2\n+ 1 3\n+ 2 3\n"))
    code, out = run_cli(["exact", "-"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["t3"] == 1 and payload["alpha"] == 1.0


@pytest.mark.parametrize("text, kind", [
    ("+ 1 2\n+ 2 3\n+ 1 3\n", "OverCapacityError"),  # third live edge, m_max 2
    ("+ 1 2\n+ 2 3\n- 2 3\n+ 1 2\n", "DuplicateInsertError"),
], ids=["over-capacity", "duplicate-insert"])
def test_estimate_rejects_contract_violations_like_materialize(tmp_path, capsys, text, kind):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(StreamError) as want, open(path) as f:
        materialize(read_stream(f), StreamConfig(n=5, m_max=2))
    code, out = run_cli(["estimate", str(path), "--n", "5", "--m-max", "2"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"type": kind, "message": str(want.value)}
    assert type(want.value).__name__ == kind


def test_module_runs_as_a_script(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("+ 1 2\n+ 1 3\n+ 1 4\n+ 2 3\n+ 2 4\n+ 3 4\n")
    src = str(Path(tristream.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "tristream.cli", "exact", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout)["t3"] == 4


def test_estimate_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call; the sketch's readout
    # takes its median without it, so a fresh estimate never pays that import
    path = tmp_path / "k5.txt"
    path.write_text("".join(f"+ {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)))
    src = str(Path(tristream.__file__).resolve().parent.parent)
    code = (
        "import contextlib, io, sys\n"
        "from tristream.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main(['estimate', {str(path)!r}, '--n', '5', '--m-max', '10', '--k-override', '30'])\n"
        "print(code, len(out.getvalue()) > 0, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.split() == ["0", "True", "False"], done.stderr


def test_estimate_reports_the_first_violation_in_file_order(tmp_path, capsys):
    # the duplicate insert on line 3 comes before the bad line 4
    path = tmp_path / "mixed.txt"
    path.write_text("+ 1 2\n+ 2 3\n+ 1 2\nbogus\n")
    want = {"type": "DuplicateInsertError", "message": "event 2: edge (1, 2) already live"}
    # every command that reads a stream file checks it chunk by chunk
    for argv in (["estimate", str(path), "--n", "5", "--m-max", "4"], ["exact", str(path)],
                 ["doulion", str(path), "--p", "0.5"], ["verify-lemmas", str(path)]):
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"] == want


# estimate's largest universe, and the file commands' universe without --n
_UNIVERSES = (f"[1, {2**31 - 2}]", f"[1, {2**32 - 1}]")


@pytest.mark.parametrize("line", [
    "+ 1 99999999999",  # above 2^32: no 64-bit edge key
    "+ 1 99999999999999999999",  # above 2^63: no int64
])
def test_exact_rejects_vertex_ids_beyond_the_edge_keys(tmp_path, capsys, line):
    path = tmp_path / "big.txt"
    path.write_text(line + "\n")
    want = {"type": "OutOfUniverseError", "line": 1,
            "message": f"line 1: endpoint outside [1, {2**32 - 1}]: {tuple(map(int, line.split()[1:]))}"}
    for argv in (["exact", str(path)], ["doulion", str(path), "--p", "0.5"],
                 ["verify-lemmas", str(path)]):
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"] == want
    # estimate's sketch takes ids up to 2^31-2, so at that universe the id is
    # outside it, and a universe of 2^32-1 is a parameter error
    code, out = run_cli(["estimate", str(path), "--n", str(2**31 - 2), "--m-max", "4"], capsys)
    assert code == 2
    got = json.loads(out)["error"]
    assert {**got, "message": got["message"].replace(*_UNIVERSES)} == want
    code, out = run_cli(["estimate", str(path), "--n", str(2**32 - 1), "--m-max", "4"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidRangeError"


def test_estimate_rejects_arrays_too_large_to_allocate_before_the_stream(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+ 3 3\n")  # a loop on line 1, reported only if the knobs pass
    for knob in (["--epsilon", "0.001"], ["--alpha-min", "1e-6"]):
        code, out = run_cli(["estimate", str(path), "--n", "10", "--m-max", "10", *knob], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidRangeError" and "line" not in error


def test_estimate_rejects_a_universe_the_sketch_cannot_hash_before_the_stream(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+ 1 1\n")  # a loop on line 1
    code, out = run_cli(["estimate", str(path), "--n", str(2**31 - 1), "--m-max", "10"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidRangeError" and "line" not in error
    code, out = run_cli(["estimate", str(path), "--n", str(2**31 - 2), "--m-max", "10"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "LoopEdgeError"


def test_file_commands_match_materialize_on_churned_streams(tmp_path, capsys):
    # a sparse graph with shuffled inserts, so that the adjacency sets of a
    # replay iterate in an order other than sorted, which the witnesses of
    # verify-lemmas must not follow
    events, n = with_churn(gnp_edges(400, 0.02, seed=9), 300, seed=9, n_base=400)
    path = tmp_path / "churn.txt"
    with open(path, "w") as f:
        write_stream(events, f)
    ref = materialize(events, StreamConfig(n=n, m_max=len(events)))
    graph, got_n = cli._final_graph(str(path), None)
    assert got_n == n
    assert graph.adj == ref.adj and graph.m == ref.m
    assert set(graph.edges()) == set(ref.edges())

    code, out = run_cli(["exact", str(path)], capsys)
    stats = graph_stats(ref)
    assert code == 0 and json.loads(out)["t3"] == stats.t3 and json.loads(out)["p2"] == stats.p2
    code, out = run_cli(["verify-lemmas", str(path)], capsys)
    assert json.loads(out)["report"] == asdict(verify_lower_bounds(ref.adj))


def _toggled_stream(path, edges, toggles):
    """``edges`` inserted, then ``toggles`` decoy edges each inserted and at
    once deleted, so that at most one edge more than ``edges`` is ever live."""
    top = max(v for _, v in edges)
    with open(path, "w") as f:
        f.writelines(f"+ {u} {v}\n" for u, v in edges)
        for i in range(toggles):
            u = top + 1 + i % 500
            f.write(f"+ {u} {u + 500}\n- {u} {u + 500}\n")


def test_final_graph_memory_does_not_grow_with_stream_length(tmp_path):
    edges = sorted(gnp_edges(200, 0.0453, seed=5))[:900]
    peaks = []
    for toggles in (20_000, 80_000):
        path = tmp_path / f"toggled-{toggles}.txt"
        _toggled_stream(path, edges, toggles)
        with chunk_size(1024):
            tracemalloc.start()
            try:
                graph, _ = cli._final_graph(str(path), None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert sorted(graph.edges()) == edges
    # about 41k and 161k events; holding the parsed events would quadruple the peak
    assert peaks[1] < 1.25 * peaks[0], peaks


MALFORMED_LINES = ["+3 7", "+ 1 2 3", "* 1 2", "+ a 2", "+ 1 123456789012345678901", "# note", ""]


@st.composite
def text_streams(draw):
    """(n, m_max, text): a ``small_streams`` case written as text, in several
    spellings, with malformed, comment and blank lines mixed in."""
    n, m_max, events = draw(small_streams())
    lines = []
    for e in events:
        sign = {1: "+", -1: "-", 0: "0", 2: "+2"}[e.sign]
        canonical = "{} {} {}"
        style = draw(st.sampled_from((canonical, canonical, "{}  {} {}", "{}\t{} {}", "{} 0{} {}")))
        u, v = (e.u, e.v) if draw(st.booleans()) else (e.v, e.u)
        lines.append(style.format(sign, u, v))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(MALFORMED_LINES)))
    return n, m_max, "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _error(err):
    detail = {"type": type(err).__name__, "message": str(err)}
    if getattr(err, "line", None) is not None:
        detail["line"] = err.line
    return detail


def _library_outcome(events, cfg):
    try:
        return estimate_triangles(events, cfg).to_dict()
    except (StreamError, NoQualifiedCopiesError) as err:
        return _error(err)


@settings(max_examples=200, deadline=None)
@given(text_streams(), st.sampled_from((1, 2, 3)), st.integers(1, 2))
def test_estimate_over_the_reader_matches_lazy_materialize(tmp_path_factory, case, size, colors):
    n, m_max, text = case
    cfg = derive_config(n=n, m_max=m_max, k_override=3, s_override=1, colors_override=colors)
    try:  # the reference: one event at a time, text and contract checks interleaved
        materialize((e for _, e in iter_stream(io.StringIO(text), n)), StreamConfig(n, m_max))
        want = _library_outcome(read_stream(io.StringIO(text), n), cfg)
    except StreamError as err:
        want = _error(err)
    path = tmp_path_factory.getbasetemp() / "stream.txt"
    path.write_text(text)
    argv = ["estimate", str(path), "--n", str(n), "--m-max", str(m_max), "--k-override", "3",
            "--s-override", "1", "--colors-override", str(colors), "--diagnostics"]
    with chunk_size(size):
        assert _library_outcome(read_chunks(io.StringIO(text), n), cfg) == want
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(argv)
    payload = json.loads(out.getvalue())
    if "error" in payload:
        assert payload["error"] == want
    else:
        assert {k: payload[k] for k in want} == want


_STREAM_ERRORS = {kind.__name__ for kind in StreamError.__subclasses__()}


@settings(max_examples=200, deadline=None)
@given(text_streams(), st.sampled_from((1, 2, 3)))
def test_file_commands_reject_streams_as_estimate_does(tmp_path_factory, case, size):
    _, _, text = case
    path = tmp_path_factory.getbasetemp() / "stream.txt"
    path.write_text(text)
    outcomes = []
    # estimate with the largest universe its sketch takes and a capacity that
    # do not bind; an id outside it is outside the file commands' universe too
    for argv in (["estimate", "--n", str(2**31 - 2), "--m-max", "1000", "--k-override", "1",
                  "--s-override", "1"],
                 ["exact"], ["doulion", "--p", "0.5"], ["verify-lemmas"]):
        with chunk_size(size), contextlib.redirect_stdout(io.StringIO()) as out:
            main([*argv, str(path)])
        outcomes.append(json.loads(out.getvalue()).get("error"))
    want = outcomes[0] if outcomes[0] and outcomes[0]["type"] in _STREAM_ERRORS else None
    if want is not None:  # the file commands name their own universe
        want = {**want, "message": want["message"].replace(*_UNIVERSES)}
    for got in outcomes[1:]:
        if want is None:
            assert got is None or got["type"] not in _STREAM_ERRORS
        else:
            assert got == want
