import io
import json
import sys

import pytest

import tristream
from tristream.baselines import DoulionCounter
from tristream.cli import main
from tristream.generators import gnp_edges, with_churn
from tristream.hashing import mix2
from tristream.stream_core import StreamConfig, StreamError, materialize, read_stream, write_stream


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
        "--k-override", "20", "--seed", "5",
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


def test_gen_rejects_bad_parameters(capsys):
    code, out = run_cli(["gen", "complete"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"

    code, out = run_cli(["gen", "complete", "4", "--delete-fraction", "1.0"], capsys)
    assert code == 2


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
