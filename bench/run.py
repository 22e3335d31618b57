"""Benchmark of the tristream estimator on seeded, generated workloads.

Usage (from the repository root):

    python3 bench/run.py --workload colored-churn --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times, in whole rounds until ``--seconds`` have
passed, the workload's number of ``estimate_triangles`` calls on the
in-memory events (two on ``colored-churn``, one elsewhere) and one
``tristream estimate`` run as a fresh child process, and reports the
medians with the set-up cost of a fresh interpreter.  Each time is scaled
by a reference loop timed right before it in a helper interpreter, which
cancels the drift of the machine's speed (see ``REF_SECONDS``).  With
``--trace 1`` each round runs the estimate untraced, the estimate with spans
recorded around the program's public functions, and the CLI's ``main`` in
this process with the same spans, and reports the per-layer figures.  Every output is checked
against the exact statistics of the final graph or against properties the
method must have.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_LAUNCHES = 9

# A fresh interpreter that runs the CLI from the source tree.
CLI_CODE = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from tristream.cli import main; sys.exit(main())"
)
# The cost every CLI call pays before its first event.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tristream; "
    "tristream.derive_config(n=int(sys.argv[2]), m_max=int(sys.argv[3]))"
)
# Starts a child, waits for it and writes "<exit code> <wall s> <ru_maxrss KB>"
# to argv[1].  Children are started from this small interpreter rather than
# from the benchmark: a child's ru_maxrss starts at the resident size of the
# process it was forked from, which here holds whole event lists.
SPAWN_CODE = (
    "import os, subprocess, sys, time\n"
    "t0 = time.perf_counter()\n"
    "proc = subprocess.Popen(sys.argv[2:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "wall = time.perf_counter() - t0\n"
    "proc.returncode = code = os.waitstatus_to_exitcode(status)\n"
    "with open(sys.argv[1], 'w') as f:\n"
    "    f.write(f'{code} {wall!r} {usage.ru_maxrss}')\n"
)
AGREE_KEYS = ("p2_hat", "alpha_hat", "t3_hat", "ell", "K", "colors")
# On a shared host the machine's speed can shift by a third within minutes
# (bench/README.md, "Steadiness").  So right before every timed operation a helper interpreter
# times a fixed pure-Python loop, and each reported time is the median as
# measured times REF_SECONDS / the median loop time of the same run: the time
# on a machine where the loop takes REF_SECONDS.  The helper lives for the
# whole run, so its heap is warm, and apart, so that nothing the program
# leaves in the benchmark's heap changes the loop's time.
REF_SECONDS = 0.17
# The helper: two untimed loops, then one timed loop per line read from
# stdin, its wall seconds written to stdout; it ends when stdin closes.
REF_CODE = (
    "import gc, sys, time\n"
    "def loop():\n"
    "    gc.disable()\n"
    "    t0 = time.perf_counter()\n"
    "    adj, x = {}, 1\n"
    "    for _ in range(100_000):\n"
    "        x = (x * 1103515245 + 12345) & 0x7FFFFFFF\n"
    "        u, v = x % 7000, (x >> 12) % 7000\n"
    "        adj.setdefault(u, set()).add(v)\n"
    "        adj.setdefault(v, set()).add(u)\n"
    "    t = time.perf_counter() - t0\n"
    "    del adj\n"
    "    gc.enable()\n"
    "    return t\n"
    "loop(); loop()\n"
    "for _ in sys.stdin:\n"
    "    print(repr(loop()), flush=True)\n"
)


def _load_program():
    """Import tristream from this checkout's source tree, or exit with status 1."""
    if not (SRC / "tristream" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'tristream'}")
    sys.path.insert(0, str(SRC))
    import tristream

    if Path(tristream.__file__).resolve().parent != SRC / "tristream":
        sys.exit(f"bench: imported tristream from {tristream.__file__}, not from {SRC}")


class Tally:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def run(self, kind: str, fn, *args):
        """Attempt one operation; returns its result, or None if it raised."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            return fn(*args)
        except Exception as err:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed[kind] = self.failed.get(kind, 0) + 1
            print(f"bench: {kind} failed: {type(err).__name__}: {err}", file=sys.stderr)
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted["check"] = self.attempted.get("check", 0) + 1
        if not ok:
            self.failed["check"] = self.failed.get("check", 0) + 1
            print(f"bench: check {name} failed {detail}", file=sys.stderr)

    def summary(self) -> str:
        return ", ".join(
            f"{k} {self.attempted[k]} attempted {self.failed.get(k, 0)} failed"
            for k in sorted(self.attempted)
        )


# -- output checks -------------------------------------------------------


def check_report(tally: Tally, w, cfg, rep) -> None:
    """Checks against the exact statistics of the final graph."""
    st = w.stats
    err = abs(rep.p2_hat - st.p2)
    tally.check("p2", err <= (cfg.epsilon / 6) * st.f2 / 2, f"|p2_hat - P2| = {err}")
    tally.check("shape", rep.k == cfg.k and rep.colors == w.colors, f"K {rep.k} colors {rep.colors}")
    alpha = st.alpha
    if w.colors == 1:
        # every copy samples the whole graph uniformly: ell Bernoulli(alpha) draws
        tally.check("ell", rep.ell == rep.k, f"ell {rep.ell} of {rep.k}")
        tol = 4 * math.sqrt(alpha * (1 - alpha) / rep.ell)
        tally.check("alpha", abs(rep.alpha_hat - alpha) <= tol,
                    f"alpha_hat {rep.alpha_hat} vs {alpha} +- {tol}")
    else:
        a = rep.alpha_hat
        sigma = math.sqrt(a * (1 - a) / rep.ell)
        lo = (1 - cfg.epsilon) * alpha - 4 * sigma
        hi = (1 + cfg.epsilon) * alpha + 4 * sigma
        tally.check("alpha", lo <= a <= hi, f"alpha_hat {a} outside [{lo}, {hi}]")
        # vertex colouring keeps edges pairwise independently with p = 1/colors
        p = 1 / w.colors
        mean_kept = statistics.fmean(d.m_prime for d in rep.diagnostics)
        tol = 4 * math.sqrt(st.m * p * (1 - p) / rep.k)
        tally.check("m_prime", abs(mean_kept - st.m * p) <= tol,
                    f"mean m_prime {mean_kept} vs {st.m * p} +- {tol}")


def check_cli(tally: Tally, payload, rep) -> None:
    """The CLI's JSON against the library report on the headline fields."""
    ref = rep.to_dict()
    got = {k: payload.get(k) for k in AGREE_KEYS}
    want = {k: ref[k] for k in AGREE_KEYS}
    tally.check("cli_agrees", got == want, f"{got} vs {want}")


# -- timed pass ----------------------------------------------------------


def cli_argv(w, cfg, path) -> list[str]:
    argv = ["estimate", str(path), "--n", str(w.n), "--m-max", str(w.m_max), "--seed", str(cfg.seed)]
    if w.k_override is not None:
        argv += ["--k-override", str(w.k_override)]
    return argv


def _spawn(cmd, stdout_path):
    """Run a child to its end; returns (exit code, wall seconds, peak RSS in MB)."""
    result = OUT / "spawn.txt"
    with open(stdout_path, "wb") as out, open(OUT / "stderr.txt", "wb") as err:
        subprocess.run([sys.executable, "-c", SPAWN_CODE, str(result), *cmd],
                       stdout=out, stderr=err, cwd=ROOT, check=True)
    code, wall, maxrss_kb = result.read_text(encoding="utf-8").split()
    return int(code), float(wall), int(maxrss_kb) / 1024


def run_cli(w, cfg, path):
    """``tristream estimate`` as a fresh child; returns (payload, wall s, RSS MB)."""
    out_path = OUT / f"cli-{w.name}.json"
    code, wall, rss = _spawn([sys.executable, "-c", CLI_CODE, str(SRC), *cli_argv(w, cfg, path)], out_path)
    text = out_path.read_text(encoding="utf-8")
    if code != 0:
        raise RuntimeError(f"exit {code}: {text[:300]}")
    return json.loads(text), wall, rss


def reference_loop(helper) -> float:
    """Wall seconds of one reference loop in the helper interpreter."""
    helper.stdin.write("\n")
    helper.stdin.flush()
    return float(helper.stdout.readline())


def scaled(times, refs) -> float:
    """Median of ``times`` at the speed where the reference loop takes REF_SECONDS."""
    return statistics.median(times) * REF_SECONDS / statistics.median(refs)


def measure_setup(w, helper):
    """Fresh interpreters that import and derive a config; returns (scaled, as measured) median s."""
    times, refs = [], []
    for _ in range(SETUP_LAUNCHES):
        refs.append(reference_loop(helper))
        code, wall, _ = _spawn([sys.executable, "-c", SETUP_CODE, str(SRC), str(w.n), str(w.m_max)],
                               OUT / "setup.txt")
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited {code}")
        times.append(wall)
    return scaled(times, refs), statistics.median(times)


def timed_estimate(w, cfg):
    from tristream import estimate_triangles

    gc.collect()
    t0 = perf_counter()
    rep = estimate_triangles(w.events, cfg)
    return rep, perf_counter() - t0


def timed_pass(w, cfg, path, seconds, tally):
    with subprocess.Popen([sys.executable, "-c", REF_CODE], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as helper:
        return timed_rounds(w, cfg, path, seconds, tally, helper)


def timed_rounds(w, cfg, path, seconds, tally, helper):
    setup = tally.run("setup", measure_setup, w, helper)
    est, cli, rss, refs = [], [], [], []
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        rounds += 1
        for _ in range(w.estimates_per_round):
            refs.append(reference_loop(helper))
            got = tally.run("estimate", timed_estimate, w, cfg)
            if got is not None:
                rep, dt = got
                est.append(dt)
                check_report(tally, w, cfg, rep)
        refs.append(reference_loop(helper))
        ran = tally.run("cli", run_cli, w, cfg, path)
        if ran is not None:
            payload, wall, peak = ran
            cli.append(wall)
            rss.append(peak)
            if got is not None:
                check_cli(tally, payload, rep)
        print(f"round {rounds}: estimate {est[-w.estimates_per_round:] if est else 'failed'} s, "
              f"cli {cli[-1] if cli else 'failed'} s, reference loop {refs[-1]} s", flush=True)
        if perf_counter() >= deadline:
            break
    metrics = {}
    if est:
        metrics["estimate_s"] = {"value": scaled(est, refs), "unit": "s"}
    if cli:
        metrics["cli_s"] = {"value": scaled(cli, refs), "unit": "s"}
        metrics["cli_peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    if setup:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
    print(f"medians as measured: estimate {statistics.median(est) if est else None} s, "
          f"cli {statistics.median(cli) if cli else None} s, setup {setup[1] if setup else None} s, "
          f"reference loop {statistics.median(refs)} s, scaled to {REF_SECONDS} s", flush=True)
    return metrics


# -- traced pass ---------------------------------------------------------


def traced_cli(tracer, argv):
    """The CLI's ``main`` in this process with spans on; returns (payload, bytes)."""
    from tristream import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call("cli.main", cli.main, argv)
    text = buf.getvalue()
    if code != 0:
        raise RuntimeError(f"exit {code}: {text[:300]}")
    return json.loads(text), len(text.encode("utf-8"))


def traced_pass(w, cfg, path, seconds, tally, trace_path):
    from spans import Tracer
    from tristream import estimate_triangles

    tracer = Tracer()
    plain, traced, ells, out_bytes = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        got = tally.run("estimate", timed_estimate, w, cfg)
        if got is not None:
            rep, dt = got
            plain.append(dt)
            check_report(tally, w, cfg, rep)
        tracer.install()
        try:
            gc.collect()
            t0 = perf_counter()
            rep_t = tally.run("estimate", tracer.call, "estimator.estimate_triangles",
                              estimate_triangles, w.events, cfg)
            traced.append(perf_counter() - t0)
            ran = tally.run("cli", traced_cli, tracer, cli_argv(w, cfg, path))
        finally:
            tracer.uninstall()
        if rep_t is not None:
            ells.append(rep_t.ell / rep_t.k)
            if got is not None:
                tally.check("traced_equals_timed", rep_t.to_dict() == rep.to_dict())
        if ran is not None:
            payload, nbytes = ran
            out_bytes.append(nbytes)
            if rep_t is not None:
                check_cli(tally, payload, rep_t)
        if perf_counter() >= deadline:
            break
    tracer.dump(trace_path)
    return layer_metrics(tracer, w, plain, traced, ells, out_bytes)


def layer_metrics(tr, w, plain, traced, ells, out_bytes):
    c = tr.counts

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    est_calls, _ = tr.totals("estimator.estimate_triangles")
    _, parse_s = tr.totals("stream_core.read_stream")
    _, val_s = tr.totals("stream_core.materialize")
    _, arr_s = tr.totals("stream_core.events_to_arrays")
    build_n, build_s = tr.totals("two_path.build")
    upd_n, upd_s = tr.totals("two_path.update_many")
    tpe_n, tpe_s = tr.totals("two_path.estimate")
    ing_n, ing_s = tr.totals("sparsifier.apply_events")
    col_n, col_s = tr.totals("sparsifier.colors_of")
    smp_n, smp_s = tr.totals("sparsifier.sample_two_path")
    cert_n, cert_s = tr.totals("indep_paths.greedy_independent_count")
    self_n, self_s = tr.self_seconds("estimator.estimate_triangles")
    main_n, main_s = tr.self_seconds(
        "cli.main",
        children={"stream_core.read_stream", "stream_core.materialize", "estimator.estimate_triangles"},
    )
    applied, offered = c.get("applied_events", 0), c.get("offered_events", 0)
    rows = [
        ("stream_core.parse_us_per_event", "us", per(parse_s, c.get("parsed_events", 0), 1e6)),
        ("stream_core.validate_us_per_event", "us", per(val_s, c.get("validated_events", 0), 1e6)),
        ("stream_core.arrays_us_per_event", "us", per(arr_s, c.get("array_events", 0), 1e6)),
        ("two_path.build_ms", "ms", per(build_s, build_n, 1e3)),
        ("two_path.update_ms", "ms", per(upd_s, upd_n, 1e3)),
        ("two_path.update_us_per_vertex", "us", per(upd_s, upd_n * w.stats.n_touched, 1e6)),
        ("two_path.estimate_ms", "ms", per(tpe_s, tpe_n, 1e3)),
        ("sparsifier.ingest_calls", "count", per(ing_n, est_calls)),
        ("sparsifier.ingest_ms_per_call", "ms", per(ing_s, ing_n, 1e3)),
        ("sparsifier.ingest_us_per_applied_event", "us", per(ing_s, applied, 1e6)),
        ("sparsifier.color_ms_per_call", "ms", per(col_s, col_n, 1e3)),
        ("sparsifier.kept_over_expected", "ratio", per(applied * w.colors, offered)),
        ("sparsifier.sample_us_per_call", "us", per(smp_s, smp_n, 1e6)),
        ("sparsifier.draws_per_sample", "ratio", per(c.get("sample_draws", 0), c.get("samples", 0))),
        ("indep_paths.certify_calls", "count", per(cert_n, est_calls)),
        ("indep_paths.certify_ms_per_call", "ms", per(cert_s, cert_n, 1e3)),
        ("estimator.self_s", "s", per(self_s, self_n)),
        ("estimator.qualified_fraction", "ratio", statistics.fmean(ells) if ells else 0.0),
        ("cli.self_s", "s", per(main_s, main_n)),
        ("cli.output_bytes", "bytes", statistics.median(out_bytes) if out_bytes else 0),
        ("trace.overhead_s", "s",
         statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}


# -- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One CPU for the benchmark and every process it starts: on a shared host
    # the CPUs of a VM slow down at different times, and the reference loop
    # follows the timed operations much more closely on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _load_program()
    import workloads
    from tristream import derive_config

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.NAMES)}")
    OUT.mkdir(exist_ok=True)
    w = workloads.build(args.workload, args.seed)
    cfg = derive_config(n=w.n, m_max=w.m_max, seed=args.seed, k_override=w.k_override)
    path = OUT / f"{w.name}-{args.seed}.txt"
    workloads.write_text(w.events, path)
    print(f"{w.name} seed {args.seed}: n {w.n}, {len(w.events)} events, peak live {w.peak_live}, "
          f"final m {w.stats.m}, colors {cfg.colors}, K {cfg.k}, alpha {w.stats.alpha:.6f}", flush=True)

    tally = Tally()
    try:
        if args.trace:
            metrics = traced_pass(w, cfg, path, args.seconds, tally,
                                  OUT / f"trace-{w.name}-{args.seed}.json")
        else:
            metrics = timed_pass(w, cfg, path, args.seconds, tally)
    finally:
        path.unlink()
    print(tally.summary(), flush=True)
    result = {
        "correct": "check" not in tally.failed,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
