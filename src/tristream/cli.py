"""Command line driver: estimate, exact, gen, verify-lemmas, doulion.

Every command except ``gen`` prints one JSON object with sorted keys, so
identical invocations give byte-identical output; ``--format human``
prints the same object indented.  ``estimate`` prints a run summary, and
its per-copy records only with ``--diagnostics``.  ``gen`` writes a
stream file to stdout.  The four commands that read a stream file read
and check it chunk by chunk (``read_chunks`` into ``net_chunks``), so they
report the first violation in file order, with the same error, and hold
only the live edges and one chunk.
Exit codes: 0 success, 2 bad input, 3 no sparsifier copy qualified,
4 internal invariant violation.
"""

import argparse
import contextlib
import json
import random
import sys
from dataclasses import asdict

from . import __version__
from .baselines import DoulionCounter, check_keep_probability
from .estimator import NoQualifiedCopiesError, derive_config, estimate_triangles
from .generators import (
    complete_bipartite_edges,
    complete_edges,
    edges_to_events,
    gnp_edges,
    path_edges,
    planted_cluster_edges,
    star_edges,
    with_churn,
)
from .hashing import mix2
from .indep_paths import HasIsolatedEdgesError, NotConnectedError, verify_lower_bounds
from .oracles import graph_stats
from .stream_core import (
    MAX_ID,
    AdjacencyGraph,
    EdgeEvent,
    StreamConfig,
    net_chunks,
    read_chunks,
    write_stream,
)

# Unused here, but bench/spans.py wraps these names on this module.
from .stream_core import materialize, read_stream  # noqa: F401


def _open_stream(path: str):
    """The stream file opened as text; ``-`` is standard input, left open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8")


def _live_edges(path: str, n: int | None) -> tuple[list[tuple[int, int]], int]:
    """The edges live at the end of a stream file, sorted, and the universe to echo.

    The file is read and checked chunk by chunk, as ``estimate`` reads it:
    the first violation in file order is reported, and memory is
    O(live edges + chunk).  The universe is ``n``, or else ``MAX_ID``, with
    no capacity bound; ``StreamConfig`` refuses an ``n`` below 2 or above
    ``MAX_ID`` before the file is opened.  ``net_chunks`` keys the edges
    over the ids it has read, not over the universe, so a file of small ids
    takes its packed path with or without ``n``.  The echo is ``n``, or else
    the largest endpoint read (at least 2).
    """
    universe = n if n is not None else MAX_ID
    cfg = StreamConfig(n=universe, m_max=sys.maxsize)
    top = 2

    def tracked(chunks):
        nonlocal top
        for chunk in chunks:
            top = max(top, int(chunk[1].max()))
            yield chunk
            del chunk  # not held while the next chunk is read

    with _open_stream(path) as f:
        chunks = tracked(read_chunks(f, universe))
        us, vs = net_chunks(chunks, cfg)
    return list(zip(us.tolist(), vs.tolist())), (n if n is not None else top)


def _graph_of(edges) -> AdjacencyGraph:
    """An ``AdjacencyGraph`` of a list of distinct edges."""
    graph = AdjacencyGraph()
    for u, v in edges:
        graph.insert(u, v)
    return graph


def _final_graph(path: str, n: int | None) -> tuple[AdjacencyGraph, int]:
    """The graph live at the end of a stream file, and the universe to echo."""
    edges, n = _live_edges(path, n)
    return _graph_of(edges), n


# -- commands (each returns (payload | None, exit_code)) ----------------


def _cmd_estimate(args):
    cfg = derive_config(
        n=args.n,
        m_max=args.m_max,
        epsilon=args.epsilon,
        delta=args.delta,
        alpha_min=args.alpha_min,
        seed=args.seed,
        k_override=args.k_override,
        s_override=args.s_override,
        colors_override=args.colors_override,
    )
    with _open_stream(args.stream) as f:
        # reads and checks the stream chunk by chunk, first violation in file order
        report = estimate_triangles(read_chunks(f, args.n), cfg)
    payload = report.to_dict(diagnostics=args.diagnostics)
    payload["config"] = asdict(cfg)
    return payload, 0


def _cmd_exact(args):
    graph, n = _final_graph(args.stream, args.n)
    return {"config": {"n": n}, **asdict(graph_stats(graph))}, 0


# Each gen family: the types of its size parameters, and a builder that
# takes them and the seed and returns (edges, n).
_FAMILIES = {
    "complete": ((int,), lambda n, seed: (complete_edges(n), n)),
    "path": ((int,), lambda n, seed: (path_edges(n), n)),
    "star": ((int,), lambda n, seed: (star_edges(n), n)),
    "bipartite-complete": ((int, int), lambda a, b, seed: (complete_bipartite_edges(a, b), a + b)),
    "gnp": ((int, float), lambda n, p, seed: (gnp_edges(n, p, seed=seed), n)),
    "planted-triangles": ((int, int), lambda t, w, seed: planted_cluster_edges(t, w)),
}


def _cmd_gen(args):
    if not (0 <= args.delete_fraction < 1):
        raise ValueError(f"--delete-fraction must be in [0, 1), got {args.delete_fraction}")
    types, build = _FAMILIES[args.family]
    if len(args.params) != len(types):
        raise ValueError(
            f"family {args.family!r} takes {len(types)} size parameter(s), got {len(args.params)}"
        )
    edges, n = build(*(t(p) for t, p in zip(types, args.params)), args.seed)
    if args.delete_fraction > 0:
        decoys = int(args.delete_fraction * len(edges) + 0.5)
        events, n = with_churn(edges, decoys, seed=args.seed, n_base=n)
    else:
        events = edges_to_events(edges)
    sys.stdout.write(f"# n={n}\n")
    write_stream(events, sys.stdout)
    return None, 0


def _sweep_fixture(rng: random.Random):
    """One random connected, no-isolated-edge graph as an adjacency dict."""
    while True:
        n = rng.randint(4, 16)
        p = rng.uniform(0.2, 0.7)
        edges = gnp_edges(n, p, seed=rng.randrange(2**32))
        if not edges:
            continue
        try:
            return verify_lower_bounds(_graph_of(edges).adj)
        except (NotConnectedError, HasIsolatedEdgesError):
            continue


def _cmd_verify(args):
    if args.sweep is not None:
        if args.stream is not None:
            raise ValueError("verify-lemmas takes a stream file or --sweep, not both")
        if args.sweep < 1:
            raise ValueError(f"--sweep must be positive, got {args.sweep}")
        rng = random.Random(args.seed)
        violations = 0
        for _ in range(args.sweep):
            rep = _sweep_fixture(rng)
            if not (rep.connected_ok and rep.general_ok and rep.bipartite_ok is not False):
                violations += 1
        payload = {"config": {"sweep": args.sweep}, "fixtures": args.sweep, "violations": violations}
    else:
        if args.stream is None:
            raise ValueError("verify-lemmas needs a stream file or --sweep")
        graph, n = _final_graph(args.stream, None)
        rep = verify_lower_bounds(graph.adj)
        violations = (
            int(not rep.connected_ok)
            + int(not rep.general_ok)
            + int(rep.bipartite_ok is False)
        )
        payload = {"config": {"n": n}, "report": asdict(rep), "violations": violations}
    return payload, (4 if violations else 0)


def _cmd_doulion(args):
    check_keep_probability(args.p, "--p")
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    edges, n = _live_edges(args.stream, args.n)
    # the coin is a hash of the edge, so the final live edges keep the same graph
    live = [EdgeEvent(u, v, 1) for u, v in edges]
    estimates = []
    for t in range(args.trials):
        counter = DoulionCounter(n, args.p, seed=mix2(args.seed, t))
        counter.update_many(live)
        estimates.append(counter.estimate())
    payload = {
        "config": {"n": n, "p": args.p, "trials": args.trials},
        "estimate": sum(estimates) / len(estimates),
        "trials": args.trials,
        "p": args.p,
    }
    return payload, 0


# -- driver --------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "human":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _fail(args, err: Exception, code: int) -> int:
    detail = {"type": type(err).__name__, "message": str(err)}
    line = getattr(err, "line", None)
    if line is not None:
        detail["line"] = line
    payload = {
        "command": args.command,
        "error": detail,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }
    _emit(payload, getattr(args, "format", "json"))
    return code


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tristream",
        description="Streaming triangle and transitivity estimation over edge insert/delete streams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the sparsify-then-sample estimator")
    est.set_defaults(handler=_cmd_estimate)
    est.add_argument("stream", help="stream file, or - for stdin")
    est.add_argument("--n", type=int, required=True, help="vertex universe size")
    est.add_argument("--m-max", type=int, required=True, help="live-edge capacity bound")
    est.add_argument("--epsilon", type=float, default=0.3)
    est.add_argument("--delta", type=float, default=0.1)
    est.add_argument("--alpha-min", type=float, default=0.05)
    est.add_argument("--k-override", type=int, default=None, help="force the number of copies")
    est.add_argument("--s-override", type=int, default=None, help="force the certification threshold")
    est.add_argument("--colors-override", type=int, default=None, help="force the palette size")
    est.add_argument("--diagnostics", action="store_true", help="also print one record per copy")

    exa = sub.add_parser("exact", help="exact statistics of the final graph")
    exa.set_defaults(handler=_cmd_exact)
    exa.add_argument("stream", help="stream file, or - for stdin")
    exa.add_argument("--n", type=int, default=None, help="universe size (default: max endpoint)")

    gen = sub.add_parser("gen", help="write a generated stream to stdout")
    gen.set_defaults(handler=_cmd_gen)
    gen.add_argument("family", choices=tuple(_FAMILIES))
    gen.add_argument("params", nargs="*", help="size parameters for the family")
    gen.add_argument("--delete-fraction", type=float, default=0.0)

    ver = sub.add_parser("verify-lemmas", help="check independent-2-path lower bounds")
    ver.set_defaults(handler=_cmd_verify)
    ver.add_argument("stream", nargs="?", default=None, help="stream file, or - for stdin")
    ver.add_argument("--sweep", type=int, default=None, help="run this many random fixtures instead")

    dou = sub.add_parser("doulion", help="coin-flip sampling baseline")
    dou.set_defaults(handler=_cmd_doulion)
    dou.add_argument("stream", help="stream file, or - for stdin")
    dou.add_argument("--p", type=float, required=True, help="edge keep probability")
    dou.add_argument("--trials", type=int, default=1)
    dou.add_argument("--n", type=int, default=None, help="universe size (default: max endpoint)")

    for p in (est, exa, gen, ver, dou):
        p.add_argument("--seed", type=int, default=0)
    for p in (est, exa, ver, dou):
        p.add_argument("--format", choices=("json", "human"), default="json")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except NoQualifiedCopiesError as err:
        return _fail(args, err, 3)
    except (ValueError, OverflowError, OSError) as err:
        return _fail(args, err, 2)
    except RuntimeError as err:
        return _fail(args, err, 4)
    if payload is not None:
        payload["command"] = args.command
        payload["seed"] = args.seed
        payload["version"] = __version__
        _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
