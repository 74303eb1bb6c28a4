"""Command-line front end: check, decompose, orient, gen, oracle, bench.

Exit codes: 0 means sparse (or plain success for gen/bench), 1 means a
certified violation was found, 2 means invalid input or parameters, and 3
means an internal error, so that a crash never reads as a violation.
Set SPARSITY_LOG=info or SPARSITY_LOG=debug for diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import traceback

from .forests import forest_decomposition
from .graph import (Graph, InputError, ParameterError, SparsityParams, format_edge_list,
                    parse_edge_list)
from .oracles import GENERATOR_KINDS, GenSpec, brute_force_check, generate, pebble_game_check
from .orient import bounded_orientation
from .recognize import certificate_json, check_sparsity

logger = logging.getLogger(__name__)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _cmd_check(args) -> int:
    g = _read_graph(args.file)
    result = check_sparsity(g, args.k, args.l)
    if result.sparse:
        print("sparse")
        return 0
    print(certificate_json(SparsityParams(args.k, args.l), result.certificate))
    return 1


def _cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    cert, fd = forest_decomposition(g, args.kappa)
    if cert is None:
        for i in range(fd.kappa):
            print(f"forest {i}: " + " ".join(str(e) for e in fd.class_edges(i)))
        return 0
    print(certificate_json(SparsityParams(args.kappa, args.kappa), cert))
    return 1


def _cmd_orient(args) -> int:
    g = _read_graph(args.file)
    cert, d = bounded_orientation(g, args.kappa)
    if cert is None:
        for e in range(g.m):
            print(f"{e}: {d.tail[e]}->{d.head[e]}")
        return 0
    print(certificate_json(SparsityParams(args.kappa, 0), cert))
    return 1


def _cmd_gen(args) -> int:
    g = generate(GenSpec(args.kind, args.n, args.k, args.l, args.seed))
    sys.stdout.write(format_edge_list(g))
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    p = SparsityParams(args.k, args.l)
    if args.method == "brute":
        cert = brute_force_check(g, p)
    else:
        cert = pebble_game_check(g, p)
    if cert is None:
        print("sparse")
        return 0
    print("not sparse")
    print(certificate_json(p, cert))
    return 1


def _bench_one(job: tuple[str, int, int, str, int, int]) -> str:
    algorithm, k, l, kind, n, seed = job
    g = generate(GenSpec(kind, n, k, l, seed))
    p = SparsityParams(k, l)
    start = time.perf_counter_ns()
    if algorithm == "main":
        sparse = check_sparsity(g, k, l).sparse
    else:
        sparse = pebble_game_check(g, p) is None
    elapsed = time.perf_counter_ns() - start
    verdict = "sparse" if sparse else "not-sparse"
    return f"{algorithm},{k},{l},{n},{g.m},{seed},{elapsed},{verdict}"


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    algorithms = [a for a in args.algorithms.split(",") if a]
    for a in algorithms:
        if a not in ("main", "pebble"):
            raise ParameterError(f"unknown algorithm {a!r}")
    jobs = []
    index = 0
    for n in sizes:
        for _ in range(args.reps):
            seed = args.seed + 1_000_000 * index
            index += 1
            for algorithm in algorithms:
                jobs.append((algorithm, args.k, args.l, args.kind, n, seed))
    print("algorithm,k,l,n,m,seed,ns,verdict")
    for job in jobs:
        print(_bench_one(job))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="klsparse",
                                     description="(k,l)-sparse graph recognition tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide (k,l)-sparsity of an edge-list file")
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--l", type=int, required=True)
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_dec = sub.add_parser("decompose", help="partition edges into kappa forests")
    p_dec.add_argument("--kappa", type=int, required=True)
    p_dec.add_argument("file")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ori = sub.add_parser("orient", help="kappa-indegree-bounded orientation")
    p_ori.add_argument("--kappa", type=int, required=True)
    p_ori.add_argument("file")
    p_ori.set_defaults(func=_cmd_orient)

    p_gen = sub.add_parser("gen", help="generate a seeded instance on stdout")
    p_gen.add_argument("--kind", choices=GENERATOR_KINDS, default="random-edges")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--l", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    p_ora = sub.add_parser("oracle", help="run a ground-truth oracle")
    p_ora.add_argument("--method", choices=("brute", "pebble"), required=True)
    p_ora.add_argument("--k", type=int, required=True)
    p_ora.add_argument("--l", type=int, required=True)
    p_ora.add_argument("file")
    p_ora.set_defaults(func=_cmd_oracle)

    p_bench = sub.add_parser("bench", help="timing harness, CSV on stdout")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--l", type=int, required=True)
    p_bench.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--algorithms", default="main,pebble")
    p_bench.add_argument("--kind", choices=GENERATOR_KINDS, default="random-edges")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("SPARSITY_LOG", "off").lower()
    if level_name == "off":
        return
    levels = {"info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown SPARSITY_LOG level {level_name!r}", file=sys.stderr)
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("klsparse")
    root.addHandler(handler)
    root.setLevel(levels[level_name])


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParameterError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
