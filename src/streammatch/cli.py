"""Command-line entry points: run, verify, gen, trace, bench.

Exit codes: 0 success, 1 usage or I/O failure, 2 approximation-guarantee
violation, 3 invariant violation (or invalid matching or augmenting path),
4 pass-count mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from . import bench, driver, oracle
from .invariants import InvariantViolationError
from .stream import (EdgeStream, GraphSpec, open_stream, parse_graph_spec,
                     write_edgelist)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARANTEE = 2
EXIT_INVARIANT = 3
EXIT_PASSES = 4

# The one place that maps a failure escaping a command to its exit code and
# the label of its one-line message; the most specific type listed wins.
FAILURES: dict[type, tuple[int, str]] = {
    OSError: (EXIT_USAGE, "error"),
    ValueError: (EXIT_USAGE, "error"),       # includes StreamFormatError
    InvariantViolationError: (EXIT_INVARIANT, "invariant violation"),
    driver.PassCountMismatch: (EXIT_PASSES, "pass-count mismatch"),
}


def _resolve_spec(args) -> GraphSpec:
    if bool(args.input) == bool(args.gen):
        raise SystemExit("exactly one of --input and --gen is required")
    if args.input:
        return GraphSpec("edgelist-file", path=args.input)
    spec = parse_graph_spec(args.gen)
    if args.seed is not None and "seed=" not in args.gen:
        spec = replace(spec, seed=args.seed)
    return spec


def _parse_epsilon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {text!r} has a zero denominator") from None


def _open(args) -> EdgeStream:
    return open_stream(_resolve_spec(args))


def _write_matching(report: driver.RunReport, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for u, v in report.matching.pairs():
            fh.write(f"{u} {v}\n")


class _TraceFile:
    """Trace callback that writes each event to a file as one JSON line,
    as the event arrives."""

    def __init__(self, path: str):
        self.fh = open(path, "w", encoding="ascii")
        self.events = 0

    def __call__(self, event: dict) -> None:
        self.fh.write(json.dumps(event) + "\n")
        self.events += 1

    def __enter__(self) -> "_TraceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


def cmd_run(args) -> int:
    stream = _open(args)
    with (_TraceFile(args.trace) if args.trace else nullcontext()) as trace:
        report = driver.run(stream, driver.RunConfig(
            epsilon=_parse_epsilon(args.epsilon),
            check_invariants=args.check_invariants,
            trace=trace))
    print(json.dumps(report.as_dict(), indent=2))
    if args.out:
        _write_matching(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    stream = _open(args)
    eps = driver.normalize_epsilon(_parse_epsilon(args.epsilon))
    # A checked run raises on an invalid matching or a pass-count mismatch.
    report = driver.run(stream, driver.RunConfig(epsilon=eps, check_invariants=True))
    nu = None
    if args.oracle != "none":
        size = {"auto": oracle.matching_size,
                "exhaustive": oracle.exact_matching_exhaustive,
                "tutte": oracle.matching_size_rank}[args.oracle]
        nu = size(stream.vertex_count, stream.snapshot_edges())
    if nu is not None:
        if (1 + report.epsilon_effective) * report.matching.size < nu:
            print(f"guarantee violated: (1+eps)*{report.matching.size} < nu={nu}",
                  file=sys.stderr)
            return EXIT_GUARANTEE
        l_max = 3 / report.epsilon_effective
        for row in report.per_scale:
            bound = (1 + 4 * row.h * l_max) * (1 + 1 / l_max) * row.matching_size
            if nu > bound:
                print(f"scale-end bound violated at h={row.h}: nu={nu} > {bound}",
                      file=sys.stderr)
                return EXIT_GUARANTEE
    print(json.dumps({"ok": True, "matching_size": report.matching.size,
                      "nu": nu, "passes": report.passes}, indent=2))
    return EXIT_OK


def cmd_gen(args) -> int:
    if not args.gen:
        raise SystemExit("gen requires --gen")
    spec = parse_graph_spec(args.gen)
    if args.seed is not None and "seed=" not in args.gen:
        spec = replace(spec, seed=args.seed)
    stream = open_stream(spec)
    if args.out:
        write_edgelist(stream, args.out)
    else:
        print(f"{stream.vertex_count} {stream.edge_count}")
        for u, v in sorted((min(u, v), max(u, v))
                           for u, v in stream.snapshot_edges()):
            print(f"{u} {v}")
    return EXIT_OK


def cmd_trace(args) -> int:
    if not args.out:
        raise SystemExit("trace requires --out")
    stream = _open(args)
    with _TraceFile(args.out) as trace:
        driver.run(stream, driver.RunConfig(
            epsilon=_parse_epsilon(args.epsilon), trace=trace))
    print(f"wrote {trace.events} events to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench.run_corpus(workers=args.workers)
    print(bench.format_table(rows))
    bad = [r for r in rows if not r.get("guarantee_ok", True)]
    return EXIT_OK if not bad else EXIT_GUARANTEE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streammatch",
        description="Multi-pass streaming approximate maximum matching")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, epsilon=True):
        p.add_argument("--input", help="edge-list file (first line 'n m')")
        p.add_argument("--gen", help="generator spec, e.g. path:4 or gnm:20,50,seed=7")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for random generators without an explicit seed")
        if epsilon:
            p.add_argument("--epsilon", default="0.5",
                           help="approximation parameter in (0, 1]")

    p_run = sub.add_parser("run", help="compute a matching and print a JSON report")
    add_common(p_run)
    p_run.add_argument("--out", help="write the matching as 'u v' lines")
    p_run.add_argument("--trace", help="write JSONL engine events")
    p_run.add_argument("--check-invariants", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run with checks and oracle comparison")
    add_common(p_verify)
    p_verify.add_argument("--oracle", choices=["none", "exhaustive", "tutte", "auto"],
                          default="auto")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    add_common(p_gen, epsilon=False)
    p_gen.add_argument("--out", help="output file (stdout if omitted)")
    p_gen.set_defaults(func=cmd_gen)

    p_trace = sub.add_parser("trace", help="run and write the JSONL event trace")
    add_common(p_trace)
    p_trace.add_argument("--out", help="trace output file", required=False)
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser("bench", help="run the built-in corpus and print a table")
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, label = next(FAILURES[t] for t in type(exc).__mro__ if t in FAILURES)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
