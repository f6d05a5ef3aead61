"""Command-line entry points: run, verify, gen, bench, and trace, which is
``run --trace`` under its old name.

Exit codes: 0 success, 1 usage or I/O failure, 2 approximation-guarantee
violation, 3 invariant violation (or invalid matching or augmenting path),
4 pass-count mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import NoReturn, Optional

from . import bench, driver, oracle
from .invariants import InvariantViolationError
from .stream import (EdgeStream, open_stream, parse_graph_spec, read_edgelist,
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


def _parse_epsilon(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {text!r} has a zero denominator") from None
    driver.normalize_epsilon(eps)  # rejects eps outside (0, 1] before any work
    return eps


def _open(args) -> EdgeStream:
    if args.gen is None:
        return EdgeStream(*read_edgelist(args.input))
    return open_stream(parse_graph_spec(args.gen))


def _write_matching(report: driver.RunReport, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for u, v in report.matching.pairs():
            fh.write(f"{u} {v}\n")


def cmd_run(args) -> int:
    stream = _open(args)
    with (open(args.trace, "w", encoding="ascii") if args.trace
          else nullcontext()) as fh:
        # Each event is written as one JSON line as it arrives.
        trace = None if fh is None else lambda event: fh.write(json.dumps(event) + "\n")
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
    eps = _parse_epsilon(args.epsilon)
    nu = oracle.matching_size(stream.vertex_count, stream.snapshot_edges())
    # A checked run raises on an invalid matching or a pass-count mismatch.
    report = driver.run(stream, driver.RunConfig(epsilon=eps, check_invariants=True))
    failure = report.guarantee_failure(nu)
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_GUARANTEE
    print(json.dumps({"ok": True, "matching_size": report.matching.size,
                      "nu": nu, "passes": report.passes}, indent=2))
    return EXIT_OK


def cmd_gen(args) -> int:
    stream = _open(args)
    with (open(args.out, "w", encoding="ascii") if args.out
          else nullcontext(sys.stdout)) as fh:
        write_edgelist(stream, fh)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench.run_corpus()
    print(bench.format_table(rows))
    bad = [r for r in rows if not r.get("guarantee_ok", True)]
    return EXIT_OK if not bad else EXIT_GUARANTEE


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_USAGE``:
    argparse's own status 2 would read as a guarantee violation."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streammatch",
        description="Multi-pass streaming approximate maximum matching")
    sub = parser.add_subparsers(dest="command", required=True)

    gen_help = "generator spec, e.g. path:4 or gnm:20,50,seed=7"

    def add_source(p):
        """A graph from exactly one of ``--input`` and ``--gen``, and
        ``--epsilon``: the arguments of a command that solves."""
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="edge-list file (first line 'n m')")
        source.add_argument("--gen", help=gen_help)
        p.add_argument("--epsilon", default="0.5",
                       help="approximation parameter in (0, 1]")

    p_run = sub.add_parser("run", help="compute a matching and print a JSON report")
    add_source(p_run)
    p_run.add_argument("--out", help="write the matching as 'u v' lines")
    p_run.add_argument("--trace", help="write JSONL engine events")
    p_run.add_argument("--check-invariants", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run with checks and oracle comparison")
    add_source(p_verify)
    p_verify.add_argument("--oracle", choices=["auto", "tutte"], default="auto",
                          help="both values run the certified oracle")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    p_gen.add_argument("--gen", required=True, help=gen_help)
    p_gen.add_argument("--out", help="output file (stdout if omitted)")
    p_gen.set_defaults(func=cmd_gen)

    p_trace = sub.add_parser("trace", help="run, writing the JSONL engine events")
    add_source(p_trace)
    p_trace.add_argument("--out", dest="trace", required=True,
                         help="write JSONL engine events")
    p_trace.set_defaults(func=cmd_run, out=None, check_invariants=False)

    p_bench = sub.add_parser("bench", help="run the built-in corpus and print a table")
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
