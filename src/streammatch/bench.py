"""Benchmark corpus and table output shared by the CLI and the test suite."""

from __future__ import annotations

import time
from fractions import Fraction

from . import driver, oracle
from .stream import GraphSpec, open_stream


def corpus() -> list[GraphSpec]:
    """Desk-scale corpus: all paths and cycles up to 50 vertices, small
    complete graphs, the Petersen graph, and seeded random graphs."""
    specs: list[GraphSpec] = []
    specs.extend(GraphSpec("path", (n,)) for n in range(2, 51))
    specs.extend(GraphSpec("cycle", (n,)) for n in range(3, 51))
    specs.extend(GraphSpec("complete", (n,)) for n in range(2, 13))
    specs.append(GraphSpec("petersen"))
    gnm_sizes = [(8, 12), (10, 20), (12, 18), (12, 30), (14, 28), (16, 40),
                 (20, 50), (24, 70), (30, 100), (40, 150), (50, 220), (60, 400)]
    for seed in range(100):
        n, m = gnm_sizes[seed % len(gnm_sizes)]
        specs.append(GraphSpec("gnm", (n, m), seed))
    bip_sizes = [(5, 5, 12), (6, 8, 20), (10, 10, 35)]
    for seed in range(9):
        a, b, m = bip_sizes[seed % len(bip_sizes)]
        specs.append(GraphSpec("bipartite", (a, b, m), seed))
    return specs


def run_one(spec: GraphSpec, epsilon) -> dict:
    """Run one corpus instance, checked, and report the facts the tables
    need, the oracle's matching size among them; ``guarantee_ok`` holds
    when the run keeps every bound ``streammatch verify`` checks."""
    stream = open_stream(spec)
    eps = Fraction(epsilon)
    started = time.perf_counter()
    report = driver.run(stream, driver.RunConfig(epsilon=eps, check_invariants=True))
    elapsed = time.perf_counter() - started
    nu = oracle.matching_size(report.n, stream.snapshot_edges())
    return {
        "spec": str(spec),
        "n": report.n,
        "m": report.m,
        "epsilon": str(report.epsilon_effective),
        "matching_size": report.matching.size,
        "passes": report.passes,
        "expected_passes": driver.expected_pass_count(report.epsilon_effective),
        "seconds": round(elapsed, 3),
        "nu": nu,
        "guarantee_ok": report.guarantee_failure(nu) is None,
    }


def acceptance_tasks() -> list[tuple[GraphSpec, Fraction]]:
    """The corpus crossed with epsilon in {1, 1/2, 1/4}; the tightest
    epsilon only runs on instances up to 40 vertices."""
    tasks: list[tuple[GraphSpec, Fraction]] = []
    for spec in corpus():
        n = open_stream(spec).vertex_count
        tasks.append((spec, Fraction(1)))
        tasks.append((spec, Fraction(1, 2)))
        if n <= 40:
            tasks.append((spec, Fraction(1, 4)))
    return tasks


def run_corpus() -> list[dict]:
    """Run every acceptance task, in order."""
    return [run_one(spec, epsilon) for spec, epsilon in acceptance_tasks()]


def format_table(rows: list[dict]) -> str:
    headers = ["spec", "n", "m", "epsilon", "matching_size", "nu",
               "guarantee_ok", "passes", "seconds"]
    widths = {h: len(h) for h in headers}
    cells = []
    for row in rows:
        line = [str(row.get(h, "")) for h in headers]
        cells.append(line)
        for h, c in zip(headers, line):
            widths[h] = max(widths[h], len(c))
    out = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for line in cells:
        out.append("  ".join(c.ljust(widths[h]) for h, c in zip(headers, line)))
    return "\n".join(out)
