"""Benchmark corpus and table output shared by the CLI and the test suite."""

from __future__ import annotations

import time
from fractions import Fraction
from multiprocessing import Pool
from typing import Optional

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
        specs.append(GraphSpec("random-gnm", (n, m), seed))
    bip_sizes = [(5, 5, 12), (6, 8, 20), (10, 10, 35)]
    for seed in range(9):
        a, b, m = bip_sizes[seed % len(bip_sizes)]
        specs.append(GraphSpec("random-bipartite", (a, b, m), seed))
    return specs


def run_one(spec: GraphSpec, epsilon, check_invariants: bool = True,
            with_oracle: bool = True) -> dict:
    """Run one corpus instance and report the facts the tables need."""
    stream = open_stream(spec)
    eps = Fraction(epsilon)
    started = time.perf_counter()
    report = driver.run(stream, driver.RunConfig(
        epsilon=eps, check_invariants=check_invariants))
    elapsed = time.perf_counter() - started
    row = {
        "spec": str(spec),
        "n": report.n,
        "m": report.m,
        "epsilon": str(report.epsilon_effective),
        "matching_size": report.matching.size,
        "passes": report.passes,
        "expected_passes": driver.expected_pass_count(report.epsilon_effective),
        "seconds": round(elapsed, 3),
    }
    if with_oracle:
        nu = oracle.matching_size(report.n, stream.snapshot_edges())
        row["nu"] = nu
        row["guarantee_ok"] = (1 + report.epsilon_effective) * report.matching.size >= nu
    return row


def _run_one_task(args) -> dict:
    spec, epsilon = args
    return run_one(spec, epsilon)


def acceptance_tasks(max_n_quarter: int = 40) -> list[tuple[GraphSpec, Fraction]]:
    """The corpus crossed with epsilon in {1, 1/2, 1/4}; the tightest
    epsilon only runs on instances up to ``max_n_quarter`` vertices."""
    tasks: list[tuple[GraphSpec, Fraction]] = []
    for spec in corpus():
        n = open_stream(spec).vertex_count
        tasks.append((spec, Fraction(1)))
        tasks.append((spec, Fraction(1, 2)))
        if n <= max_n_quarter:
            tasks.append((spec, Fraction(1, 4)))
    return tasks


def run_corpus(workers: Optional[int] = None,
               tasks: Optional[list[tuple[GraphSpec, Fraction]]] = None) -> list[dict]:
    if tasks is None:
        tasks = acceptance_tasks()
    if workers and workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_run_one_task, tasks)
    else:
        rows = [_run_one_task(t) for t in tasks]
    return rows


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
