"""Smoke tests of the benchmark on tiny graphs, one per workload shape.

    python3 -m pytest perfbench

The tiny graphs are pinned from the command line tool (``run``, ``trace``,
``verify``), not from the benchmark, so the benchmark's checks are compared
with an independent route.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs HERE on sys.path; puts src on sys.path)
from streammatch import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# name -> (graph, job); the default seed 1 keeps the pinned labels.
TINY = {
    "tiny-gnm": ("gnm:60,200,seed=1", "solve"),
    "tiny-bipartite": ("bipartite:30,30,100,seed=2", "solve"),
    "tiny-verify": ("gnm:60,200,seed=1", "verify"),
}


def cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def workloads(tmp_path_factory) -> dict:
    folder = tmp_path_factory.mktemp("pins")
    entries = {}
    for name, (graph, job) in TINY.items():
        report = cli_json(["run", "--gen", graph, "--epsilon", "0.5"])
        trace_file = folder / f"{name}.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["trace", "--gen", graph, "--epsilon", "0.5", "--out", str(trace_file)])
        trace = trace_file.read_bytes()
        pins = {"matching_size": report["matching_size"], "passes": report["passes"],
                "trace_sha256": hashlib.sha256(trace).hexdigest(),
                "trace_sorted_sha256": run.sha256_lines(sorted(trace.decode().splitlines()))}
        if job == "verify":
            pins["nu"] = cli_json(["verify", "--gen", graph, "--epsilon", "0.5",
                                   "--oracle", "tutte"])["nu"]
        entries[name] = {"graph": graph, "default_seed": 1, "job": job, "pins": pins}
    return entries


def bench(tmp_path, entries: dict, workload: str, seed: int, trace: int, cwd=ROOT):
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps(entries))
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workloads", str(path),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_unit(tmp_path, workloads, workload, seed, trace):
    proc = bench(tmp_path, workloads, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # the untimed trace-checked solve, then at least MIN_ITERATIONS timed ones
    assert result["attempted"] >= 1 + run.MIN_ITERATIONS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["failed_share"] == "share"
    if trace == 0:
        assert result["metrics"]["matching_size"]["value"] == \
            workloads[workload]["pins"]["matching_size"]
    if trace == 1 and TINY[workload][1] == "verify":
        assert result["metrics"]["invariants.boundary_calls"]["value"] > 0
        assert result["metrics"]["oracle.rank_s"]["value"] > 0


@pytest.mark.parametrize("pin,seed", [("matching_size", 7), ("passes", 7),
                                      ("trace_sha256", 1), ("trace_sorted_sha256", 7),
                                      ("nu", 7)])
def test_wrong_pin_fails_every_job(tmp_path, workloads, pin, seed):
    entries = json.loads(json.dumps(workloads))
    pins = entries["tiny-verify"]["pins"]
    pins[pin] = pins[pin] + 1 if isinstance(pins[pin], int) else "0" * 64
    proc = bench(tmp_path, entries, "tiny-verify", seed, 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in proc.stderr


def test_exact_trace_pin_only_checked_at_default_seed(tmp_path, workloads):
    entries = json.loads(json.dumps(workloads))
    entries["tiny-gnm"]["pins"]["trace_sha256"] = "0" * 64
    assert bench(tmp_path, entries, "tiny-gnm", 7, 0).returncode == 0
    assert bench(tmp_path, entries, "tiny-gnm", 1, 0).returncode == 1


def test_self_check_rejects_misattributed_reads():
    expected = run.driver.expected_pass_count(run.EPSILON)
    good = {"stream.physical_passes": 7, "phase.bundles": 2, "phase.phases": 1,
            "stream.charged_passes": expected - 7, "driver.phases_executed": 1}
    assert run.self_check(good) == []
    assert len(run.self_check({**good, "phase.bundles": 3})) == 1
    assert len(run.self_check({**good, "stream.charged_passes": 0})) == 1
    assert len(run.self_check({**good, "phase.phases": 2})) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-checked",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
