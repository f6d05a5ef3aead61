"""The benchmark's pinned outputs hold in the tier-1 suite too.

``perfbench/workloads.json`` pins, for each workload graph at eps = 1/2,
the SHA-256 of the JSONL trace (as ``streammatch trace`` writes it), the
pass count and the matching size.  Checking them here makes a change to
the engine's output fail the tests, not only the benchmark.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from streammatch import cli, driver
from streammatch.stream import open_stream, parse_graph_spec

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.json"


def load(name):
    return json.loads(WORKLOADS.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name, checked", [
    pytest.param("blossom-deep", False, id="blossom-deep"),
    pytest.param("bipartite-sparse", False, id="bipartite-sparse"),
    pytest.param("verify-checked", False, id="verify-checked"),
    # 750 contractions nested 360 deep: the checker must keep up with them.
    pytest.param("blossom-deep", True, id="blossom-deep-checked"),
])
def test_workload_pins(name, checked):
    entry = load(name)
    pins = entry["pins"]
    events = []
    report = driver.run(open_stream(parse_graph_spec(entry["graph"])),
                        driver.RunConfig(epsilon=Fraction(1, 2), trace=events.append,
                                         check_invariants=checked))
    trace = "".join(json.dumps(event) + "\n" for event in events)
    assert hashlib.sha256(trace.encode()).hexdigest() == pins["trace_sha256"]
    assert report.passes == pins["passes"]
    assert report.matching_size == pins["matching_size"]


@pytest.mark.parametrize("graph, digest", [
    ("gnm:1000,3000,seed=1",
     "0202e81a48aefa710a585d724af965d7ed03921d273523f543559d17dd6741a4"),
    ("gnm:300,900,seed=1",
     "5e749d194859649be6a562445d6ec0d2980e7cc2d01ca9589257c66db6d91483"),
], ids=["gnm-1000", "gnm-300"])
def test_quarter_epsilon_trace_pins(tmp_path, capsys, graph, digest):
    out = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--gen", graph, "--epsilon", "0.25", "--trace", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_trace_is_identical_across_processes_and_hash_seeds(tmp_path):
    entry = load("verify-checked")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    traces = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "streammatch.cli", "run",
                        "--gen", entry["graph"], "--trace", str(out)],
                       check=True, capture_output=True, env=env)
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    assert hashlib.sha256(traces[0]).hexdigest() == entry["pins"]["trace_sha256"]
