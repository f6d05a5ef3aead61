"""The benchmark's pinned outputs hold in the tier-1 suite too.

``perfbench/workloads.json`` pins, for each workload graph at eps = 1/2,
the SHA-256 of the JSONL trace (as ``streammatch trace`` writes it), the
pass count and the matching size.  Checking the two cheaper workloads here
makes a change to the engine's output fail the tests, not only the
benchmark.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from streammatch import driver
from streammatch.stream import open_stream, parse_graph_spec

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


@pytest.mark.parametrize("name", ["bipartite-sparse", "verify-checked"])
def test_workload_pins(name):
    entry = json.loads(WORKLOADS.read_text(encoding="utf-8"))[name]
    pins = entry["pins"]
    events = []
    report = driver.run(open_stream(parse_graph_spec(entry["graph"])),
                        driver.RunConfig(epsilon=Fraction(1, 2), trace=events.append))
    trace = "".join(json.dumps(event) + "\n" for event in events)
    assert hashlib.sha256(trace.encode()).hexdigest() == pins["trace_sha256"]
    assert report.passes == pins["passes"]
    assert report.matching_size == pins["matching_size"]
