"""Benchmark of the streammatch engine: set-up, solve and verify time.

    python3 perfbench/run.py --workload blossom-deep --seed 1 --seconds 30 --trace 0

Each workload is a batch job run as a closed loop with one caller, in this
single process.  The graph of a workload is pinned in ``workloads.json``;
``--seed`` relabels its vertices by a seeded permutation (the default seed
keeps the pinned labels), which changes every vertex id the engine sees
but not the work it does, so runs on different seeds are comparable.
Every job's output is checked against the pins.

``--trace 0`` prints the end-to-end metrics of untraced jobs.  ``--trace 1``
wraps the layers (see ``layers.py``), prints the per-layer metrics of
traced solves and the tracing overhead, and self-checks the read
attribution.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every check held; otherwise it is 1, or 2 for bad
arguments.  Without ``src/streammatch`` beside this directory the
benchmark exits with 1 before measuring anything.

End-to-end times are reported in reference seconds (see ``SpeedProbe``);
the raw wall-clock medians are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EPSILON = Fraction(1, 2)
SETUP_REPEATS = 5       # extra stream builds per run, for the setup_s median
MIN_ITERATIONS = 3      # timed iterations per run even when --seconds runs out
SOLVES_PER_VERIFY = 4   # verify workload: unchecked solves per checked job

END_TO_END = {"setup_s": "s", "solve_s": "s", "job_s": "s",
              "peak_rss_mb": "MB", "matching_size": "count"}
TRACE_METRICS = {"trace.traced_solve_s": "s", "trace.untraced_solve_s": "s",
                 "trace.overhead": "share"}

# The program under test is the checkout's own source tree, never an
# installed copy: without it the benchmark must fail, not measure something
# else.
sys.path.insert(0, str(SRC))
try:
    import streammatch
    from streammatch import driver, oracle
    from streammatch.matching import validate_matching
    from streammatch.stream import EdgeStream, build_edges, parse_graph_spec
    from layers import LAYER_METRICS, Recorder, traced
except ImportError as exc:
    sys.exit(f"error: cannot import streammatch from {SRC}: {exc}")
if Path(streammatch.__file__).resolve().parent != SRC / "streammatch":
    sys.exit(f"error: streammatch was imported from {streammatch.__file__}, not {SRC}")


class _Node:
    __slots__ = ("structure", "outer")


class SpeedProbe:
    """Machine speed over time, to report timings in reference seconds.

    The 2-core shared VM this benchmark was tuned on switches every few
    seconds between a fast state and one in which the same Python code
    runs up to twice as slowly, so wall times of multi-second jobs spread
    by +-30% between runs whatever the repeat count.  While the probe is
    active, a SIGALRM handler runs a fixed loop every ``INTERVAL`` seconds
    of wall time and records how long it took.  The loop is shaped like
    the engine's arc scan and sized like the workload's stream (``n``
    vertex objects, ``arc_count`` arcs, scanned ``WINDOW`` arcs at a time),
    so that it slows down with the machine much as the engine does.  A
    timed region is reported as its wall time times the mean of
    ``reference / duration`` over the probes inside it, where
    ``reference`` allows ``STEP`` seconds per arc: the time the region
    would have taken at the speed at which the loop runs that fast.  The
    probes cost about 2% of the wall time and are inside every timed
    region.
    """

    INTERVAL = 0.02
    WINDOW = 3000
    STEP = 100e-9

    def __init__(self, n: int, arc_count: int):
        self.nodes = [_Node() for _ in range(n)]
        for i, node in enumerate(self.nodes):
            node.structure = (i % 7) or None
            node.outer = i % 2 == 0
        self.flags = bytearray(n)
        arcs = [(i * 7919 % n, i * 104729 % n) for i in range(arc_count)]
        self.windows = [arcs[i:i + self.WINDOW] for i in range(0, arc_count, self.WINDOW)]
        self.times: list[float] = []
        self.ratios: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        nodes, flags, n = self.nodes, self.flags, len(self.nodes)
        hits = 0
        window = self.windows[len(self.times) % len(self.windows)]
        for u, v in window:
            if flags[u] or flags[v]:
                continue
            bu = nodes[u]
            bv = nodes[v]
            if bu is bv or bu.structure is None or not bv.outer:
                continue
            if nodes[(u * 31 + v) % n].outer:  # one more scattered read, as the engine makes
                hits += 1
        end = perf_counter()
        self.times.append(end)
        self.ratios.append(self.STEP * len(window) / (end - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock region [start, end].  A
        region with fewer than two probes inside uses its nearest ones."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            return end - start
        return (end - start) * statistics.fmean(self.ratios[lo:hi])


def sha256_lines(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


class Tally:
    """Jobs attempted and failed; a job fails when it raises or any of its
    checks reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, job, check):
        """Run ``job()``, then ``check(result)`` for a list of problems.
        Returns the job's result, or None when the job failed."""
        self.attempted += 1
        try:
            result = job()
            problems = check(result)
        except Exception:  # a failing job is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return result


class Workload:
    """A pinned graph, relabelled by the seed, the jobs run on it, and the
    timings of those jobs by metric name."""

    def __init__(self, entry: dict, seed: int):
        self.job = entry["job"]
        self.pins = entry["pins"]
        self.spec = parse_graph_spec(entry["graph"])
        self.exact_trace = seed == entry["default_seed"]
        n, edges = build_edges(self.spec)
        self.perm = list(range(n))
        if not self.exact_trace:
            random.Random(seed).shuffle(self.perm)
        self.inverse = [0] * n
        for old, new in enumerate(self.perm):
            self.inverse[new] = old
        self.reference_mate = None
        self.probe = SpeedProbe(n, 2 * len(edges))
        self.seconds: defaultdict[str, list[float]] = defaultdict(list)  # reference s
        self.wall: defaultdict[str, list[float]] = defaultdict(list)

    def record(self, metric: str, *regions) -> None:
        """Add one sample: the total length of the (start, end) regions."""
        self.seconds[metric].append(sum(self.probe.seconds(a, b) for a, b in regions))
        self.wall[metric].append(sum(b - a for a, b in regions))

    def make_stream(self, timed: bool = True) -> EdgeStream:
        """Build the seed's stream.  ``setup_s`` covers the program's part
        (generate, validate, expand arcs), not the relabelling."""
        start = perf_counter()
        n, edges = build_edges(self.spec)
        generated = perf_counter()
        perm = self.perm
        edges = [(perm[u], perm[v]) for u, v in edges]
        relabelled = perf_counter()
        stream = EdgeStream(n, edges, source=str(self.spec))
        if timed:
            self.record("setup_s", (start, generated), (relabelled, perf_counter()))
        return stream

    def solve(self, trace=None, metric: str | None = "solve_s"):
        """What ``streammatch run`` does: one unchecked ``driver.run`` and
        its JSON report, timed as ``metric`` (untimed when None).  Returns
        (report, stream)."""
        timed = metric is not None
        gc.collect()
        start = perf_counter()
        stream = self.make_stream(timed)
        solve_start = perf_counter()
        report = driver.run(stream, driver.RunConfig(epsilon=EPSILON, trace=trace))
        solved = perf_counter()
        json.dumps(report.as_dict())
        end = perf_counter()
        if timed:
            self.record(metric, (solve_start, solved))
            if self.job == "solve":
                self.record("job_s", (start, end))
        return report, stream

    def verify(self):
        """What ``streammatch verify --oracle tutte`` does: a checked run,
        the rank oracle, then the guarantee and the per-scale bounds.
        Timed as ``job_s``.  Returns (report, stream, problems)."""
        gc.collect()
        start = perf_counter()
        stream = self.make_stream(timed=False)
        report = driver.run(stream, driver.RunConfig(epsilon=EPSILON, check_invariants=True))
        edges = stream.snapshot_edges()
        problems = []
        if not validate_matching(report.matching, edges):
            problems.append("checked run returned an invalid matching")
        # The oracle's elimination order follows the vertex ids, so its work
        # would change with the relabelling; it sees the pinned labels.
        inverse = self.inverse
        nu = oracle.matching_size_rank(stream.vertex_count,
                                       [(inverse[u], inverse[v]) for u, v in edges])
        eps = report.epsilon_effective
        if (1 + eps) * report.matching.size < nu:
            problems.append(f"guarantee violated: (1+eps)*{report.matching.size} < nu={nu}")
        l_max = 3 / eps
        for row in report.per_scale:
            bound = (1 + 4 * row.h * l_max) * (1 + 1 / l_max) * row.matching_size
            if nu > bound:
                problems.append(f"scale-end bound violated at h={row.h}: nu={nu} > {bound}")
        self.record("job_s", (start, perf_counter()))
        if nu != self.pins["nu"]:
            problems.append(f"nu {nu} != pinned {self.pins['nu']}")
        return report, stream, problems

    def report_problems(self, report, stream) -> list[str]:
        """Compare a run's output with the pins and with the first run."""
        pins = self.pins
        problems = []
        if report.matching_size != pins["matching_size"]:
            problems.append(f"matching size {report.matching_size} != pinned {pins['matching_size']}")
        if report.passes != pins["passes"] or report.passes != driver.expected_pass_count(EPSILON):
            problems.append(f"passes {report.passes} != pinned {pins['passes']}")
        if not validate_matching(report.matching, stream.snapshot_edges()):
            problems.append("output is not a matching of the input")
        if self.reference_mate is None:
            self.reference_mate = list(report.matching.mate)
        elif report.matching.mate != self.reference_mate:
            problems.append("matching differs from the run's first solve")
        return problems

    def trace_problems(self, events: list[dict]) -> list[str]:
        """Compare the trace with the pinned digests.  The exact JSONL
        digest (as ``streammatch trace`` writes it) holds at the default
        seed only; the digest of the sorted lines with vertex ids mapped
        back to the pinned labels holds at every seed."""
        problems = []
        if self.exact_trace:
            digest = sha256_lines(json.dumps(event) for event in events)
            if digest != self.pins["trace_sha256"]:
                problems.append(f"trace sha256 {digest} != pinned")
        inverse = self.inverse
        canonical = sorted(json.dumps(dict(
            event, structure=inverse[event["structure"]],
            arc=None if event["arc"] is None else [inverse[x] for x in event["arc"]]))
            for event in events)
        digest = sha256_lines(canonical)
        if digest != self.pins["trace_sorted_sha256"]:
            problems.append(f"sorted trace sha256 {digest} != pinned")
        return problems

    def medians(self) -> tuple[dict, dict]:
        """Median reference seconds per metric, and a note on each."""
        metrics, notes = {}, {}
        for name, values in self.seconds.items():
            metrics[name] = statistics.median(values)
            notes[name] = (f"median of {len(values)}; wall-clock median "
                           f"{statistics.median(self.wall[name]):.4g} s")
        return metrics, notes


def run_until(deadline: float, iteration) -> None:
    """Call ``iteration()`` at least MIN_ITERATIONS times, then while the
    next call is expected to end before the deadline."""
    durations: list[float] = []
    while len(durations) < MIN_ITERATIONS or \
            perf_counter() + statistics.median(durations) <= deadline:
        began = perf_counter()
        iteration()
        durations.append(perf_counter() - began)


def measure_end_to_end(work: Workload, tally: Tally, deadline: float) -> tuple[dict, dict]:
    """Untraced jobs until the deadline.  Returns (metrics, notes)."""
    for _ in range(SETUP_REPEATS):
        work.make_stream()
    # One solve with the engine's trace callback checks the trace digests;
    # it is not timed.
    events: list[dict] = []
    first = tally.run(lambda: work.solve(events.append, metric=None),
                      lambda out: work.report_problems(*out) + work.trace_problems(events))

    def iteration():
        if work.job == "verify":
            tally.run(work.verify, lambda out: out[2] + work.report_problems(*out[:2]))
        for _ in range(SOLVES_PER_VERIFY if work.job == "verify" else 1):
            tally.run(work.solve, lambda out: work.report_problems(*out))

    run_until(deadline, iteration)
    metrics, notes = work.medians()
    metrics["matching_size"] = first[0].matching_size if first is not None else 0
    return metrics, notes


def self_check(metrics: dict) -> list[str]:
    """The read attribution must line up with the engine's bundles and the
    closed-form pass count."""
    problems = []
    physical = metrics["stream.physical_passes"]
    bundles = metrics["phase.bundles"]
    if physical != 1 + 3 * bundles:
        problems.append(f"self-check: {physical} physical passes != 1 + 3 * {bundles} bundles")
    expected = driver.expected_pass_count(EPSILON)
    if physical + metrics["stream.charged_passes"] != expected:
        problems.append(f"self-check: physical + charged passes != {expected}")
    if metrics["phase.phases"] != metrics["driver.phases_executed"]:
        problems.append("self-check: PhaseEngine.run calls != phases executed")
    return problems


def measure_layers(work: Workload, tally: Tally, deadline: float) -> tuple[dict, dict]:
    """Traced solves alternating with untraced ones until the deadline;
    on a verify workload also traced verify jobs.  Returns (metrics, notes)."""
    solve_layers: list[dict] = []
    verify_layers: list[dict] = []

    def traced_solve():
        recorder, events = Recorder(), []
        with traced(recorder):
            report, stream = work.solve(events.append, metric="trace.traced_solve_s")
        layer = recorder.metrics(report, len(events))
        solve_layers.append(layer)
        return (work.report_problems(report, stream) + work.trace_problems(events)
                + self_check(layer))

    def traced_verify():
        recorder = Recorder()
        with traced(recorder):
            report, stream, problems = work.verify()
        verify_layers.append(recorder.metrics(report, 0))
        return problems + work.report_problems(report, stream)

    def iteration():
        tally.run(traced_solve, lambda problems: problems)
        tally.run(lambda: work.solve(metric="trace.untraced_solve_s"),
                  lambda out: work.report_problems(*out))
        if work.job == "verify":
            tally.run(traced_verify, lambda problems: problems)

    run_until(deadline, iteration)
    metrics = {}
    for name in LAYER_METRICS:
        # The checker and the oracle run only in verify jobs.
        layers = verify_layers if name.startswith(("invariants.", "oracle.")) and \
            verify_layers else solve_layers
        if layers:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    times, notes = work.medians()
    for name in ("trace.traced_solve_s", "trace.untraced_solve_s"):
        if name in times:
            metrics[name] = times[name]
    if "trace.traced_solve_s" in metrics and "trace.untraced_solve_s" in metrics:
        metrics["trace.overhead"] = \
            metrics["trace.traced_solve_s"] / metrics["trace.untraced_solve_s"] - 1
    notes["stream.physical_passes"] = f"medians over {len(solve_layers)} traced solves"
    if verify_layers:
        notes["invariants.boundary_s"] = f"medians over {len(verify_layers)} traced verify jobs"
    return metrics, notes


def emit(metrics: dict, units: dict, notes: dict, tally: Tally) -> bool:
    """Print every metric with its unit, then the result line."""
    correct = tally.failed == 0 and tally.attempted > 0
    out = {}
    for name, unit in units.items():
        value = metrics.get(name, 0.0)  # missing only when every job failed
        if unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
        print(f"{name:34} {value:<14.6g} {unit:8} {notes.get(name, '')}".rstrip())
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_share':34} {share:<14.6g} {'share':8} "
          f"{tally.failed} of {tally.attempted} jobs failed")
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": out}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="relabelling seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=str(HERE / "workloads.json"),
                        help="workload file (tests point this at tiny graphs)")
    args = parser.parse_args(argv)
    start = perf_counter()
    with open(args.workloads, encoding="utf-8") as fh:
        workloads = json.load(fh)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    entry = workloads[args.workload]
    seed = entry["default_seed"] if args.seed is None else args.seed

    tally = Tally()
    deadline = start + args.seconds
    work = Workload(entry, seed)
    with work.probe:
        if args.trace:
            metrics, notes = measure_layers(work, tally, deadline)
            units = {**LAYER_METRICS, **TRACE_METRICS}
        else:
            metrics, notes = measure_end_to_end(work, tally, deadline)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    return 0 if emit(metrics, units, notes, tally) else 1


if __name__ == "__main__":
    sys.exit(main())
