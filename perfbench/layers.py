"""Outside-in per-layer tracing of one streammatch run.

:func:`traced` wraps public entry points of every layer (stream reads and
charges, the greedy pass, phase set-up and run, the ``Forest`` operations,
``augment_along``, the invariant checker hooks and the rank oracle) with
timers and counters that feed a :class:`Recorder`, and restores the
originals on exit.  Nothing inside ``src/`` is changed; the wrappers only
time calls and read public attributes.

Read roles follow the engine's fixed read order: the first read of a run
is the greedy pass, after which every bundle reads the stream three times
(extension, collection, augmentation).  The contract fixpoint runs between
the end of the collection read and the start of the augmentation read.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from streammatch import driver, oracle
from streammatch.invariants import InvariantChecker
from streammatch.phase import PhaseEngine
from streammatch.stream import EdgeStream
from streammatch.structures import Forest

READ_ROLES = ("extension", "collection", "augmentation")

# name -> unit, in print order.  The driver.* counts come from the run's
# report; every other name is measured by the wrappers below.
LAYER_METRICS = {
    "stream.physical_passes": "count",
    "stream.charged_passes": "count",
    "stream.arc_visits": "count",
    "phase.extension_s": "s",
    "phase.collection_s": "s",
    "phase.fixpoint_s": "s",
    "phase.augmentation_s": "s",
    "phase.setup_s": "s",
    "phase.other_s": "s",
    "phase.phases": "count",
    "phase.bundles": "count",
    "phase.events_per_karc": "1/karc",
    "phase.candidate_share": "share",
    "structures.contract_calls": "count",
    "structures.contract_s": "s",
    "structures.overtake_calls": "count",
    "structures.overtake_case_1": "count",
    "structures.overtake_case_2_1": "count",
    "structures.overtake_case_2_2": "count",
    "structures.overtake_s": "s",
    "structures.augment_calls": "count",
    "structures.augment_s": "s",
    "structures.backtrack_calls": "count",
    "structures.backtrack_s": "s",
    "structures.max_blossom_vertices": "count",
    "structures.max_blossom_depth": "count",
    "matching.greedy_s": "s",
    "matching.augment_s": "s",
    "matching.augmentations": "count",
    "driver.phases_executed": "count",
    "driver.phases_charged": "count",
    "driver.scales_run": "count",
    "invariants.boundary_s": "s",
    "invariants.boundary_calls": "count",
    "invariants.after_op_s": "s",
    "invariants.after_op_calls": "count",
    "oracle.rank_s": "s",
}


class Recorder:
    """Spans and counts of one traced run, keyed by metric name."""

    def __init__(self):
        self.values: defaultdict[str, float] = defaultdict(float)
        self.reads = 0                 # iter_arcs_once calls started
        self.last_read_end = 0.0
        self.run_s = 0.0               # total time inside PhaseEngine.run
        self.candidate_arcs = 0
        self.edge_count = 0
        self.engine: PhaseEngine | None = None
        self.degree: list[int] | None = None
        self.depth: dict[int, int] = {}  # id(blossom) -> nesting depth, per phase

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)

    def count_candidates(self, stream: EdgeStream) -> None:
        """Count the arcs whose tail lies in the working node of a live
        structure that is not on hold: the only arcs the extension read
        can act on (marking has just cleared every modified flag)."""
        if self.degree is None:
            self.degree = [0] * stream.vertex_count
            for u, v in stream.snapshot_edges():
                self.degree[u] += 1
                self.degree[v] += 1
        degree = self.degree
        for structure in self.engine.forest.structures.values():
            if structure.on_hold or structure.working is None:
                continue
            self.candidate_arcs += sum(degree[x] for x in structure.working.vertices)

    def metrics(self, report, events: int) -> dict[str, float]:
        """Every name in :data:`LAYER_METRICS`, zero where the layer was
        idle.  ``report`` is the run's ``RunReport`` and ``events`` the
        number of events its trace callback received."""
        out = {name: self.values.get(name, 0.0) for name in LAYER_METRICS}
        out["driver.phases_executed"] = sum(row.phases_executed for row in report.per_scale)
        out["driver.phases_charged"] = sum(row.phases_total - row.phases_executed
                                           for row in report.per_scale)
        out["driver.scales_run"] = sum(1 for row in report.per_scale if row.phases_executed)
        arcs_per_pass = 2 * self.edge_count
        physical = out["stream.physical_passes"]
        out["stream.arc_visits"] = physical * arcs_per_pass
        reads = sum(out[f"phase.{role}_s"] for role in READ_ROLES)
        out["phase.other_s"] = self.run_s - reads - out["phase.fixpoint_s"]
        engine_visits = (physical - 1) * arcs_per_pass
        out["phase.events_per_karc"] = 1000 * events / engine_visits if engine_visits else 0.0
        extension_visits = out["phase.bundles"] * arcs_per_pass
        out["phase.candidate_share"] = (self.candidate_arcs / extension_visits
                                        if extension_visits else 0.0)
        return out


@contextmanager
def traced(recorder: Recorder):
    """Install the layer wrappers for the duration of the block."""
    originals = []

    def patch(owner, name, make):
        original = getattr(owner, name)
        originals.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def timed(key, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = original(*args, **kwargs)
                recorder.add(key, perf_counter() - start)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def counted(key):
        return lambda args, result: recorder.add(key, 1)

    def iter_arcs_once(original):
        def wrapper(stream):
            index = recorder.reads
            recorder.reads += 1
            recorder.edge_count = stream.edge_count
            role = READ_ROLES[(index - 1) % 3] if index else None
            if role == "extension":
                recorder.count_candidates(stream)
            start = perf_counter()
            if role == "augmentation":
                recorder.add("phase.fixpoint_s", start - recorder.last_read_end)

            def finish():
                # Runs once the read is exhausted; an abandoned read never
                # gets here, just as it is never counted as a pass.
                end = perf_counter()
                recorder.last_read_end = end
                recorder.add("stream.physical_passes", 1)
                if role is not None:
                    recorder.add(f"phase.{role}_s", end - start)
                return
                yield

            # chain() hands the arcs on in C, so the wrapper costs nothing per arc.
            return itertools.chain(original(stream), finish())
        return wrapper

    def charge_passes(original):
        def wrapper(stream, count):
            recorder.add("stream.charged_passes", count)
            return original(stream, count)
        return wrapper

    def engine_init(original):
        def wrapper(engine, *args, **kwargs):
            recorder.depth.clear()
            start = perf_counter()
            original(engine, *args, **kwargs)
            recorder.add("phase.setup_s", perf_counter() - start)
        return wrapper

    def engine_run(original):
        def wrapper(engine):
            recorder.engine = engine
            start = perf_counter()
            result = original(engine)
            recorder.run_s += perf_counter() - start
            recorder.add("phase.phases", 1)
            # The loop leaves forest.bundle at the last bundle it executed.
            recorder.add("phase.bundles", engine.forest.bundle)
            return result
        return wrapper

    def after_contract(args, blossom):
        recorder.add("structures.contract_calls", 1)
        recorder.peak("structures.max_blossom_vertices", len(blossom.vertices))
        depth = 1 + max(recorder.depth.get(id(sub), 0) for sub in blossom.subs)
        recorder.depth[id(blossom)] = depth
        recorder.peak("structures.max_blossom_depth", depth)

    def after_overtake(args, case):
        recorder.add("structures.overtake_calls", 1)
        recorder.add("structures.overtake_case_" + case.replace(".", "_"), 1)

    patch(EdgeStream, "iter_arcs_once", iter_arcs_once)
    patch(EdgeStream, "charge_passes", charge_passes)
    # The driver calls these through its own module namespace.
    patch(driver, "greedy_maximal_matching", timed("matching.greedy_s"))
    patch(driver, "augment_along",
          timed("matching.augment_s", counted("matching.augmentations")))
    patch(PhaseEngine, "__init__", engine_init)
    patch(PhaseEngine, "run", engine_run)
    patch(Forest, "contract", timed("structures.contract_s", after_contract))
    patch(Forest, "overtake", timed("structures.overtake_s", after_overtake))
    patch(Forest, "record_augmentation",
          timed("structures.augment_s", counted("structures.augment_calls")))
    patch(Forest, "backtrack",
          timed("structures.backtrack_s", counted("structures.backtrack_calls")))
    patch(InvariantChecker, "at_boundary",
          timed("invariants.boundary_s", counted("invariants.boundary_calls")))
    patch(InvariantChecker, "after_operation",
          timed("invariants.after_op_s", counted("invariants.after_op_calls")))
    patch(oracle, "matching_size_rank", timed("oracle.rank_s"))
    try:
        yield recorder
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
