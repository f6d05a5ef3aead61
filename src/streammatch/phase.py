"""One phase of the search: the pass-bundle loop over the edge stream.

A phase rebuilds everything from the current matching: labels at their
maximum, one singleton structure per free vertex.  Each pass bundle then
performs one step of a parallel depth-first search:

1. marking     - structures at or above the size threshold go on hold,
                 and every structure's modified flag is cleared;
2. extension   - one pass over the stream; each not-on-hold structure
                 performs at most one of contract / augment / overtake,
                 driven by arcs whose tail resolves to its working node;
3. cleanup     - two more passes: arcs internal to a structure are
                 collected and contracted to a fixpoint around working
                 nodes, then arcs joining outer nodes of two different
                 structures trigger augment recording;
4. backtrack   - structures that are neither on hold nor modified retreat
                 their working node two levels (or deactivate at the root).

A bundle therefore consumes exactly 3 stream reads.  Once a bundle
changes nothing, no later bundle of the phase can change anything either
(the loop body is a deterministic function of the phase state), so the
engine charges the remaining reads to the stream instead of performing
them and ends the phase early with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .invariants import InvariantChecker
from .matching import ArcLabelTable, Matching, RemovedSet, init_labels
from .stream import EdgeStream
from .structures import Forest

READS_PER_BUNDLE = 3
READS_PER_BUNDLE_BOUND = 4  # stated budget; we stay below it


@dataclass(frozen=True)
class PhaseConfig:
    """Exact integer parameters of one phase at scale ``h``.

    All values are derived from (h, eps) with 1/h and 1/eps powers of two,
    so the divisions below are exact.
    """

    h: Fraction
    eps: Fraction
    l_max: int
    limit: int
    tau_max: int
    t_max: int
    delta: int

    @staticmethod
    def from_scale(h: Fraction, eps: Fraction) -> "PhaseConfig":
        h = Fraction(h)
        eps = Fraction(eps)

        def reciprocal_power_of_two(x: Fraction) -> bool:
            inv = 1 / x
            return inv.denominator == 1 and (inv.numerator & (inv.numerator - 1)) == 0

        if not (0 < eps <= 1 and reciprocal_power_of_two(eps)):
            raise ValueError(f"eps must be in (0, 1] with 1/eps a power of two, got {eps}")
        if not (0 < h <= Fraction(1, 2) and reciprocal_power_of_two(h)):
            raise ValueError(f"scale must be in (0, 1/2] with 1/h a power of two, got {h}")
        values = {
            "l_max": 3 / eps,
            "limit": 6 / h + 1,
            "tau_max": 72 / (h * eps),
            "t_max": 144 / (h * eps),
            "delta": 36 / (h * eps),
        }
        ints = {}
        for name, value in values.items():
            if value.denominator != 1 or value <= 0:
                raise ValueError(f"parameter {name}={value} is not a positive integer")
            ints[name] = int(value)
        return PhaseConfig(h=h, eps=eps, **ints)


@dataclass
class PhaseResult:
    """Outcome of one phase: banked augmenting paths plus accounting."""

    paths: list[list[int]]
    stats: dict
    physical_reads: int          # reads actually performed before freezing
    bundles_executed: int
    froze: bool                  # reached a fixpoint before tau_max bundles
    ever_on_hold: bool
    active_at_end: int
    blossom_sizes: list[int] = field(default_factory=list)


class PhaseEngine:
    """Executes one phase over a stream against a fixed matching."""

    def __init__(self, stream: EdgeStream, matching: Matching, config: PhaseConfig,
                 *, trace: Optional[Callable[[dict], None]] = None,
                 checked: bool = False):
        self.stream = stream
        self.matching = matching
        self.config = config
        self.user_trace = trace
        self.checked = checked
        self.n = stream.vertex_count
        self.labels: ArcLabelTable = init_labels(matching, config.l_max)
        self.removed = RemovedSet(self.n)
        self.stats = {"overtakes": 0, "contracts": 0, "augments": 0,
                      "backtracks": 0, "holds": 0, "label_reductions": 0}
        self.forest = Forest(self.n, matching.mate, self.labels, self.removed,
                             trace=self._emit)
        for alpha in matching.free_vertices():
            self.forest.init_structure(alpha)
        self.checker = None
        if checked:
            self.checker = InvariantChecker(
                stream.snapshot_edges(), config, self.forest, self.removed,
                matching_size_start=matching.size)
            self.forest.on_op = self.checker.after_operation

    def _emit(self, event: dict) -> None:
        op = event["op"]
        if op == "overtake":
            self.stats["overtakes"] += 1
        elif op == "contract":
            self.stats["contracts"] += 1
        elif op == "augment":
            self.stats["augments"] += 1
        elif op == "backtrack":
            self.stats["backtracks"] += 1
        elif op == "hold":
            self.stats["holds"] += 1
        if self.user_trace is not None:
            self.user_trace(event)

    def run(self) -> PhaseResult:
        cfg = self.config
        forest = self.forest
        reads_before = self.stream.passes_used
        ever_on_hold = False
        froze = False
        bundles = 0
        if self.checker is not None:
            self.checker.at_boundary()
        for tau in range(1, cfg.tau_max + 1):
            forest.bundle = tau
            before = forest.mutations
            for structure in forest.structures.values():
                hold = len(structure.verts) >= cfg.limit
                if hold:
                    ever_on_hold = True
                    if not structure.on_hold:
                        self._emit({"bundle": tau, "op": "hold",
                                    "structure": structure.alpha, "arc": None,
                                    "label_old": None, "label_new": None,
                                    "case": None})
                structure.on_hold = hold
                structure.modified = False
            self._extend_pass()
            self._contract_and_augment()
            self._backtrack_stuck()
            bundles = tau
            if self.checker is not None:
                self.checker.at_boundary()
            if forest.mutations == before:
                # Fixpoint: the remaining bundles of this phase would read
                # the stream without effect.  Charge their passes.
                froze = True
                self.stream.charge_passes(READS_PER_BUNDLE * (cfg.tau_max - tau))
                break
        physical = self.stream.passes_used - reads_before \
            - (READS_PER_BUNDLE * (cfg.tau_max - bundles) if froze else 0)
        active = sum(1 for s in forest.structures.values() if s.working is not None)
        if self.checker is not None:
            self.checker.at_phase_end(active)
        self.stats["label_reductions"] = self.labels.reductions
        return PhaseResult(
            paths=list(forest.paths),
            stats=dict(self.stats),
            physical_reads=physical,
            bundles_executed=bundles,
            froze=froze,
            ever_on_hold=ever_on_hold,
            active_at_end=active,
            blossom_sizes=list(forest.blossom_sizes),
        )

    # -- bundle parts ---------------------------------------------------------

    def _extend_pass(self) -> None:
        """One stream pass; each live structure extends at most once."""
        forest = self.forest
        root_of = forest.root_of
        removed = self.removed.flags
        mate = self.matching.mate
        by_tail = self.labels.by_tail
        for u, v in self.stream.iter_arcs_once():
            if removed[u] or removed[v]:
                continue
            bu = root_of[u]
            bv = root_of[v]
            if bu is bv:
                continue
            structure = bu.structure
            if structure is None or structure.working is not bu or mate[u] == v:
                continue
            if structure.modified or structure.on_hold:
                continue
            target = bv.structure
            if target is not None and bv.outer:
                if target is structure:
                    forest.contract(u, v)
                else:
                    forest.record_augmentation(u, v)
            else:
                # bv is unvisited or inner, so v is matched and the matched
                # arc with tail v is the one to (possibly) overtake.
                distance = 0 if bu.parent is None else by_tail[bu.parent_arc[0]]
                if distance + 1 < by_tail[v]:
                    forest.overtake(u, v, distance + 1)

    def _contract_and_augment(self) -> None:
        """Two passes: contract to a fixpoint, then augment across structures."""
        forest = self.forest
        root_of = forest.root_of
        removed = self.removed.flags

        buckets: dict[int, list[tuple[int, int]]] = {}
        for u, v in self.stream.iter_arcs_once():
            if removed[u] or removed[v]:
                continue
            owner = root_of[u].structure
            if owner is None or root_of[v].structure is not owner:
                continue
            buckets.setdefault(owner.alpha, []).append((u, v))

        for alpha in sorted(buckets):
            structure = forest.structures.get(alpha)
            if structure is None:
                continue
            arcs = buckets[alpha]
            progress = True
            while progress:
                progress = False
                for u, v in arcs:
                    bu = root_of[u]
                    bv = root_of[v]
                    if bu is bv:
                        continue
                    if structure.working is bu and bv.outer:
                        forest.contract(u, v)
                        progress = True
                        break

        mate = self.matching.mate
        for u, v in self.stream.iter_arcs_once():
            if removed[u] or removed[v]:
                continue
            bu = root_of[u]
            bv = root_of[v]
            if bu is bv:
                continue
            owner = bu.structure
            target = bv.structure
            if owner is None or target is None or owner is target:
                continue
            if bu.outer and bv.outer:
                assert mate[u] != v
                forest.record_augmentation(u, v)

    def _backtrack_stuck(self) -> None:
        """Retreat every structure that is live but failed to progress."""
        forest = self.forest
        for structure in list(forest.structures.values()):
            if structure.on_hold or structure.modified or structure.working is None:
                continue
            forest.backtrack(structure)


def alg_phase(stream: EdgeStream, matching: Matching, eps, h, *,
              trace: Optional[Callable[[dict], None]] = None,
              checked: bool = False) -> PhaseResult:
    """Run a single phase at scale ``h`` and return its banked paths.

    The matching is expected to be maximal (no edge with both endpoints
    free), which the greedy bootstrap establishes and augmentation
    preserves; otherwise two adjacent root nodes would violate outer
    independence at the very first bundle boundary.
    """
    config = PhaseConfig.from_scale(Fraction(h), Fraction(eps))
    engine = PhaseEngine(stream, matching, config, trace=trace, checked=checked)
    return engine.run()
