"""Top-level run loop: greedy bootstrap, scale schedule, phase repetition.

Scales halve from 1/2 down to eps^2 / 64; every scale runs a fixed number
of phases, each phase a fixed number of pass bundles, each bundle three
stream reads.  The total pass count is therefore a closed form in eps
(:func:`expected_pass_count`) and the driver asserts the run matches it.

Phases are deterministic functions of the matching, the stream content,
and (eps, h).  Three consequences keep desk-scale runs fast without
changing any output:

* a phase that banks no augmenting path leaves the matching untouched, so
  every later phase of the same scale would replay identically; their
  reads are charged and skipped;
* such a phase that also never put a structure on hold and reached its
  fixpoint before running out of bundles would replay identically at
  every smaller scale too (smaller scales only raise the hold threshold
  and the bundle budget), so the remaining scales are charged wholesale;
* the next scale's first phase, on the same matching, would repeat such
  a phase's bundles 1 .. B - 1, where B is the bundle in which it first
  put a structure on hold; that phase resumes instead from the phase as
  it stood at the start of B (:attr:`PhaseEngine.at_first_hold`: the
  engine itself if it froze in B, else a copy taken in B), with those
  bundles' reads counted and their events written to the trace again
  (:meth:`PhaseEngine.resume`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .invariants import InvariantChecker
from .matching import Matching, augment_along, greedy_maximal_matching
from .phase import READS_PER_BUNDLE, PhaseConfig, PhaseEngine
from .stream import EdgeStream


class PassCountMismatch(AssertionError):
    """The counted passes diverged from the closed-form schedule."""


def normalize_epsilon(eps) -> Fraction:
    """Round down to the nearest value whose reciprocal is a power of two.

    Running with a smaller eps only strengthens the guarantee.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    k = 0
    while Fraction(1, 1 << k) > eps:
        k += 1
    return Fraction(1, 1 << k)


def scale_schedule(eps: Fraction) -> list[Fraction]:
    """Scales 1/2, 1/4, ... down to eps^2 / 64 inclusive."""
    h_min = eps * eps / 64
    out: list[Fraction] = []
    h = Fraction(1, 2)
    while h >= h_min:
        out.append(h)
        h /= 2
    return out


def expected_pass_count(eps) -> int:
    """Closed-form pass count: one greedy pass plus, per scale, the phase
    count times the bundle count times the reads per bundle."""
    eps = normalize_epsilon(eps)
    total = 1
    for h in scale_schedule(eps):
        config = PhaseConfig.from_scale(h, eps)
        total += READS_PER_BUNDLE * config.t_max * config.tau_max
    return total


@dataclass
class RunConfig:
    epsilon: Fraction | float | str = Fraction(1, 2)
    check_invariants: bool = False
    trace: Optional[Callable[[dict], None]] = None


@dataclass
class ScaleReport:
    h: Fraction
    phases_total: int
    phases_executed: int
    augmentations: int
    matching_size: int

    def as_dict(self) -> dict:
        return {"h": str(self.h), "phases_total": self.phases_total,
                "phases_executed": self.phases_executed,
                "augmentations": self.augmentations,
                "matching_size": self.matching_size}


@dataclass
class RunReport:
    n: int
    m: int
    epsilon_requested: Fraction
    epsilon_effective: Fraction
    matching: Matching
    passes: int
    per_scale: list[ScaleReport]
    stats: dict = field(default_factory=dict)

    @property
    def matching_size(self) -> int:
        return self.matching.size

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "epsilon_requested": str(self.epsilon_requested),
            "epsilon_effective": str(self.epsilon_effective),
            "matching_size": self.matching.size,
            "passes": self.passes,
            "per_scale": [s.as_dict() for s in self.per_scale],
            "stats": self.stats,
        }

    def guarantee_failure(self, nu: int) -> Optional[str]:
        """The first approximation bound the run breaks against the maximum
        matching size ``nu``, as a message, or None if it keeps them all:
        (1 + eps)|M| >= nu at the end, and (1 + 4 h l_max)(1 + 1/l_max)|M_h|
        >= nu at the end of each scale h."""
        eps = self.epsilon_effective
        size = self.matching.size
        if (1 + eps) * size < nu:
            return f"guarantee violated: (1+eps)*{size} < nu={nu}"
        l_max = 3 / eps
        for row in self.per_scale:
            bound = (1 + 4 * row.h * l_max) * (1 + 1 / l_max) * row.matching_size
            if nu > bound:
                return f"scale-end bound violated at h={row.h}: nu={nu} > {bound}"
        return None


def run(stream: EdgeStream, config: RunConfig) -> RunReport:
    """Compute a (1 + eps)-approximate maximum matching over the stream."""
    requested = Fraction(config.epsilon)
    eps = normalize_epsilon(requested)
    scale_configs = [PhaseConfig.from_scale(h, eps) for h in scale_schedule(eps)]

    checker = (InvariantChecker(stream.vertex_count, stream.snapshot_edges())
               if config.check_invariants else None)

    matching = greedy_maximal_matching(stream)

    totals: dict[str, int] = {}
    per_scale: list[ScaleReport] = []
    skip_remaining_scales = False
    # An engine whose state is the next scale's first phase's at some bundle.
    resumable: Optional[PhaseEngine] = None

    for cfg in scale_configs:
        if skip_remaining_scales:
            stream.charge_passes(READS_PER_BUNDLE * cfg.t_max * cfg.tau_max)
            per_scale.append(ScaleReport(cfg.h, cfg.t_max, 0, 0, matching.size))
            continue
        executed = 0
        augmentations = 0
        t = 1
        while t <= cfg.t_max:
            if resumable is not None:
                engine, resumable = resumable, None
                engine.resume(cfg)
            else:
                engine = PhaseEngine(stream, matching, cfg, trace=config.trace,
                                     checker=checker)
            paths = engine.run()
            executed += 1
            for path in paths:
                if checker is not None:
                    checker.check_path(path, matching)
                augment_along(matching, path)
            augmentations += len(paths)
            for key, count in engine.forest.stats.items():
                totals[key] = totals.get(key, 0) + count
            if not paths:
                # The matching did not change, so phases t+1 .. t_max of
                # this scale would repeat this one verbatim.
                stream.charge_passes(READS_PER_BUNDLE * cfg.tau_max * (cfg.t_max - t))
                if engine.froze and engine.first_hold is None:
                    skip_remaining_scales = True
                else:
                    # The next scale's first phase runs as this one did up
                    # to its first hold.
                    resumable = engine.at_first_hold
                break
            t += 1
        per_scale.append(ScaleReport(cfg.h, cfg.t_max, executed,
                                     augmentations, matching.size))

    passes = stream.pass_count()
    expected = expected_pass_count(eps)
    if passes != expected:
        raise PassCountMismatch(f"counted {passes} passes, formula gives {expected}")
    if checker is not None:
        checker.at_run_end(matching)
    return RunReport(
        n=stream.vertex_count, m=stream.edge_count,
        epsilon_requested=requested, epsilon_effective=eps,
        matching=matching, passes=passes, per_scale=per_scale, stats=totals)
