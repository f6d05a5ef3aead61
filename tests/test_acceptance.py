"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the test names map one-to-one onto the criteria.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from streammatch import bench, driver
from streammatch.driver import expected_pass_count, scale_params, scale_schedule
from streammatch.invariants import InvariantChecker, check_short_path_coverage
from streammatch.oracle import exact_matching_exhaustive, matching_size_rank
from streammatch.phase import READS_PER_BUNDLE, READS_PER_BUNDLE_BOUND
from streammatch.stream import GraphSpec, open_stream

GOLDEN_DIR = Path(__file__).parent / "goldens"
FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def corpus_rows():
    """Every corpus instance at eps in {1, 1/2} plus eps = 1/4 up to 40
    vertices, all with invariant checking and oracle comparison."""
    return bench.run_corpus(workers=2)


def test_criterion_1_approximation_guarantee(corpus_rows):
    specs = {row["spec"] for row in corpus_rows}
    assert len(specs) >= 200, f"corpus has only {len(specs)} graphs"
    eps_seen = {row["epsilon"] for row in corpus_rows}
    assert eps_seen == {"1", "1/2", "1/4"}
    failures = []
    for row in corpus_rows:
        eps = Fraction(row["epsilon"])
        if (1 + eps) * row["matching_size"] < row["nu"]:
            failures.append(row)
    assert not failures, failures[:5]
    quarter_ns = [row["n"] for row in corpus_rows if row["epsilon"] == "1/4"]
    assert max(quarter_ns) <= 40
    print(f"\n[criterion 1] PASS: (1+eps)*|M| >= nu on {len(corpus_rows)} runs "
          f"over {len(specs)} graphs at eps in {{1, 1/2, 1/4}}, zero tolerance")


def test_criterion_2_pass_count_formula(corpus_rows):
    for row in corpus_rows:
        assert row["passes"] == row["expected_passes"], row
    # Formula scaling: successive halvings multiply the count by 64
    # (exactly under integer division; the exact ratio tends to 64), and
    # the minimum-scale term scales by exactly 64.
    epsilons = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    previous = None
    for eps in epsilons[:-1]:
        a, b = expected_pass_count(eps / 2), expected_pass_count(eps)
        assert a // b == 64 and round(a / b) == 64
        ratio = a / b
        if previous is not None:
            assert abs(ratio - 64) < abs(previous - 64)
        previous = ratio

    def min_scale_term(eps):
        cfg = scale_params(scale_schedule(eps)[-1], eps)
        return READS_PER_BUNDLE * cfg.t_max * cfg.tau_max

    for eps in epsilons[:-1]:
        assert min_scale_term(eps / 2) == 64 * min_scale_term(eps)
    assert READS_PER_BUNDLE == 3 <= READS_PER_BUNDLE_BOUND
    print(f"\n[criterion 2] PASS: pass count equals "
          f"1 + sum_h 3*t_max(h)*tau_max(h) on all {len(corpus_rows)} runs; "
          f"halving eps scales the formula by 64 (theta(1/eps^6))")


def test_criterion_3_invariant_suite(corpus_rows, monkeypatch):
    # The corpus rows were produced with check_invariants=True; any
    # violation raises and would have failed the fixture.  Verify the
    # checker hooks genuinely fire on a sample run.
    counts = {"boundary": 0, "op": 0, "phase_end": 0}
    original_boundary = InvariantChecker.at_boundary
    original_op = InvariantChecker.after_operation
    original_end = InvariantChecker.at_phase_end

    def counting_boundary(self):
        counts["boundary"] += 1
        return original_boundary(self)

    def counting_op(self, op, touched):
        counts["op"] += 1
        return original_op(self, op, touched)

    def counting_end(self, active):
        counts["phase_end"] += 1
        return original_end(self, active)

    monkeypatch.setattr(InvariantChecker, "at_boundary", counting_boundary)
    monkeypatch.setattr(InvariantChecker, "after_operation", counting_op)
    monkeypatch.setattr(InvariantChecker, "at_phase_end", counting_end)
    stream = open_stream(GraphSpec("random-gnm", (24, 34), 7))
    driver.run(stream, driver.RunConfig(
        epsilon=Fraction(1, 2), check_invariants=True))  # raises on any violation
    assert counts["boundary"] > 0 and counts["op"] > 0 and counts["phase_end"] > 0
    print(f"\n[criterion 3] PASS: zero violations across the checked corpus; "
          f"sample run exercised {counts['op']} per-operation checks, "
          f"{counts['boundary']} boundary checks, {counts['phase_end']} phase-end checks")


def test_criterion_4_short_path_coverage(corpus_rows, monkeypatch):
    small = [row for row in corpus_rows if row["n"] <= 14]
    assert small, "corpus lacks graphs small enough for the coverage check"
    calls = {"n": 0}
    original = check_short_path_coverage

    def counting(forest, edges, l_max, removed):
        calls["n"] += 1
        return original(forest, edges, l_max, removed)

    import streammatch.invariants as inv
    monkeypatch.setattr(inv, "check_short_path_coverage", counting)
    stream = open_stream(GraphSpec("random-gnm", (12, 18), 1))
    driver.run(stream, driver.RunConfig(epsilon=Fraction(1, 2),
                                        check_invariants=True))
    assert calls["n"] > 0
    print(f"\n[criterion 4] PASS: every short augmenting path is covered at "
          f"every bundle boundary on the {len(small)} runs with n <= 14 "
          f"(sample run: {calls['n']} boundary sweeps)")


def test_criterion_5_oracle_cross_validation(corpus_rows):
    checked = 0
    for spec in bench.corpus():
        stream = open_stream(spec)
        if stream.vertex_count > 12:
            continue
        edges = stream.snapshot_edges()
        assert exact_matching_exhaustive(stream.vertex_count, edges) == \
            matching_size_rank(stream.vertex_count, edges), str(spec)
        checked += 1
    petersen = open_stream(GraphSpec("petersen"))
    assert matching_size_rank(10, petersen.snapshot_edges()) == 5
    assert checked >= 40
    print(f"\n[criterion 5] PASS: exhaustive and rank oracles agree on "
          f"{checked} corpus graphs with n <= 12; rank oracle gives 5 on Petersen")


@pytest.mark.parametrize("name,args,facts", [
    ("p4", ["--input", str(FIXTURE_DIR / "p4.edgelist")],
     {"augment": 1}),
    ("triangle", ["--gen", "cycle:3"], {"contract": 1}),
    ("c5", ["--gen", "cycle:5"], {"contract": 1}),
])
def test_criterion_6_golden_traces(tmp_path, name, args, facts):
    out = tmp_path / f"{name}.jsonl"
    subprocess.run(
        [sys.executable, "-m", "streammatch.cli", "trace", *args,
         "--epsilon", "0.5", "--out", str(out)],
        check=True, capture_output=True, cwd=str(Path(__file__).parent.parent))
    golden = (GOLDEN_DIR / f"{name}.trace.jsonl").read_bytes()
    assert out.read_bytes() == golden, f"{name} trace drifted from golden"
    events = [json.loads(line) for line in golden.decode().splitlines()]
    for op, count in facts.items():
        assert sum(1 for e in events if e["op"] == op) == count
    if name == "c5":
        # the single contract is the whole 5-cycle collapsing
        from streammatch.matching import greedy_maximal_matching
        from streammatch.phase import alg_phase
        stream = open_stream(GraphSpec("cycle", (5,)))
        matching = greedy_maximal_matching(stream)
        result = alg_phase(stream, matching, Fraction(1, 2), Fraction(1, 2))
        assert result.blossom_sizes == [5]
    print(f"\n[criterion 6] PASS: {name} trace is byte-identical to its golden")


def test_criterion_7_space_proxy(corpus_rows):
    # The boundary checker enforces vertices <= delta and arcs <= delta^2
    # on every checked run (names space-vertices / space-arcs); confirm
    # the bounds are meaningful on a run that grows large structures.
    from streammatch.invariants import check_structure
    from streammatch.matching import Matching
    from streammatch.phase import PhaseConfig, PhaseEngine
    from streammatch.stream import EdgeStream

    n = 15
    edges = [(i, i + 1) for i in range(n - 1)]
    matching = Matching(n)
    for i in range(1, n - 1, 2):
        matching.add(i, i + 1)
    cfg = PhaseConfig.from_scale(Fraction(1, 2), Fraction(1, 2))
    engine = PhaseEngine(EdgeStream(n, edges), matching, cfg, checked=True)
    result = engine.run()
    structure = engine.forest.structures[0]
    assert len(structure.verts) <= cfg.delta
    assert engine.forest.structure_arc_count(structure) <= cfg.delta ** 2
    assert not check_structure(engine.forest, structure, cfg.limit,
                               cfg.l_max, cfg.delta)
    assert result.ever_on_hold  # the bound was actually approached
    print(f"\n[criterion 7] PASS: per-structure vertices <= {cfg.delta} and "
          f"arcs <= {cfg.delta ** 2} held throughout every checked corpus run")
