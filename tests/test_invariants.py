"""Invariant checker: clean states pass, injected faults are named."""

from fractions import Fraction

import pytest

from streammatch.invariants import (InvariantChecker, InvariantViolationError,
                                    check_active_bound, check_forest,
                                    check_outer_independence,
                                    check_short_path_coverage, check_structure)
from streammatch.matching import Matching, RemovedSet, greedy_maximal_matching, init_labels
from streammatch.phase import PhaseConfig, PhaseEngine
from streammatch.stream import EdgeStream, GraphSpec, open_stream
from streammatch.structures import Forest

HALF = Fraction(1, 2)
CFG = PhaseConfig.from_scale(HALF, HALF)


def mid_run_engine():
    """P4 engine stopped right after the first structure extension."""
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = Matching(4)
    matching.add(1, 2)
    engine = PhaseEngine(stream, matching, CFG)
    engine.forest.overtake(0, 1, 1)
    return engine


def test_healthy_boundary_state_has_no_violations():
    # Triangle after its first full bundle: blossom contracted, boundary
    # invariants intact.
    stream = open_stream(GraphSpec("cycle", (3,)))
    matching = greedy_maximal_matching(stream)
    engine = PhaseEngine(stream, matching, CFG)
    engine.forest.bundle = 1
    engine._extend_pass()
    engine._contract_and_augment()
    engine._backtrack_stuck()
    checker = InvariantChecker(stream.snapshot_edges(), CFG, engine.forest,
                               engine.removed, matching_size_start=matching.size)
    checker.at_boundary()  # raises on any violation; n <= 14 adds coverage


def test_mid_bundle_state_passes_structure_checks():
    engine = mid_run_engine()
    violations = check_structure(engine.forest, engine.forest.structures[0],
                                 CFG.limit, CFG.l_max, CFG.delta)
    assert violations == []


def test_corrupted_label_order_is_flagged():
    # P6 with a 2-deep branch; raising the shallow label above the deep
    # one breaks the strictly increasing root-to-leaf order.
    stream = EdgeStream(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    matching = Matching(6)
    matching.add(1, 2)
    matching.add(3, 4)
    engine = PhaseEngine(stream, matching, CFG)
    forest = engine.forest
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.labels.by_tail[1] = 5          # was 1; the arc below carries 2
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert "increasing-labeling" in names


def test_artificial_outer_outer_arc_is_flagged():
    # Two singleton structures joined by an edge: both roots are outer.
    stream = EdgeStream(2, [(0, 1)])
    engine = PhaseEngine(stream, Matching(2), CFG)
    violations = check_outer_independence(engine.forest,
                                          stream.snapshot_edges(),
                                          engine.removed)
    assert [v.name for v in violations] == ["outer-independence"]


def test_boundary_state_passes_outer_independence():
    stream = open_stream(GraphSpec("random-gnm", (14, 24), 2))
    matching = greedy_maximal_matching(stream)
    engine = PhaseEngine(stream, matching, CFG, checked=True)
    engine.run()  # raises on any boundary violation


def test_size_bound_violation_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    structure = forest.structures[0]
    tiny = PhaseConfig.from_scale(HALF, HALF)
    violations = check_structure(forest, structure, limit=0, l_max=0,
                                 delta=tiny.delta)
    assert "structure-size" in {v.name for v in violations}


def test_space_proxy_violation_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    violations = check_structure(forest, forest.structures[0],
                                 limit=CFG.limit, l_max=CFG.l_max, delta=2)
    assert "space-vertices" in {v.name for v in violations}


def test_active_bound():
    assert check_active_bound(2, HALF, 4) == []
    assert [v.name for v in check_active_bound(3, HALF, 4)] == ["active-structures"]


def test_short_path_coverage_flags_ignored_path():
    # A live augmenting path with every structure deactivated by hand is
    # a coverage violation (never reachable through the real engine).
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = Matching(4)
    matching.add(1, 2)
    engine = PhaseEngine(stream, matching, CFG)
    for structure in engine.forest.structures.values():
        structure.working = None
    violations = check_short_path_coverage(engine.forest,
                                           stream.snapshot_edges(),
                                           CFG.l_max, engine.removed)
    assert [v.name for v in violations] == ["short-path-coverage"]


def test_short_path_coverage_accepts_critical_arc():
    engine = mid_run_engine()
    # S_0 is active and its active path covers (0,1),(1,2); S_3 is active
    # too, so every orientation is covered.
    violations = check_short_path_coverage(engine.forest,
                                           engine.stream.snapshot_edges(),
                                           CFG.l_max, engine.removed)
    assert violations == []


def test_broken_tree_parity_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.resolve(1).outer = True        # inner node mislabeled
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert "tree-representation" in names


def test_disjointness_violation_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.structures[3].verts.add(1)     # vertex 1 already in S_0
    names = {v.name for v in check_forest(forest, CFG.limit, CFG.l_max, CFG.delta)}
    assert "disjointness" in names


def test_checker_raises_through_engine():
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = Matching(4)
    matching.add(1, 2)
    engine = PhaseEngine(stream, matching, CFG, checked=True)
    engine.forest.structures[0].root.outer = False   # root must be outer
    with pytest.raises(InvariantViolationError):
        engine.run()


def test_laminarity_check_on_nested_blossoms():
    matching = Matching(7)
    for u, v in [(1, 2), (3, 4), (5, 6)]:
        matching.add(u, v)
    labels = init_labels(matching, 6)
    forest = Forest(7, matching.mate, labels, RemovedSet(7))
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.contract(4, 2)
    forest.overtake(4, 5, 1)
    forest.contract(6, 0)
    assert check_forest(forest, CFG.limit, CFG.l_max, CFG.delta) == []
