"""Invariant checker: clean states pass, injected faults are named."""

import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import streammatch
from helpers import boundary_violations, checker_for, full_scan_boundary_violations, matched
from streammatch import driver, invariants
from streammatch.invariants import (InvariantChecker, InvariantViolationError,
                                    check_blossom, check_forest,
                                    check_short_path_coverage, check_structure)
from streammatch.matching import Matching, greedy_maximal_matching
from streammatch.phase import PhaseConfig, PhaseEngine
from streammatch.stream import EdgeStream, GraphSpec, open_stream, parse_graph_spec
from streammatch.structures import Blossom, Forest, subtree

HALF = Fraction(1, 2)
CFG = PhaseConfig.from_scale(HALF, HALF)


def mid_run_engine(cfg=CFG):
    """P4 engine stopped right after the first structure extension."""
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = matched(4, [(1, 2)])
    engine = PhaseEngine(stream, matching, cfg)
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
    checker = checker_for(stream)
    checker.start_phase(engine.forest, CFG)
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
    matching = matched(6, [(1, 2), (3, 4)])
    engine = PhaseEngine(stream, matching, CFG)
    forest = engine.forest
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.labels[1] = 5                  # was 1; the arc below carries 2
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert "increasing-labeling" in names


def test_artificial_outer_outer_arc_is_flagged():
    # Two singleton structures joined by an edge: both roots are outer.
    stream = EdgeStream(2, [(0, 1)])
    engine = PhaseEngine(stream, Matching(2), CFG)
    violations = boundary_violations(engine.forest, CFG.limit, CFG.l_max, CFG.delta,
                                     stream.snapshot_edges())
    assert [v.name for v in violations] == ["outer-independence"]
    # Two outer nodes of one structure, the root 0 and the tip 2 of
    # 0 - 1 = 2, joined by the edge (0, 2) that no contraction took in.
    stream = EdgeStream(3, [(0, 1), (1, 2), (0, 2)])
    engine = PhaseEngine(stream, matched(3, [(1, 2)]), CFG)
    engine.forest.overtake(0, 1, 1)
    violations = boundary_violations(engine.forest, CFG.limit, CFG.l_max, CFG.delta,
                                     stream.snapshot_edges())
    assert [(v.name, v.structure) for v in violations] == [("outer-independence", 0)]


@pytest.mark.parametrize("edges, pairs, bundle", [
    # Case 1 overtakes make the outer tips 2 and 5, joined by (2, 5).
    ([(0, 1), (3, 4), (1, 2), (4, 5), (2, 5)], [(1, 2), (4, 5)], 1),
    # S_0 reaches 0 - 1 = 2 in bundle 1 and 2 - 3 = 4 in bundle 2, when
    # (4, 0) closes a blossom whose inner vertex 1 joins the root 5.
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)], [(1, 2), (3, 4)], 2),
], ids=["overtake", "contraction"])
def test_an_unbanked_edge_at_a_vertex_that_became_outer_is_flagged(edges, pairs, bundle):
    # With an augmentation read that banks nothing, an edge that joins
    # outer nodes of two structures stands at the boundary, which reads
    # it at its end that became outer in the bundle.  Isolated vertices
    # take n past the coverage check's limit.
    stream = EdgeStream(invariants.COVERAGE_LIMIT + 1, edges)
    engine = PhaseEngine(stream, matched(stream.vertex_count, pairs), CFG,
                         checker=checker_for(stream))
    engine.checker.at_boundary()
    with mock.patch.object(Forest, "record_augmentation", lambda forest, u, v: None), \
            pytest.raises(InvariantViolationError) as caught:
        for tau in range(1, bundle + 1):
            engine._bundle(tau)
    assert engine.forest.bundle == bundle
    assert [v.name for v in caught.value.violations] == ["outer-independence"]


def test_boundary_state_passes_outer_independence():
    stream = open_stream(GraphSpec("gnm", (14, 24), 2))
    matching = greedy_maximal_matching(stream)
    engine = PhaseEngine(stream, matching, CFG, checker=checker_for(stream))
    engine.run()  # raises on any boundary violation


@pytest.mark.parametrize("spec, eps, count", [
    # 180 boundaries, 391 before phases resumed from the scale before.
    ("gnm:300,900,seed=1", Fraction(1, 2), 180),
    # 741 case 2.2 steals, each moving a subtree between structures; 805
    # boundaries before phases resumed from copies taken at a first hold.
    ("bipartite:300,300,1200,seed=12", Fraction(1, 4), 632),
    # Blossoms nested 479 deep; 2,330 boundaries before phases resumed,
    # 1,169 before they resumed from copies.
    ("gnm:3000,9000,seed=4", Fraction(1, 2), 1103),
], ids=["gnm-300", "bipartite-300-steals", "gnm-3000-nested"])
def test_boundary_check_agrees_with_the_full_scan_reference(spec, eps, count):
    # At every bundle boundary of a checked run, the check the checker
    # runs there (of the whole forest at a phase's first boundary, else of
    # what the operations reported since the last one), the full
    # check_forest and the full-scan reference flag the same.  The reports
    # name every structure whose tree changed since the last boundary, a
    # removed one included.
    original = InvariantChecker.at_boundary
    boundaries = 0
    last = {}  # per live structure at the last boundary, what its walk reads

    def shape(structure):
        return structure.size, structure.working, [
            (node, node.parent, node.parent_tail, node.outer, node.blossom)
            for node in subtree(structure.root)]

    def compared(checker):
        nonlocal boundaries
        boundaries += 1
        forest, cfg = checker.forest, checker.config
        full = check_forest(forest, cfg.limit, cfg.l_max, cfg.delta,
                            checker.unmatched, checker.adjacent)
        reference = full_scan_boundary_violations(forest, cfg.limit, cfg.l_max,
                                                  cfg.delta, checker.edges)
        assert {v.name for v in full} == {v.name for v in reference}
        shapes = {alpha: shape(s) for alpha, s in forest.structures.items()}
        if checker.sizes is not None:  # not the phase's first boundary
            moved = {alpha for alpha, old in last.items() if shapes.get(alpha) != old}
            assert moved <= checker.changed.keys()
        last.clear()
        last.update(shapes)
        try:
            original(checker)
            flagged = []
        except InvariantViolationError as error:
            flagged = error.violations
        assert sorted(map(str, flagged)) == sorted(map(str, full))
        if flagged:
            raise InvariantViolationError(flagged)

    with mock.patch.object(InvariantChecker, "at_boundary", compared):
        driver.run(open_stream(parse_graph_spec(spec)),
                   driver.RunConfig(epsilon=eps, check_invariants=True))
    assert boundaries == count


def test_a_resumed_phase_checks_the_state_it_carries_over():
    # A scale's first phase may resume from the last phase of the scale
    # before: from that engine, where it froze at its first hold, or from
    # a copy it took there.  The checker checks the state it carries over
    # at its first boundary, before it runs a bundle, instead of trusting
    # the phase before: a label corrupted between the two phases must
    # raise there.  The first resume of gnm:300,900,seed=1 is from a
    # frozen engine, the only one of gnm:30,45,seed=1 from a copy.
    original_resume = PhaseEngine.resume
    original_boundary = InvariantChecker.at_boundary

    for spec, froze in [("gnm:300,900,seed=1", True), ("gnm:30,45,seed=1", False)]:
        starts, seen = [], []  # the bundles resumed at; the bundles before each boundary

        def corrupting_resume(engine, config):
            assert engine.froze is froze
            forest = engine.forest
            starts.append(forest.bundle)
            forest.labels[forest.mate.index(None)] = 0  # an unmatched tail
            original_resume(engine, config)

        def counted(checker):
            if starts:
                seen.append(checker.forest.bundle)
            original_boundary(checker)

        with mock.patch.object(PhaseEngine, "resume", corrupting_resume), \
                mock.patch.object(InvariantChecker, "at_boundary", counted), \
                pytest.raises(InvariantViolationError) as raised:
            driver.run(open_stream(parse_graph_spec(spec)),
                       driver.RunConfig(epsilon=Fraction(1, 2), check_invariants=True))
        assert [v.name for v in raised.value.violations] == ["label-range"]
        assert len(starts) == 1 and seen == [starts[0] - 1]


def test_a_checked_run_builds_one_view_of_the_graph(monkeypatch):
    # The checker's snapshot and adjacency are built once per run, not
    # once per phase: this run executes 7 phases.
    stream = open_stream(parse_graph_spec("gnm:300,900,seed=1"))
    calls = {"snapshot_edges": 0, "adjacency": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(EdgeStream, "snapshot_edges",
                        counted("snapshot_edges", EdgeStream.snapshot_edges))
    monkeypatch.setattr(invariants, "adjacency",
                        counted("adjacency", invariants.adjacency))
    report = driver.run(stream, driver.RunConfig(epsilon=HALF, check_invariants=True))
    assert sum(row.phases_executed for row in report.per_scale) == 7
    assert calls == {"snapshot_edges": 1, "adjacency": 1}


def two_component_engine():
    """A checked engine past its phase's first boundary.  S_0 on
    0 - 1 = 2 deactivates in bundle 3, and no operation reports it after
    that; S_3 on the path 3 - 4 = 5 - ... = 10 - 11 overtakes until
    bundle 4 and backtracks until bundle 9."""
    edges = [(0, 1), (1, 2)] + [(v, v + 1) for v in range(3, 11)]
    stream = EdgeStream(12, edges)
    matching = matched(12, [(1, 2), (4, 5), (6, 7), (8, 9), (10, 11)])
    engine = PhaseEngine(stream, matching, CFG, checker=checker_for(stream))
    engine.checker.at_boundary()
    return engine


def test_a_fault_no_operation_reports_is_caught_at_the_phase_end():
    # Lowering the label of 1 = 2, the arc into S_0's outer tip, without
    # going through Forest.record breaks increasing labels in a structure
    # that no later operation reports.  The boundaries walk only the
    # structures reported since the one before, so they pass it; the full
    # check at the phase's end names it.
    engine = two_component_engine()
    for tau in (1, 2, 3):
        engine._bundle(tau)
    engine.forest.labels[1] = 0
    tau = 4
    while engine._bundle(tau):
        tau += 1
    assert tau == 10
    with pytest.raises(InvariantViolationError) as caught:
        engine.checker.at_phase_end()
    assert [(v.name, v.structure) for v in caught.value.violations] \
        == [("increasing-labeling", 0)]


def break_the_arc_into_7(forest):
    forest.root_of[7].parent_tail = 5     # 5 lies in S_3's node {5}, not in {6}


def lower_the_label_of_6(forest):
    forest.labels[6] = 0                  # 6 = 7 enters {7} below the label 1 above


def resolve_11_to_7(forest):
    forest.root_of[11] = forest.root_of[7]  # 11 is in no tree until bundle 4


@pytest.mark.parametrize("corrupt, at, raised_at_boundary, flagged", [
    (break_the_arc_into_7, (2, "overtake"), False, ("unique-arc", 3)),
    (lower_the_label_of_6, (5, "backtrack"), True, ("increasing-labeling", 3)),
    (resolve_11_to_7, (2, "overtake"), True, ("resolution", None)),
], ids=["at-the-operation", "at-the-next-boundary", "by-the-reached-count"])
def test_a_fault_an_operation_reports_is_caught_by_the_next_boundary(
        corrupt, at, raised_at_boundary, flagged):
    # A fault that an operation makes before it reports itself raises at
    # that operation, when it lies in what the operation moved, or at the
    # boundary that ends its bundle, which walks the structures reported
    # and counts the reached vertices against the trees it walked.  S_3's
    # overtake in bundle 2 makes the nodes {6} and {7}; its backtrack in
    # bundle 5 moves only its working node.
    engine = two_component_engine()
    record = Forest.record
    boundaries = []

    def faulty(forest, op, *args, **kwargs):
        if (forest.bundle, op) == at:
            corrupt(forest)
        record(forest, op, *args, **kwargs)

    def counted(checker):
        boundaries.append(checker.forest.bundle)
        original_boundary(checker)

    original_boundary = InvariantChecker.at_boundary
    with mock.patch.object(Forest, "record", faulty), \
            mock.patch.object(InvariantChecker, "at_boundary", counted), \
            pytest.raises(InvariantViolationError) as caught:
        for tau in range(1, 10):
            engine._bundle(tau)
    assert flagged in [(v.name, v.structure) for v in caught.value.violations]
    assert boundaries == list(range(1, at[0] + raised_at_boundary))


def checked_operations(corrupt=None, at=None):
    """Run ten checked operations on a forest over 0 .. 9, and return the
    index of the one that raised and its violations, or None.

    S_0 grows 0 - 1 = 2 - 3 = 4 and the branch 2 - 5 = 6 - 8 = 9,
    backtracking between them, and (0, 4) contracts 0 .. 4 into a blossom
    that keeps the branch; then S_7 steals the branch in case 2.2.  With
    ``corrupt``, the ``at[1]``-th report of kind ``at[0]`` (from 0) first
    passes the forest through ``corrupt``."""
    forest = Forest(10, matched(10, [(1, 2), (3, 4), (5, 6), (8, 9)]).mate, CFG.l_max)
    s0, s7 = forest.init_structure(0), forest.init_structure(7)
    checker = InvariantChecker(10, [])
    checker.start_phase(forest, CFG)
    seen = []

    def on_op(op, *report):
        seen.append(op)
        if (op, seen.count(op) - 1) == at:
            corrupt(forest)
        checker.after_operation(op, *report)

    forest.on_op = on_op
    steps = [lambda: forest.overtake(0, 1, 1), lambda: forest.overtake(2, 3, 2),
             lambda: forest.backtrack(s0), lambda: forest.overtake(2, 5, 2),
             lambda: forest.overtake(6, 8, 3), lambda: forest.backtrack(s0),
             lambda: forest.backtrack(s0), lambda: forest.backtrack(s0),
             lambda: forest.contract(0, 4), lambda: forest.overtake(7, 5, 1)]
    for i, step in enumerate(steps):
        try:
            step()
        except InvariantViolationError as error:
            return i, error.violations
    assert s7.root.kid is forest.root_of[5] and s0.root.kid is None
    assert forest.root_of[9].structure is s7
    return None


@pytest.mark.parametrize("at, corrupt, step, name, detail", [
    # The overtake (2, 3) makes {3} and {4}.
    (("overtake", 1), lambda f: setattr(f.root_of[4], "parent_tail", 1), 1,
     "unique-arc", "arc (1, 4) does not realize"),
    (("overtake", 1), lambda f: f.labels.__setitem__(3, 1), 1,
     "increasing-labeling", "label 1 under label 1"),
    (("overtake", 1), lambda f: setattr(f.root_of[4], "outer", False), 1,
     "tree-representation", "parity mismatch"),
    (("overtake", 1), lambda f: setattr(f.root_of[4], "structure", f.structures[7]), 1,
     "tree-representation", "node B(4) not owned"),
    (("overtake", 1), lambda f: setattr(f.root_of[2], "kid", None), 1,
     "tree-representation", "B(3) is not a kid of its parent"),
    (("overtake", 1), lambda f: setattr(f.root_of[3], "kid", None), 1,
     "tree-representation", "inner node B(3)"),
    (("overtake", 1), lambda f: f.root_of.__setitem__(4, f.root_of[2]), 1,
     "resolution", "4 resolves to B(2)"),
    (("overtake", 1), lambda f: setattr(f.structures[0], "size", 10 ** 6), 1,
     "structure-size", ""),
    # The contraction keeps {0}, takes in 1 .. 4 and adopts {5}.
    (("contract", 0), lambda f: setattr(f.root_of[5], "parent", None), 8,
     "tree-representation", "parent link broken at B(5)"),
    (("contract", 0), lambda f: setattr(f.root_of[5], "parent_tail", 6), 8,
     "unique-arc", "arc into B(5)"),
    (("contract", 0), lambda f: f.root_of.__setitem__(3, None), 8,
     "resolution", "root_of[3] is None"),
    (("contract", 0), lambda f: setattr(f.structures[0], "root", f.root_of[5]), 8,
     "tree-representation", "bad root"),
    # The steal moves {5} and {6} to S_7; a backtrack moves a working node.
    (("overtake", 4), lambda f: setattr(f.root_of[9], "structure", f.structures[0]), 9,
     "tree-representation", "stolen node B(9)"),
    (("backtrack", 0), lambda f: setattr(f.structures[0], "working", f.root_of[3]), 2,
     "tree-representation", "working node B(3) invalid"),
])
def test_a_fault_in_what_an_operation_moved_raises_at_that_operation(
        at, corrupt, step, name, detail):
    assert checked_operations() is None
    raised, violations = checked_operations(corrupt, at)
    assert raised == step
    assert any(v.name == name and detail in v.detail for v in violations), violations


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
    # Three free vertices and two matched pairs: h * |M| = 1/2 * 2 allows
    # one active structure at the phase's end.
    forest = Forest(7, matched(7, [(1, 2), (3, 4)]).mate, CFG.l_max)
    for alpha in (0, 5, 6):
        forest.init_structure(alpha)
    checker = InvariantChecker(7, [])
    checker.start_phase(forest, CFG)

    def names():
        with pytest.raises(InvariantViolationError) as caught:
            checker.at_phase_end()
        return [v.name for v in caught.value.violations]

    assert names() == ["active-structures"]   # three active
    forest.structures[0].working = None
    assert names() == ["active-structures"]   # two active
    forest.structures[5].working = None
    checker.at_phase_end()                    # one active


def test_short_path_coverage_flags_ignored_path():
    # A live augmenting path with every structure deactivated by hand is
    # a coverage violation (never reachable through the real engine).
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = matched(4, [(1, 2)])
    engine = PhaseEngine(stream, matching, CFG)
    for structure in engine.forest.structures.values():
        structure.working = None
    violations = check_short_path_coverage(engine.forest,
                                           stream.snapshot_edges(), CFG.l_max)
    assert [v.name for v in violations] == ["short-path-coverage"]


def test_short_path_coverage_accepts_critical_arc():
    engine = mid_run_engine()
    # S_0 is active and its active path covers (0,1),(1,2); S_3 is active
    # too, so every orientation is covered.
    violations = check_short_path_coverage(engine.forest,
                                           engine.stream.snapshot_edges(), CFG.l_max)
    assert violations == []


def test_broken_tree_parity_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.root_of[1].outer = True        # inner node mislabeled
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert "tree-representation" in names


def test_disjointness_violation_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.structures[3].root.kid = forest.root_of[1]  # {1} already in S_0
    names = forest_names(forest, engine.stream.snapshot_edges())
    assert "disjointness" in names


def test_node_shared_by_two_trees_is_flagged_whichever_structure_it_claims():
    engine = mid_run_engine()
    forest = engine.forest
    shared = forest.root_of[1]            # inner node of S_0
    forest.structures[3].root.kid = shared
    shared.structure = forest.structures[3]
    names = forest_names(forest, engine.stream.snapshot_edges())
    assert "disjointness" in names


def test_size_mismatch_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.structures[0].size += 1        # the tree holds 3 vertices
    violations = check_structure(forest, forest.structures[0],
                                 CFG.limit, CFG.l_max, CFG.delta)
    assert [v.name for v in violations] == ["tree-representation"]
    assert "size 4" in violations[0].detail


def test_checker_raises_through_engine():
    stream = EdgeStream(4, [(0, 1), (1, 2), (2, 3)])
    matching = matched(4, [(1, 2)])
    engine = PhaseEngine(stream, matching, CFG, checker=checker_for(stream))
    engine.forest.structures[0].root.outer = False   # root must be outer
    with pytest.raises(InvariantViolationError):
        engine.run()


NESTED_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (0, 6)]


def nested_blossom_forest(corrupt=None):
    """S_0 over 7 vertices: blossom {2, 3, 4} inside a blossom of all seven.

    With ``corrupt``, the checker runs after every operation, and each new
    blossom's record passes through ``corrupt`` before the checker sees it.
    """
    matching = matched(7, [(1, 2), (3, 4), (5, 6)])
    forest = Forest(7, matching.mate, CFG.l_max)
    if corrupt is not None:
        checker = InvariantChecker(7, NESTED_EDGES)
        checker.start_phase(forest, CFG)

        def on_op(op, touched, arc, case):
            if op == "contract":
                corrupt(touched[0].working.blossom)
            checker.after_operation(op, touched, arc, case)

        forest.on_op = on_op
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.contract(4, 2)
    forest.overtake(4, 5, 3)          # labels rise along 0 .. 6: 1, then 3
    forest.contract(6, 0)
    return forest


def names_raised_after_contract(corrupt):
    with pytest.raises(InvariantViolationError) as caught:
        nested_blossom_forest(corrupt)
    return {v.name for v in caught.value.violations}


def boundary_names(forest, edges):
    """The names the boundary check flags at ``forest`` over ``edges``,
    after asserting that the full-scan reference flags the same."""
    names = {v.name for v in boundary_violations(forest, CFG.limit, CFG.l_max,
                                                 CFG.delta, edges)}
    reference = full_scan_boundary_violations(forest, CFG.limit, CFG.l_max,
                                              CFG.delta, edges)
    assert names == {v.name for v in reference}
    return names


def forest_names(forest, edges=()):
    """The names the boundary check flags at ``forest`` without outer
    independence, which reads the edges; with ``edges`` too, the full
    boundary check must agree with the reference."""
    boundary_names(forest, edges)
    return boundary_names(forest, ())


def test_laminarity_check_on_nested_blossoms():
    forest = nested_blossom_forest(corrupt=lambda blossom: None)
    assert forest_names(forest, NESTED_EDGES) == set()
    composites = []
    stack = [forest.structures[0].root.blossom]
    while stack:
        blossom = stack.pop()
        if isinstance(blossom, Blossom):
            composites.append(blossom)
            stack.extend(blossom.subs)
    assert sorted(len(b.vertices) for b in composites) == [3, 7]
    for blossom in composites:
        assert check_blossom(forest, blossom, 0) == []


def test_out_of_range_label_is_flagged():
    for label in (-1, CFG.l_max + 2):
        engine = mid_run_engine()
        engine.forest.labels[2] = label   # (2, 1) is matched, outside any blossom
        assert forest_names(engine.forest, engine.stream.snapshot_edges()) == {"label-range"}


def test_label_on_unmatched_tail_is_flagged():
    engine = mid_run_engine()
    engine.forest.labels[0] = 1           # 0 is free, so it must keep l_max + 1
    assert forest_names(engine.forest, engine.stream.snapshot_edges()) == {"label-range"}


def test_label_range_check_allocates_nothing_per_label_value():
    # At eps = 2^-20 a label lies in 0 .. 3 * 2^20 + 1; the boundary check
    # reads the min and max of the labels instead of building that range.
    cfg = PhaseConfig.from_scale(HALF, Fraction(1, 2 ** 20))
    forest = mid_run_engine(cfg).forest
    tracemalloc.start()
    try:
        bad = boundary_violations(forest, cfg.limit, cfg.l_max, cfg.delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad == []
    assert peak < 1 << 20


def test_nonzero_label_inside_blossom_is_flagged():
    forest = nested_blossom_forest()
    forest.labels[3] = 1                  # contraction set it to 0
    assert forest_names(forest, NESTED_EDGES) == {"blossom-arc-labels"}


def test_stale_resolution_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.root_of[3] = forest.root_of[0]  # 3 is the root of S_3
    assert forest_names(forest, engine.stream.snapshot_edges()) == {"resolution"}
    # P6 after one overtake: the unreached vertex 3 pointed at the live
    # root {0} of S_0.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    engine = PhaseEngine(EdgeStream(6, edges), matched(6, [(1, 2), (3, 4)]), CFG)
    forest = engine.forest
    forest.overtake(0, 1, 1)
    forest.root_of[3] = forest.root_of[0]
    assert forest_names(forest, edges) == {"resolution"}
    details = [v.detail for v in boundary_violations(forest, CFG.limit, CFG.l_max,
                                                     CFG.delta)]
    assert details == [f"3 is in no tree but resolves to {forest.root_of[0]!r}"]


def test_unvisited_vertex_resolving_to_removed_node_is_flagged():
    # 0 - 1 augments and removes both structures; the pair 2 = 3 is never
    # reached.  Pointing 2 at the removed node {0} makes that node
    # resolved to by a vertex it does not hold.
    edges = [(0, 1), (2, 3)]
    matching = matched(4, [(2, 3)])
    forest = Forest(4, matching.mate, CFG.l_max)
    forest.init_structure(0)
    forest.init_structure(1)
    forest.record_augmentation(0, 1)
    assert forest_names(forest, edges) == set()
    forest.root_of[2] = forest.root_of[0]
    assert forest_names(forest, edges) == {"resolution"}
    forest.root_of[0] = None              # {0} is resolved to by 2 alone
    assert forest_names(forest, edges) == {"resolution"}


def test_tree_vertex_resolving_to_nothing_is_flagged():
    # The root of S_3 and a non-base vertex of a blossom: no arc of
    # their trees ends at either, so only the tree walk reads their
    # entries.
    engine = mid_run_engine()
    engine.forest.root_of[3] = None
    assert forest_names(engine.forest, engine.stream.snapshot_edges()) == {"resolution"}
    forest = nested_blossom_forest()
    forest.root_of[3] = None
    assert forest_names(forest, NESTED_EDGES) == {"resolution"}


def test_out_of_range_label_on_an_unreached_vertex_is_flagged():
    # P6 after one overtake: the matched pair 3 = 4 is unreached.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    for label in (-1, CFG.l_max + 2):
        engine = PhaseEngine(EdgeStream(6, edges), matched(6, [(1, 2), (3, 4)]), CFG)
        engine.forest.overtake(0, 1, 1)
        assert engine.forest.root_of[3] is None
        engine.forest.labels[3] = label
        assert forest_names(engine.forest, edges) == {"label-range"}


def test_outer_outer_edge_stored_larger_end_first_is_flagged():
    stream = EdgeStream(2, [(1, 0)])
    engine = PhaseEngine(stream, Matching(2), CFG)
    assert boundary_names(engine.forest, stream.snapshot_edges()) == {"outer-independence"}


def test_edge_between_composite_outer_nodes_of_two_structures_is_flagged():
    # Two triangles, each contracted into the root blossom of its
    # structure, and an edge between their non-base vertices 1 and 4.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (1, 4)]
    forest = Forest(6, matched(6, [(1, 2), (4, 5)]).mate, CFG.l_max)
    for alpha in (0, 3):
        forest.init_structure(alpha)
        forest.overtake(alpha, alpha + 1, 1)
        forest.contract(alpha + 2, alpha)
    assert {len(s.root.vertices) for s in forest.structures.values()} == {3}
    assert boundary_names(forest, edges[:-1]) == set()
    assert boundary_names(forest, edges) == {"outer-independence"}


def test_missing_realizing_arc_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    forest.root_of[1].parent_tail = None
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert names == {"unique-arc"}


def test_wrong_parent_tail_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    # 3 resolves to the root of S_3, not to {0}, the parent of {1}.
    forest.root_of[1].parent_tail = 3
    names = {v.name for v in check_structure(forest, forest.structures[0],
                                             CFG.limit, CFG.l_max, CFG.delta)}
    assert names == {"unique-arc"}


def test_broken_sibling_link_is_flagged():
    # The root of S_0 has the two inner kids {1} and {3}.  Dropping the
    # second from the first's sibling link loses a branch; pointing the
    # link back at the first loops it, and the walk must still end.
    for broken in ("dropped", "looped"):
        matching = matched(5, [(1, 2), (3, 4)])
        forest = Forest(5, matching.mate, CFG.l_max)
        structure = forest.init_structure(0)
        forest.overtake(0, 1, 1)
        forest.backtrack(structure)
        forest.overtake(0, 3, 1)
        assert check_structure(forest, structure, CFG.limit, CFG.l_max, CFG.delta) == []
        first = structure.root.kid
        assert first.sibling is not None
        first.sibling = None if broken == "dropped" else first
        names = {v.name for v in check_structure(forest, structure,
                                                 CFG.limit, CFG.l_max, CFG.delta)}
        assert names == {"tree-representation"}, broken


def test_space_arcs_violation_is_flagged():
    engine = mid_run_engine()
    forest = engine.forest
    # S_0 holds 3 vertices and 2 arcs; delta = 1 bounds arcs at 1.
    violations = check_structure(forest, forest.structures[0],
                                 limit=CFG.limit, l_max=CFG.l_max, delta=1)
    assert "space-arcs" in {v.name for v in violations}


def test_misconnected_blossom_cycle_is_flagged_at_contraction():
    assert names_raised_after_contract(lambda blossom: blossom.cycle.reverse()) \
        == {"blossom-shape"}


def rotate_by_one(blossom):
    """Start the cycle at its second sub: still connected, but the
    matched arc now sits at an even position."""
    blossom.subs.append(blossom.subs.pop(0))
    blossom.cycle.append(blossom.cycle.pop(0))


# The first blossom built is the triangle 2 - 4 = 3 - 2, with base 2.
@pytest.mark.parametrize("corrupt, details", [
    (lambda blossom: blossom.subs.pop(), ["has 2 subs"]),
    (lambda blossom: setattr(blossom, "count", 4), ["has even vertex count"]),
    (lambda blossom: blossom.cycle.pop(), ["cycle/subs length mismatch"]),
    (lambda blossom: setattr(blossom, "base", 3),
     ["base not the stem sub's base", "base 3 of B[2, 3, 4] matched inside"]),
    (rotate_by_one, ["cycle arc 0 of B[2, 3, 4] breaks alternation"]),
], ids=["subs", "count", "cycle", "base", "alternation"])
def test_malformed_blossom_record_is_flagged_at_contraction(corrupt, details):
    with pytest.raises(InvariantViolationError) as caught:
        nested_blossom_forest(corrupt)
    found = [v.detail for v in caught.value.violations if v.name == "blossom-shape"]
    for detail in details:
        assert any(detail in text for text in found), (detail, found)


def give_the_root_a_parent(forest):
    forest.structures[0].root.parent = forest.root_of[3]


def make_the_inner_node_composite(forest):
    # A one-vertex record stands in for a blossom at the inner node {1}.
    forest.root_of[1].blossom = Blossom(1, [1], [], [1])


@pytest.mark.parametrize("corrupt, detail", [
    (give_the_root_a_parent, "bad root"),
    (make_the_inner_node_composite, "inner node B[1] is composite"),
])
def test_malformed_tree_is_flagged(corrupt, detail):
    forest = mid_run_engine().forest
    corrupt(forest)
    violations = check_structure(forest, forest.structures[0],
                                 CFG.limit, CFG.l_max, CFG.delta)
    assert any(v.name == "tree-representation" and v.detail.startswith(detail)
               for v in violations), violations


def test_blossom_that_is_not_the_union_of_its_subs_is_flagged():
    def swap_in_outside_vertex(blossom):
        blossom.vertices[blossom.vertices.index(4)] = 5

    assert "laminarity" in names_raised_after_contract(swap_in_outside_vertex)


def test_blossom_with_overlapping_subs_is_flagged():
    def share_a_vertex(blossom):
        # The triangle's subs are single vertices: listing one of them
        # twice shares its vertex between two subs.
        blossom.subs[1] = blossom.subs[2]

    assert "laminarity" in names_raised_after_contract(share_a_vertex)


# Each violation name in ``src/streammatch``, and the test that injects a
# fault and expects that name.  A new name needs a row here.
FAULT_TESTS = {
    "active-structures": "test_invariants.py::test_active_bound",
    "augmenting-path":
        "test_driver.py::test_checked_run_names_a_banked_path_that_is_not_augmenting",
    "blossom-arc-labels": "test_invariants.py::test_nonzero_label_inside_blossom_is_flagged",
    "blossom-shape":
        "test_invariants.py::test_misconnected_blossom_cycle_is_flagged_at_contraction",
    "disjointness": "test_invariants.py::test_disjointness_violation_is_flagged",
    "increasing-labeling": "test_invariants.py::test_corrupted_label_order_is_flagged",
    "label-range": "test_invariants.py::test_out_of_range_label_is_flagged",
    "laminarity":
        "test_invariants.py::test_blossom_that_is_not_the_union_of_its_subs_is_flagged",
    "outer-independence": "test_invariants.py::test_artificial_outer_outer_arc_is_flagged",
    "resolution": "test_invariants.py::test_stale_resolution_is_flagged",
    "short-path-coverage":
        "test_invariants.py::test_short_path_coverage_flags_ignored_path",
    "space-arcs": "test_invariants.py::test_space_arcs_violation_is_flagged",
    "space-vertices": "test_invariants.py::test_space_proxy_violation_is_flagged",
    "structure-size": "test_invariants.py::test_size_bound_violation_is_flagged",
    "tree-representation": "test_invariants.py::test_broken_tree_parity_is_flagged",
    "unique-arc": "test_invariants.py::test_missing_realizing_arc_is_flagged",
    "valid-matching":
        "test_driver.py::test_checked_run_names_a_matched_pair_that_is_not_an_edge",
}


def test_every_violation_name_has_a_fault_injection_test():
    package = Path(streammatch.__file__).parent
    names = {name for path in package.glob("*.py") for name in
             re.findall(r'\b(?:flag|Violation)\(\s*"([^"]+)"', path.read_text())}
    assert names == FAULT_TESTS.keys()
    tests = Path(__file__).parent
    for name, test in FAULT_TESTS.items():
        module, _, function = test.partition("::")
        # The test's body runs to the next line that starts at column 0.
        body = re.search(rf"^def {function}\(.*?(?=^\S|\Z)",
                         (tests / module).read_text(), re.M | re.S)
        assert body is not None and f'"{name}"' in body.group(), (name, test)
