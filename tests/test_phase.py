"""Phase engine: bundle loop, extension guards, marking, backtracking."""

from fractions import Fraction

import pytest

from streammatch.matching import Matching, is_alternating_augmenting
from streammatch.phase import (READS_PER_BUNDLE, READS_PER_BUNDLE_BOUND,
                               PhaseConfig, PhaseEngine, alg_phase)
from streammatch.stream import EdgeStream, GraphSpec, open_stream

HALF = Fraction(1, 2)


def matched(n, pairs):
    m = Matching(n)
    for u, v in pairs:
        m.add(u, v)
    return m


def engine_for(n, edges, pairs, h=HALF, eps=HALF, **kw):
    stream = EdgeStream(n, edges)
    return PhaseEngine(stream, matched(n, pairs),
                       PhaseConfig.from_scale(h, eps), **kw)


def run_bundle(engine, tau):
    engine.forest.bundle = tau
    for s in engine.forest.structures.values():
        s.on_hold = len(s.verts) >= engine.config.limit
        s.modified = False
    engine._extend_pass()
    engine._contract_and_augment()
    engine._backtrack_stuck()


def test_phase_config_exact_values():
    cfg = PhaseConfig.from_scale(HALF, Fraction(1, 4))
    assert (cfg.l_max, cfg.limit, cfg.tau_max, cfg.t_max, cfg.delta) == \
        (12, 13, 576, 1152, 288)
    cfg1 = PhaseConfig.from_scale(HALF, Fraction(1))
    assert (cfg1.l_max, cfg1.limit, cfg1.tau_max, cfg1.t_max, cfg1.delta) == \
        (3, 13, 144, 288, 72)


def test_phase_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PhaseConfig.from_scale(Fraction(1, 3), HALF)
    with pytest.raises(ValueError):
        PhaseConfig.from_scale(HALF, Fraction(2))
    with pytest.raises(ValueError):
        PhaseConfig.from_scale(Fraction(2, 3), Fraction(3, 4))


def test_p4_phase_finds_the_augmenting_path():
    stream = open_stream(GraphSpec("path", (4,)))
    matching = matched(4, [(1, 2)])
    result = alg_phase(stream, matching, HALF, HALF, checked=True)
    assert len(result.paths) == 1
    assert sorted(result.paths[0]) == [0, 1, 2, 3]
    assert is_alternating_augmenting(result.paths[0], matching)
    # the matching itself is untouched during the phase
    assert matching.pairs() == [(1, 2)]


def test_p4_path_found_in_first_bundle():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(1, 2)])
    run_bundle(engine, 1)
    assert len(engine.forest.paths) == 1


def test_triangle_phase_contracts_and_finds_nothing():
    stream = open_stream(GraphSpec("cycle", (3,)))
    result = alg_phase(stream, matched(3, [(1, 2)]), HALF, HALF, checked=True)
    assert result.paths == []
    assert result.blossom_sizes == [3]
    assert result.stats["contracts"] == 1


def test_no_free_vertices_means_no_structures():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3)])
    assert engine.forest.structures == {}
    result = engine.run()
    assert result.paths == []
    assert result.bundles_executed == 1 and result.froze


def test_pass_accounting_three_reads_per_bundle():
    stream = open_stream(GraphSpec("cycle", (5,)))
    result = alg_phase(stream, matched(5, [(0, 1), (2, 3)]), HALF, HALF)
    assert READS_PER_BUNDLE == 3 <= READS_PER_BUNDLE_BOUND
    assert result.physical_reads == 3 * result.bundles_executed
    assert stream.pass_count() == 3 * PhaseConfig.from_scale(HALF, HALF).tau_max


def test_frozen_phase_result_matches_full_replay():
    # Same phase with and without fast-forward cannot differ: compare a
    # frozen run against one whose bundle loop is driven to the end.
    stream = open_stream(GraphSpec("cycle", (5,)))
    result = alg_phase(stream, matched(5, [(0, 1), (2, 3)]), HALF, HALF)
    assert result.froze
    assert result.bundles_executed < PhaseConfig.from_scale(HALF, HALF).tau_max

    engine = engine_for(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                        [(0, 1), (2, 3)])
    for tau in range(1, result.bundles_executed + 30):
        run_bundle(engine, tau)
    assert engine.forest.paths == result.paths
    assert engine.stats["contracts"] == result.stats["contracts"]
    assert engine.stats["overtakes"] == result.stats["overtakes"]


def test_one_extension_per_structure_per_bundle():
    # Star-ish fixture: 0 could overtake through both (0,1) and (0,3) in
    # one pass; the modified mark limits it to the first.
    edges = [(0, 1), (1, 2), (0, 3), (3, 4)]
    engine = engine_for(5, edges, [(1, 2), (3, 4)])
    run_bundle(engine, 1)
    s0 = engine.forest.structures[0]
    assert s0.verts == {0, 1, 2}
    run_bundle(engine, 2)      # stuck at {2}; backtracks to the root
    assert s0.working is s0.root
    run_bundle(engine, 3)      # now the second branch is taken
    assert s0.verts == {0, 1, 2, 3, 4}


def test_matched_arcs_never_extend():
    engine = engine_for(3, [(0, 1), (1, 2)], [(0, 1)])
    # 2 is the only free vertex; its single incident edge (1,2) is
    # unmatched, so it overtakes; the matched arc (0,1) itself is skipped
    # as an extension seed for the (nonexistent) structure at 0.
    run_bundle(engine, 1)
    assert engine.forest.structures[2].verts == {2, 1, 0}


def test_distance_values():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(1, 2)])
    forest = engine.forest
    assert forest.distance(forest.resolve(0)) == 0
    forest.overtake(0, 1, 1)
    assert forest.distance(forest.structures[0].working) == 1


def test_distance_zero_at_contracted_root():
    engine = engine_for(3, [(0, 1), (1, 2), (0, 2)], [(1, 2)])
    forest = engine.forest
    forest.overtake(0, 1, 1)
    blossom = forest.contract(2, 0)
    assert forest.distance(blossom) == 0


def test_overtake_skipped_toward_ancestor():
    # Working node reaches an unmatched arc back to an inner ancestor;
    # the label test fails because labels increase along the path.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]
    engine = engine_for(5, edges, [(1, 2), (3, 4)])
    run_bundle(engine, 1)
    run_bundle(engine, 2)
    forest = engine.forest
    assert forest.structures[0].verts == {0, 1, 2, 3, 4}
    label_before = forest.labels.get((1, 2))
    tree_before = {v: forest.resolve(v).parent_arc for v in range(5)}
    run_bundle(engine, 3)   # (4,1) is read and must not overtake
    assert forest.labels.get((1, 2)) == label_before == 1
    assert {v: forest.resolve(v).parent_arc for v in range(5)} == tree_before
    assert forest.structures[0].verts == {0, 1, 2, 3, 4}


def test_on_hold_at_size_limit_freezes_structure():
    # Chain long enough to hit the hold threshold (13 at h = 1/2): the
    # structure stops extending and the phase freezes with it alive.
    n = 15
    edges = [(i, i + 1) for i in range(n - 1)]
    pairs = [(i, i + 1) for i in range(1, n - 1, 2)]
    stream = EdgeStream(n, edges)
    result = alg_phase(stream, matched(n, pairs), HALF, HALF, checked=True)
    assert result.ever_on_hold
    assert result.stats["holds"] == 1
    assert result.paths == []
    assert result.froze
    assert result.active_at_end == 1


def test_trace_sequence_cycle5():
    events = []
    stream = open_stream(GraphSpec("cycle", (5,)))
    alg_phase(stream, matched(5, [(0, 1), (2, 3)]), Fraction(1), HALF,
              trace=events.append)
    assert [(e["bundle"], e["op"], e["case"]) for e in events] == [
        (1, "overtake", "1"),
        (2, "overtake", "1"),
        (2, "contract", "blossom"),
        (3, "backtrack", "deactivate"),
    ]
    assert events[0]["arc"] == [3, 2] and events[0]["label_new"] == 1
    assert events[1]["arc"] == [1, 0] and events[1]["label_new"] == 2


def test_engine_is_deterministic():
    spec = GraphSpec("random-gnm", (18, 40), 9)

    def trace_of():
        events = []
        stream = open_stream(spec)
        matching = matched(18, [])
        from streammatch.matching import greedy_maximal_matching
        matching = greedy_maximal_matching(stream)
        alg_phase(stream, matching, HALF, HALF, trace=events.append)
        return events

    assert trace_of() == trace_of()


def test_length_one_augmenting_path():
    # Two singleton structures joined by a single edge.  The phase-start
    # matching is deliberately not maximal here, so the boundary checker
    # (which relies on maximality) stays off.
    stream = EdgeStream(2, [(0, 1)])
    result = alg_phase(stream, Matching(2), HALF, HALF)
    assert result.paths == [[0, 1]]


def test_checked_phase_requires_maximal_start():
    # Adjacent free vertices break outer independence at the very first
    # boundary; the pipeline never produces this state because the greedy
    # bootstrap is maximal.
    from streammatch.invariants import InvariantViolationError
    stream = EdgeStream(2, [(0, 1)])
    with pytest.raises(InvariantViolationError, match="outer-independence"):
        alg_phase(stream, Matching(2), HALF, HALF, checked=True)


def test_cleanup_pass_augments_modified_structures():
    # Both structures extend early in the pass, so the arc joining their
    # new outer tips is skipped during extension (modified marks) and the
    # augment happens in the cleanup passes instead.
    edges = [(0, 1), (3, 4), (1, 2), (4, 5), (2, 5)]
    engine = engine_for(6, edges, [(1, 2), (4, 5)])
    events = []
    engine.user_trace = events.append
    run_bundle(engine, 1)
    assert engine.forest.paths == [[0, 1, 2, 5, 4, 3]]
    augments = [e for e in events if e["op"] == "augment"]
    assert augments == [{"bundle": 1, "op": "augment", "structure": 0,
                         "arc": [2, 5], "label_old": None, "label_new": None,
                         "case": None}]


def test_label_reductions_bounded_per_arc(monkeypatch):
    # Within a phase each matched arc's label only ever decreases and is
    # reduced at most l_max + 1 times; every overtake event in the trace
    # reports one of those reductions.
    from collections import Counter
    from streammatch.matching import ArcLabelTable, greedy_maximal_matching
    writes = []
    original_set = ArcLabelTable.set

    def recording_set(table, arc, value):
        writes.append((arc[0], table.by_tail[arc[0]], value))
        original_set(table, arc, value)

    monkeypatch.setattr(ArcLabelTable, "set", recording_set)
    cfg = PhaseConfig.from_scale(HALF, HALF)
    for seed in range(20):
        stream = open_stream(GraphSpec("random-gnm", (18, 30), seed))
        matching = greedy_maximal_matching(stream)
        writes.clear()
        events = []
        result = alg_phase(stream, matching, HALF, HALF, trace=events.append)
        reductions = [(tail, old, new) for tail, old, new in writes if new < old]
        assert all(new <= old for _tail, old, new in writes)
        assert result.stats["label_reductions"] == len(reductions)
        assert all(k <= cfg.l_max + 1
                   for k in Counter(tail for tail, _, _ in reductions).values())
        overtakes = [e for e in events if e["op"] == "overtake"]
        assert all(e["label_new"] < e["label_old"] for e in overtakes)
        assert Counter((e["arc"][0], e["label_old"], e["label_new"])
                       for e in overtakes) <= Counter(reductions)


def test_phase_paths_disjoint_and_valid_on_random_graphs():
    from streammatch.matching import greedy_maximal_matching
    for seed in range(25):
        stream = open_stream(GraphSpec("random-gnm", (16, 26), seed))
        matching = greedy_maximal_matching(stream)
        pairs_before = set(matching.pairs())
        result = alg_phase(stream, matching, HALF, HALF, checked=True)
        edge_set = {frozenset(e) for e in stream.snapshot_edges()}
        used = set()
        for path in result.paths:
            assert is_alternating_augmenting(path, matching, edge_set)
            assert not (set(path) & used)
            used.update(path)
        assert set(matching.pairs()) == pairs_before
