"""Phase engine: bundle loop, extension guards, marking, backtracking."""

import random
from array import array
from fractions import Fraction

import pytest

from helpers import FullScanEngine, boundary_violations, checker_for, edge_keys, matched
from streammatch import driver
from streammatch.invariants import InvariantChecker
from streammatch.matching import Matching, is_alternating_augmenting
from streammatch.phase import (READS_PER_BUNDLE, PhaseConfig, PhaseEngine, _copied,
                               _spliced)
from streammatch.stream import (EdgeStream, GraphSpec, build_edges, open_stream,
                                parse_graph_spec)
from streammatch.structures import Forest, subtree

HALF = Fraction(1, 2)


def engine_for(n, edges, pairs, h=HALF, eps=HALF, **kw):
    stream = EdgeStream(n, edges)
    return PhaseEngine(stream, matched(n, pairs),
                       PhaseConfig.from_scale(h, eps), **kw)


def run_phase(stream, matching, eps=HALF, h=HALF, **kw):
    """Run one phase at scale ``h``; return its engine."""
    engine = PhaseEngine(stream, matching, PhaseConfig.from_scale(h, eps), **kw)
    engine.run()
    return engine


def members(structure):
    return {x for node in subtree(structure.root) for x in node.vertices}


def run_bundle(engine, tau):
    engine._bundle(tau)


def test_phase_config_exact_values():
    cfg = PhaseConfig.from_scale(HALF, Fraction(1, 4))
    assert (cfg.l_max, cfg.limit, cfg.tau_max, cfg.t_max, cfg.delta) == \
        (12, 13, 576, 1152, 288)
    cfg1 = PhaseConfig.from_scale(HALF, Fraction(1))
    assert (cfg1.l_max, cfg1.limit, cfg1.tau_max, cfg1.t_max, cfg1.delta) == \
        (3, 13, 144, 288, 72)


def test_phase_config_is_the_papers_table_at_every_scheduled_scale():
    # Every config the driver builds for eps = 1 .. 2^-30 has int fields
    # equal to the paper's formulas, and limit * l_max fits in delta.
    count = 0
    for a in range(31):
        eps = Fraction(1, 2 ** a)
        for h in driver.scale_schedule(eps):
            cfg = PhaseConfig.from_scale(h, eps)
            fields = (cfg.l_max, cfg.limit, cfg.tau_max, cfg.t_max, cfg.delta)
            assert all(type(x) is int for x in fields)
            assert fields == (3 / eps, 6 / h + 1, 72 / (h * eps), 144 / (h * eps),
                              36 / (h * eps))
            assert cfg.h == h and cfg.limit * cfg.l_max <= cfg.delta
            count += 1
    assert count == 1116


def test_phase_config_rejects_bad_parameters():
    for h in (Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(0)):
        with pytest.raises(ValueError, match="scale"):
            PhaseConfig.from_scale(h, HALF)
    for eps in (Fraction(2), Fraction(0), Fraction(-1, 2), Fraction(3, 4)):
        with pytest.raises(ValueError, match="eps"):
            PhaseConfig.from_scale(HALF, eps)
    with pytest.raises(ValueError):
        PhaseConfig.from_scale(Fraction(2, 3), Fraction(3, 4))


def test_p4_phase_finds_the_augmenting_path():
    stream = open_stream(GraphSpec("path", (4,)))
    matching = matched(4, [(1, 2)])
    paths = run_phase(stream, matching, checker=checker_for(stream)).forest.paths
    assert len(paths) == 1
    assert sorted(paths[0]) == [0, 1, 2, 3]
    assert is_alternating_augmenting(paths[0], matching,
                                     edge_keys(4, stream.snapshot_edges()))
    # the matching itself is untouched during the phase
    assert matching.pairs() == [(1, 2)]


def test_p4_path_found_in_first_bundle():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(1, 2)])
    run_bundle(engine, 1)
    assert len(engine.forest.paths) == 1


def test_triangle_phase_contracts_and_finds_nothing():
    stream = open_stream(GraphSpec("cycle", (3,)))
    events = []
    engine = run_phase(stream, matched(3, [(1, 2)]), checker=checker_for(stream),
                       trace=events.append)
    assert engine.forest.paths == []
    contracts = [e for e in events if e["op"] == "contract"]
    assert len(contracts) == 1
    assert len(engine.forest.root_of[contracts[0]["arc"][0]].vertices) == 3
    assert engine.forest.stats["contracts"] == 1


def test_no_free_vertices_means_no_structures():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3)])
    assert engine.forest.structures == {}
    assert engine.run() == []
    assert engine.forest.bundle == 1 and engine.froze


def test_pass_accounting_three_reads_per_bundle(monkeypatch):
    stream = open_stream(GraphSpec("cycle", (5,)))
    charged = []
    charge = stream.charge_passes
    monkeypatch.setattr(stream, "charge_passes",
                        lambda count: (charged.append(count), charge(count)))
    engine = run_phase(stream, matched(5, [(0, 1), (2, 3)]))
    assert READS_PER_BUNDLE == 3
    assert engine.froze and charged
    # Physical reads: every counted pass that was not charged.
    assert stream.pass_count() - sum(charged) == 3 * engine.forest.bundle
    assert stream.pass_count() == 3 * PhaseConfig.from_scale(HALF, HALF).tau_max


def test_frozen_phase_result_matches_full_replay():
    # Same phase with and without fast-forward cannot differ: compare a
    # frozen run against one whose bundle loop is driven to the end.
    stream = open_stream(GraphSpec("cycle", (5,)))
    frozen = run_phase(stream, matched(5, [(0, 1), (2, 3)]))
    bundles = frozen.forest.bundle
    assert frozen.froze
    assert bundles < PhaseConfig.from_scale(HALF, HALF).tau_max

    engine = engine_for(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                        [(0, 1), (2, 3)])
    for tau in range(1, bundles + 30):
        run_bundle(engine, tau)
    assert engine.forest.paths == frozen.forest.paths
    assert engine.forest.stats["contracts"] == frozen.forest.stats["contracts"]
    assert engine.forest.stats["overtakes"] == frozen.forest.stats["overtakes"]


def test_one_extension_per_structure_per_bundle():
    # Star-ish fixture: 0 could overtake through both (0,1) and (0,3) in
    # one pass; the modified mark limits it to the first.
    edges = [(0, 1), (1, 2), (0, 3), (3, 4)]
    engine = engine_for(5, edges, [(1, 2), (3, 4)])
    run_bundle(engine, 1)
    s0 = engine.forest.structures[0]
    assert members(s0) == {0, 1, 2}
    run_bundle(engine, 2)      # stuck at {2}; backtracks to the root
    assert s0.working is s0.root
    run_bundle(engine, 3)      # now the second branch is taken
    assert members(s0) == {0, 1, 2, 3, 4}


def test_extension_read_stops_once_its_only_structure_has_acted():
    # The free vertex 0 has an arc to each of the matched pairs 1=2, 3=4,
    # ...  Its first arc, (0,1), takes 1=2; every later arc of the read
    # could only be skipped, so the read visits none of them.
    pairs = [(a, a + 1) for a in range(1, 40, 2)]
    edges = [(0, a) for a, _ in pairs] + pairs
    engine = engine_for(41, edges, pairs)
    stream = engine.stream
    stream.read()  # builds the tail index; never closed, so it counts no pass
    visited = []

    class Recording(list):
        def __getitem__(self, p):
            visited.append(p)
            return list.__getitem__(self, p)

    stream._arcs = Recording(stream._arcs)
    engine._extend_pass()
    assert visited == [0] and len(engine.arcs_at[0]) == 20
    assert members(engine.forest.structures[0]) == {0, 1, 2}


def test_matched_arcs_never_extend():
    engine = engine_for(3, [(0, 1), (1, 2)], [(0, 1)])
    # 2 is the only free vertex; its single incident edge (1,2) is
    # unmatched, so it overtakes; the matched arc (0,1) itself is skipped
    # as an extension seed for the (nonexistent) structure at 0.
    run_bundle(engine, 1)
    assert members(engine.forest.structures[2]) == {2, 1, 0}


def test_distance_values():
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(1, 2)])
    forest = engine.forest
    # The extension read's distance at an outer node: 0 at the root,
    # otherwise the label of the matched arc realizing its tree edge.
    assert forest.root_of[0].parent is None
    forest.overtake(0, 1, 1)
    working = forest.structures[0].working
    assert (working.parent_tail, working.base) == (1, 2)
    assert forest.labels[working.parent_tail] == 1


def test_phase_builds_no_blossom_for_unreached_vertices():
    # 0 - 1 = 2 - 3 augments; the perfectly matched path 4 = 5 - 6 = 7
    # holds no free vertex, so no structure ever reaches it.
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    engine = engine_for(8, edges, [(1, 2), (4, 5), (6, 7)],
                        checker=InvariantChecker(8, edges))
    paths = engine.run()
    root_of = engine.forest.root_of
    assert paths == [[3, 2, 1, 0]]
    assert all(root_of[v].structure is None for v in range(4))  # removed
    assert root_of[4:] == [None] * 4


def test_distance_zero_at_contracted_root():
    engine = engine_for(3, [(0, 1), (1, 2), (0, 2)], [(1, 2)])
    forest = engine.forest
    forest.overtake(0, 1, 1)
    blossom = forest.contract(2, 0)
    node = forest.root_of[0]
    assert node.blossom is blossom and node.parent is None and node.parent_tail is None


def test_overtake_skipped_toward_ancestor():
    # Working node reaches an unmatched arc back to an inner ancestor;
    # the label test fails because labels increase along the path.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]
    engine = engine_for(5, edges, [(1, 2), (3, 4)])
    run_bundle(engine, 1)
    run_bundle(engine, 2)
    forest = engine.forest
    assert members(forest.structures[0]) == {0, 1, 2, 3, 4}
    label_before = forest.labels[1]
    tree_before = {v: forest.root_of[v].parent_tail for v in range(5)}
    run_bundle(engine, 3)   # (4,1) is read and must not overtake
    assert forest.labels[1] == label_before == 1
    assert {v: forest.root_of[v].parent_tail for v in range(5)} == tree_before
    assert members(forest.structures[0]) == {0, 1, 2, 3, 4}


def test_on_hold_at_size_limit_freezes_structure():
    # Chain long enough to hit the hold threshold (13 at h = 1/2): the
    # structure stops extending and the phase freezes with it alive.
    n = 15
    edges = [(i, i + 1) for i in range(n - 1)]
    pairs = [(i, i + 1) for i in range(1, n - 1, 2)]
    stream = EdgeStream(n, edges)
    engine = run_phase(stream, matched(n, pairs), checker=checker_for(stream))
    assert engine.first_hold == engine.forest.bundle == 7
    assert engine.forest.stats["holds"] == 1
    assert engine.forest.paths == []
    assert engine.froze
    live = engine.forest.structures.values()
    assert sum(1 for s in live if s.working is not None) == 1


def test_only_a_traced_phase_logs_its_events():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    untraced = engine_for(5, edges, [(0, 1), (2, 3)])
    untraced.run()
    assert untraced.forest.events is None
    events = []
    traced = engine_for(5, edges, [(0, 1), (2, 3)], trace=events.append)
    traced.run()
    assert traced.forest.events == events and events


def test_a_stored_arc_list_never_changes_in_place(monkeypatch):
    # A contraction splices its subs' lists into a copy, and a compaction
    # builds a new array, so an array the engine still stores at a later
    # bundle start holds what it held at every earlier one, also across
    # the phases that resume from the scale before.
    snapshot = {}  # id -> (array, its contents), at the last bundle start
    counts = {"compared": 0, "compactions": 0}

    class Snapshotting(PhaseEngine):
        def _bundle(self, tau):
            stored = [own for own in self.arcs_at if own is not None]
            for own in stored:
                if id(own) in snapshot:
                    assert snapshot[id(own)][1] == own.tolist(), tau
                    counts["compared"] += 1
            snapshot.clear()
            snapshot.update((id(own), (own, own.tolist())) for own in stored)
            return super()._bundle(tau)

        def _arcs_at(self, read, node):
            before = self.arcs_at[node.base]
            own = super()._arcs_at(read, node)
            counts["compactions"] += before is not None and own is not before
            return own

    monkeypatch.setattr(driver, "PhaseEngine", Snapshotting)
    report = driver.run(open_stream(parse_graph_spec("gnm:1000,3000,seed=1")),
                        driver.RunConfig(epsilon=HALF))
    assert report.stats["contracts"] > 0 and counts["compactions"] > 0
    assert counts["compared"] > 0


def forest_state(forest):
    """``forest`` as plain values: each tree's nodes in walk order, each
    named by its place there, with its links, its record's vertex count,
    ``members`` list and subs' vertices; ``root_of`` through those names
    (a removed node is "outside"); the labels, ``dirty``, the banked
    paths, the stats and the event log."""
    names = {}
    for structure in forest.structures.values():
        for node in subtree(structure.root):
            names[node] = len(names)

    def name(node):
        return None if node is None else names.get(node, "outside")

    def record(node):
        blossom = node.blossom
        if blossom is None:
            return None
        return (blossom.count, list(blossom.members),
                [list(sub.vertices) for sub in blossom.subs if type(sub) is not int])

    trees = [(s.alpha, name(s.root), name(s.working), s.on_hold, s.modified, s.size,
              [(node.base, name(node.parent), node.parent_tail, name(node.kid),
                name(node.sibling), node.outer, node.structure.alpha, record(node))
               for node in subtree(s.root)])
             for s in forest.structures.values()]
    return {"trees": trees, "root_of": [name(node) for node in forest.root_of],
            "labels": list(forest.labels), "dirty": list(forest.dirty),
            "paths": [list(path) for path in forest.paths], "stats": dict(forest.stats),
            "events": None if forest.events is None else list(forest.events)}


def engine_state(engine):
    """What a resume reads of ``engine``, as plain values: its forest's
    (see ``forest_state``), the live structures, the retired arcs, the
    dead counts and the stored arc lists."""
    return {**forest_state(engine.forest), "live": [s.alpha for s in engine.live],
            "dead": bytes(engine.dead), "dead_at": list(engine.dead_at),
            "arcs_at": [None if own is None else own.tolist() for own in engine.arcs_at]}


def test_a_forest_copy_is_left_alone_by_the_operations_of_either():
    # The triangle {0, 1, 2} hangs the pair 3 = 4 off its base; closing the
    # pentagon 0 .. 4 takes over the triangle's node, the largest sub, and
    # appends to its members list, the list the triangle's record reads.
    forest = Forest(5, matched(5, [(1, 2), (3, 4)]).mate, 6)
    structure = forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.contract(2, 0)
    forest.overtake(0, 3, 1)
    copy = _copied(forest)
    taken = forest_state(copy)
    assert taken == forest_state(forest)
    forest.contract(4, 0)
    assert forest_state(copy) == taken
    # The copy runs on as the forest did, and leaves the forest alone.
    copy.contract(4, 0)
    assert forest_state(copy) == forest_state(forest)
    done = forest_state(forest)
    copy.backtrack(copy.structures[0])
    assert forest_state(forest) == done and structure.working is not None
    for each in (forest, copy):
        assert not boundary_violations(each, 100, 6, 10_000)


def test_a_copy_taken_at_the_first_hold_stays_as_it_was_taken(monkeypatch):
    # A phase that first puts a structure on hold before banking a path,
    # and leaves another off hold, keeps a copy of itself for the next
    # scale.  The copy must equal the phase when it is taken, and still
    # equal that state once the phase it was taken from has run on to its
    # end.  At eps = 1/2 this graph takes two copies; the one at h = 1/4
    # holds a composite node, whose node in the phase goes on growing.
    taken = {}  # id of a copy -> its state when taken
    compared = composite = 0

    class Copying(PhaseEngine):
        def _copy(self):
            nonlocal composite
            copy = super()._copy()
            taken[id(copy)] = state = engine_state(copy)
            assert state == engine_state(self)
            composite += any(node[-1] is not None for tree in state["trees"]
                             for node in tree[-1])
            return copy

        def run(self):
            nonlocal compared
            paths = super().run()
            if self.held_copy is not None:
                assert engine_state(self.held_copy) == taken[id(self.held_copy)]
                compared += 1
            return paths

    monkeypatch.setattr(driver, "PhaseEngine", Copying)
    driver.run(open_stream(parse_graph_spec("gnm:1000,3000,seed=1")),
               driver.RunConfig(epsilon=HALF, trace=lambda event: None))
    assert compared == 2 and composite == 1


@pytest.mark.parametrize("sizes", [
    [2000, 1900], [1000, 300, 300, 299], [600, 65], [2000, 40, 300],  # sorted
    [2000, 3], [2000, 150, 40], [500, 10, 10, 10, 10], [64, 64],      # inserted
    [50, 40], [3, 3, 3], [7, 0], [0, 0], [1],
])
def test_spliced_is_the_sorted_merge_and_leaves_its_inputs(sizes):
    # ``_spliced`` inserts into a copy of the longest list while the
    # others are short, and sorts them all once one is not.
    rng = random.Random(sum(sizes))
    positions = rng.sample(range(4 * sum(sizes) + 1), sum(sizes))
    lists, start = [], 0
    for size in sizes:
        lists.append(array("q", sorted(positions[start:start + size])))
        start += size
    before = [own.tolist() for own in lists]
    merged = _spliced(lists)
    assert merged.tolist() == sorted(positions)
    assert [own.tolist() for own in lists] == before
    assert all(merged is not own for own in lists)


def test_a_resumed_phase_starts_from_a_fresh_phase_state():
    # The chain above holds its structure at bundle 7 at h = 1/2 (limit
    # 13) and freezes there.  Resumed at h = 1/4 (limit 25), the engine
    # must hold what a fresh phase at h = 1/4 holds after bundle 6, hold
    # flags and counts included, and then run as that phase does.
    n = 15
    edges = [(i, i + 1) for i in range(n - 1)]
    pairs = [(i, i + 1) for i in range(1, n - 1, 2)]
    stream = EdgeStream(n, edges)
    engine = run_phase(stream, matched(n, pairs), checker=checker_for(stream))
    assert engine.first_hold == engine.forest.bundle == 7 and engine.froze
    quarter = PhaseConfig.from_scale(Fraction(1, 4), HALF)
    engine.resume(quarter)
    fresh = PhaseEngine(EdgeStream(n, edges), matched(n, pairs), quarter)
    for tau in range(1, 7):
        run_bundle(fresh, tau)

    def state(engine):
        forest = engine.forest
        return (forest.bundle, forest.labels, forest.stats, forest.dirty,
                [(s.alpha, s.size, s.on_hold, s.working.base)
                 for s in forest.structures.values()])

    assert state(engine) == state(fresh)
    assert engine.run() == fresh.run()
    assert (engine.forest.stats, engine.froze, engine.first_hold) == \
        (fresh.forest.stats, fresh.froze, fresh.first_hold)


def test_trace_sequence_cycle5():
    events = []
    stream = open_stream(GraphSpec("cycle", (5,)))
    run_phase(stream, matched(5, [(0, 1), (2, 3)]), eps=Fraction(1),
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
    spec = GraphSpec("gnm", (18, 40), 9)

    def trace_of():
        events = []
        stream = open_stream(spec)
        matching = matched(18, [])
        from streammatch.matching import greedy_maximal_matching
        matching = greedy_maximal_matching(stream)
        run_phase(stream, matching, trace=events.append)
        return events

    assert trace_of() == trace_of()


def test_length_one_augmenting_path():
    # Two singleton structures joined by a single edge.  The phase-start
    # matching is deliberately not maximal here, so the boundary checker
    # (which relies on maximality) stays off.
    stream = EdgeStream(2, [(0, 1)])
    assert run_phase(stream, Matching(2)).forest.paths == [[0, 1]]


def test_checked_phase_requires_maximal_start():
    # Adjacent free vertices break outer independence at the very first
    # boundary; the pipeline never produces this state because the greedy
    # bootstrap is maximal.
    from streammatch.invariants import InvariantViolationError
    stream = EdgeStream(2, [(0, 1)])
    with pytest.raises(InvariantViolationError, match="outer-independence"):
        run_phase(stream, Matching(2), checker=checker_for(stream))


def test_cleanup_pass_augments_modified_structures():
    # Both structures extend early in the pass, so the arc joining their
    # new outer tips is skipped during extension (modified marks) and the
    # augment happens in the cleanup passes instead.
    edges = [(0, 1), (3, 4), (1, 2), (4, 5), (2, 5)]
    events = []
    engine = engine_for(6, edges, [(1, 2), (4, 5)], trace=events.append)
    run_bundle(engine, 1)
    assert engine.forest.paths == [[0, 1, 2, 5, 4, 3]]
    augments = [e for e in events if e["op"] == "augment"]
    assert augments == [{"bundle": 1, "op": "augment", "structure": 0,
                         "arc": [2, 5], "label_old": None, "label_new": None,
                         "case": None}]


@pytest.mark.parametrize("first", [[(0, 1), (3, 4)], [(3, 4), (0, 1)]])
def test_per_operation_check_lets_an_outer_outer_edge_stand_until_it_is_banked(first):
    # The fixture above, checked: after the second overtake the edge
    # (2, 5) joins the two new outer tips until the augmentation read
    # banks it, so only a bundle boundary may flag it.  The checker
    # stores the edge under its smaller end 2: a per-operation walk that
    # read that adjacency would meet it only in the second order, whose
    # second overtake grows S_0.
    stream = EdgeStream(6, first + [(1, 2), (4, 5), (2, 5)])
    checker = checker_for(stream)
    engine = PhaseEngine(stream, matched(6, [(1, 2), (4, 5)]),
                         PhaseConfig.from_scale(HALF, HALF), checker=checker)
    root_of = engine.forest.root_of
    joined = []
    checked = checker.after_operation

    def after_operation(op, *report):
        checked(op, *report)
        if op == "overtake":
            joined.append(root_of[2] is not None and root_of[5] is not None
                          and root_of[2].outer and root_of[5].outer
                          and root_of[2].structure is not root_of[5].structure)

    engine.forest.on_op = after_operation
    run_bundle(engine, 1)
    assert joined == [False, True]
    assert [sorted(path) for path in engine.forest.paths] == [[0, 1, 2, 3, 4, 5]]


def test_label_reductions_bounded_per_arc(monkeypatch):
    # Within a phase each matched arc's label only ever decreases and is
    # reduced at most l_max + 1 times; every overtake event in the trace
    # reports one of those reductions.
    from collections import Counter
    from streammatch.matching import greedy_maximal_matching
    from streammatch.structures import Forest
    writes = []
    original_relabel = Forest.relabel

    def recording_relabel(forest, u, v, value):
        writes.append((u, forest.labels[u], value))
        original_relabel(forest, u, v, value)

    monkeypatch.setattr(Forest, "relabel", recording_relabel)
    cfg = PhaseConfig.from_scale(HALF, HALF)
    for seed in range(20):
        stream = open_stream(GraphSpec("gnm", (18, 30), seed))
        matching = greedy_maximal_matching(stream)
        writes.clear()
        events = []
        engine = run_phase(stream, matching, trace=events.append)
        reductions = [(tail, old, new) for tail, old, new in writes if new < old]
        assert all(new <= old for _tail, old, new in writes)
        assert engine.forest.stats["label_reductions"] == len(reductions)
        assert all(k <= cfg.l_max + 1
                   for k in Counter(tail for tail, _, _ in reductions).values())
        overtakes = [e for e in events if e["op"] == "overtake"]
        assert all(e["label_new"] < e["label_old"] for e in overtakes)
        assert Counter((e["arc"][0], e["label_old"], e["label_new"])
                       for e in overtakes) <= Counter(reductions)


def test_phase_paths_disjoint_and_valid_on_random_graphs():
    from streammatch.matching import greedy_maximal_matching
    for seed in range(25):
        stream = open_stream(GraphSpec("gnm", (16, 26), seed))
        matching = greedy_maximal_matching(stream)
        pairs_before = set(matching.pairs())
        engine = run_phase(stream, matching, checker=checker_for(stream))
        edge_set = edge_keys(16, stream.snapshot_edges())
        used = set()
        for path in engine.forest.paths:
            assert is_alternating_augmenting(path, matching, edge_set)
            assert not (set(path) & used)
            used.update(path)
        assert set(matching.pairs()) == pairs_before


def test_phase_from_a_non_maximal_matching_augments_in_the_first_bundle():
    # The free vertices 0 and 3 are adjacent, so the start breaks outer
    # independence.  Each new structure marks its free vertex dirty, so
    # the first augmentation read still sees the edge 0-3.
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3)]
    events = []
    engine = engine_for(6, edges, [(1, 2), (4, 5)], trace=events.append)
    assert engine.run() == [[0, 3]]
    augments = [e for e in events if e["op"] == "augment"]
    assert [(e["bundle"], e["arc"]) for e in augments] == [(1, [0, 3])]


# Each test below that calls ``cleanup_after`` builds a forest by hand at
# a bundle boundary (the dirty list cleared, no edge joining outer nodes
# of two structures), applies one operation that makes a vertex outer in
# a new structure, and runs the cleanup reads: the only edge that augments
# is at that vertex, so without its dirty mark the augmentation read would
# miss it.

def cleanup_after(engine, operation):
    forest = engine.forest
    forest.bundle = 1
    forest.dirty.clear()
    operation(forest)
    engine._contract_and_augment()
    return forest.paths


def test_dirty_contract_marks_the_inner_vertices_it_absorbs():
    # Structure 0 holds the triangle 0-1-2 with 1 inner; 1 is also
    # adjacent to the free vertex 3.  Contracting makes 1 outer.
    engine = engine_for(4, [(0, 1), (1, 2), (2, 0), (1, 3)], [(1, 2)])
    engine.forest.overtake(0, 1, 1)
    # Through the engine, which makes the blossom's arc list as it contracts.
    assert cleanup_after(engine, lambda f: engine._contract(engine.stream.read(), 2, 0)) \
        == [[0, 2, 1, 3]]


def test_dirty_overtake_case_1_marks_the_new_outer_vertex():
    # The path 0-1=2-3: structure 0 takes the unvisited pair 1=2, and 2
    # becomes outer next to the free vertex 3.
    engine = engine_for(4, [(0, 1), (1, 2), (2, 3)], [(1, 2)])
    assert cleanup_after(engine, lambda f: f.overtake(0, 1, 1)) == [[0, 1, 2, 3]]


def test_dirty_overtake_case_2_2_marks_nothing():
    # Structure 5 holds 5-6=7-3=4, and structure 0 steals the subtree 3=4
    # through the shorter arc 0-3.  The stolen 4 was outer and stays
    # outer: the steal makes no vertex outer, so it marks none dirty.
    edges = [(0, 3), (5, 6), (6, 7), (7, 3), (3, 4)]
    engine = engine_for(8, edges, [(6, 7), (3, 4)])
    forest = engine.forest
    forest.overtake(5, 6, 1)
    forest.overtake(7, 3, 2)
    dirty = list(forest.dirty)
    assert forest.overtake(0, 3, 1) == "2.2"
    assert forest.dirty == dirty


# The augmentation read collects the edges that can bank from every dirty
# vertex first, then banks them in stream order.  The tests below build
# its input by hand with ``cleanup_after``.

def test_augmentation_banks_in_stream_order_not_dirty_order():
    # 0 takes 1=2 and then 3 takes 4=5, so the dirty list is [2, 5].  Both
    # (2,6) and (6,5) join the root 6 to a new outer tip; only one can
    # bank.  (6,5), found from the later dirty vertex 5, comes first in
    # the stream, so it banks and (2,6) finds structure 6 removed.
    edges = [(6, 5), (0, 1), (1, 2), (3, 4), (4, 5), (2, 6)]
    engine = engine_for(7, edges, [(1, 2), (4, 5)])

    def take_both(forest):
        forest.overtake(0, 1, 1)
        forest.overtake(3, 4, 1)
        assert forest.dirty == [2, 5]

    assert cleanup_after(engine, take_both) == [[6, 5, 4, 3]]
    assert sorted(engine.forest.structures) == [0]


def test_augmentation_banks_an_edge_with_both_ends_dirty_once(monkeypatch):
    # 0 takes 1=2 and 3 takes 4=5, so both ends of (2,5) are dirty and the
    # read finds the edge from each.  It reads the edge once from each end
    # and once more to bank it, and banks it once.
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (2, 5)]
    engine = engine_for(6, edges, [(1, 2), (4, 5)])
    reads = []
    open_read = engine.stream.read

    def recording_read():
        read = open_read()
        visited = []
        reads.append(visited)

        class Recording(list):
            def __getitem__(self, p):
                visited.append(list.__getitem__(self, p))
                return visited[-1]

        read.arcs = Recording(read.arcs)
        return read

    monkeypatch.setattr(engine.stream, "read", recording_read)

    def take_both(forest):
        forest.overtake(0, 1, 1)
        forest.overtake(3, 4, 1)

    assert cleanup_after(engine, take_both) == [[0, 1, 2, 5, 4, 3]]
    collection, augmentation = reads
    assert sorted(map(tuple, augmentation)) == [(2, 1), (2, 5), (2, 5), (5, 2), (5, 4)]


def test_augmentation_skips_an_edge_whose_structure_banked_earlier_in_the_read():
    # 0 takes 1=2, and its new tip 2 is adjacent to the roots 3 and 4.
    # (2,3) comes first and banks, which removes structure 0; the other
    # candidate, (2,4), is then skipped and structure 4 stays.
    edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    engine = engine_for(5, edges, [(1, 2)])
    assert cleanup_after(engine, lambda f: f.overtake(0, 1, 1)) == [[0, 1, 2, 3]]
    assert sorted(engine.forest.structures) == [4]


def phase_events(engine_class, n, edges, pairs):
    events = []
    engine_class(EdgeStream(n, edges), matched(n, pairs),
                 PhaseConfig.from_scale(HALF, HALF), trace=events.append).run()
    return events


@pytest.mark.parametrize("edges, pairs, op, arc", [
    # 0 takes 1=2 by (0,1) and so skips (0,3) in the same read, while 3 is
    # unreached; stuck at 2, it backtracks and takes 3=4 through (0,3).
    ([(0, 1), (0, 3), (1, 2), (3, 4)], [(1, 2), (3, 4)], "overtake", [3, 4]),
    # 0 takes 1=2 by (0,1) and skips (0,4) while 4 is unreached; then 2
    # takes 3=4, and the other arc of the skipped edge, (4,0), closes the
    # blossom 0-1=2-3=4.
    ([(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)], [(1, 2), (3, 4)], "contract", [4, 0]),
])
def test_arc_read_while_its_head_is_unreached_acts_later(edges, pairs, op, arc):
    events = phase_events(PhaseEngine, 5, edges, pairs)
    assert [e for e in events if e["op"] == op and e["arc"] == arc]
    assert events == phase_events(FullScanEngine, 5, edges, pairs)


def test_arc_into_another_structures_inner_node_overtakes_after_a_skipped_bundle():
    # Structure 3 reaches 6=7 in bundle 2, at label 2.  Structure 0 reads
    # (0,6) in bundle 3 just after (0,8) took 8=9, so it skips it; stuck at
    # 9, it backtracks to its root and steals 6=7 through (0,6) at label 1.
    edges = [(0, 1), (0, 8), (0, 6), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (8, 9)]
    pairs = [(1, 2), (4, 5), (6, 7), (8, 9)]
    events = phase_events(PhaseEngine, 10, edges, pairs)
    takes = [(e["bundle"], e["structure"], e["case"]) for e in events
             if e["op"] == "overtake" and e["arc"] == [6, 7]]
    assert takes == [(2, 3, "1"), (5, 0, "2.2")]
    assert [(e["bundle"], e["structure"]) for e in events
            if e["op"] == "overtake" and e["arc"] == [8, 9]] == [(3, 0)]
    assert events == phase_events(FullScanEngine, 10, edges, pairs)


@pytest.mark.parametrize("eps", [HALF, Fraction(1, 4)])
def test_node_arc_lists_hold_the_live_arcs_and_count_the_dead_at_every_boundary(monkeypatch,
                                                                                eps):
    # At each bundle boundary every root blossom has the list it would
    # read: the one cached under its base, or for a trivial node or a vertex
    # no structure reached, the tail index slice of the vertex.  That list
    # holds, in stream order, the arcs with a tail in the node that are
    # live or were retired since it was last compacted, and the dead count
    # under its base is the number of the latter.  A vertex that is not
    # the base of its root blossom keeps no list and counts nothing (a
    # contraction drops its subs' lists and sums their counts), and a
    # composite root blossom always has a list.  A splice or a count that
    # drops, keeps or miscounts an arc fails here even where the outcome
    # matches.
    n, edges = build_edges(parse_graph_spec("gnm:150,450,seed=1"))
    seen = {"composite": 0, "with dead": 0, "compacted": 0}
    backtrack = PhaseEngine._backtrack_stuck

    def backtrack_then_check(engine):
        backtrack(engine)
        read = engine.stream.read()  # never closed, so it counts no pass
        root_of, dead = engine.forest.root_of, engine.dead
        for x in range(n):
            node = root_of[x]
            own = engine.arcs_at[x]
            count = engine.dead_at[x]
            if node is not None and node.base != x:
                assert own is None and count == 0
                continue
            if own is None:
                assert node is None or node.blossom is None
                own = read.tail_positions(x)
            vertices = [x] if node is None else node.vertices
            tails = sorted(p for y in vertices for p in read.tail_positions(y))
            assert list(own) == sorted(set(own)) and set(own) <= set(tails)
            assert [p for p in own if not dead[p]] == [p for p in tails if not dead[p]]
            assert count == sum(dead[p] for p in own)
            seen["composite"] += node is not None and node.blossom is not None
            seen["with dead"] += count > 0
            seen["compacted"] += any(dead[p] for p in set(tails) - set(own))

    monkeypatch.setattr(PhaseEngine, "_backtrack_stuck", backtrack_then_check)
    driver.run(EdgeStream(n, edges), driver.RunConfig(epsilon=eps))
    assert seen["composite"] > 0 and seen["with dead"] > 0 and seen["compacted"] > 0


def test_collection_reads_no_arc_of_an_absorbed_outer_sub():
    # The root 0 has an arc to each unreached matched pair 3=4, 5=6, ...
    # Structure 0 has taken 1=2, and the collection read contracts the
    # triangle 0-1=2 by its working node's arc (2,0).  Of the absorbed
    # subs, only 1 was inner; the root 0 was outer, so none of its arcs
    # can close a blossom in that fixpoint, and the read visits none.
    pairs = [(1, 2)] + [(a, a + 1) for a in range(3, 43, 2)]
    edges = [(0, 1), (1, 2), (2, 0)] + [(0, a) for a, _ in pairs[1:]] + pairs[1:]
    engine = engine_for(43, edges, pairs)
    forest = engine.forest
    forest.overtake(0, 1, 1)
    stream = engine.stream
    read = stream.read()  # never closed, so it counts no pass
    visited = []

    class Recording(list):
        def __getitem__(self, p):
            visited.append(list.__getitem__(self, p))
            return visited[-1]

    read.arcs = Recording(read.arcs)
    structure = forest.structures[0]
    engine._contract_at_working(read, structure)
    assert sorted(structure.working.vertices) == [0, 1, 2]
    assert visited and all(u != 0 for u, _ in visited)
