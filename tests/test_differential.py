"""The engine against a full-scan reference.

Each bundle read of :class:`PhaseEngine` visits only the arcs that can act
in it: the extension read the arcs at working nodes, the collection read a
worklist of the arcs at each working node, and the augmentation read the
edges at vertices that became outer; all three skip the arcs that the
first two retired earlier in the phase.  :class:`FullScanEngine` reads
every arc of every pass and retires nothing, collects the arcs internal
to each structure, contracts by rescanning them from the first arc after
each contraction, and checks every arc for an augmentation.  Both must
produce the same trace, matching, counters, per-scale rows and pass
count on every input.

The engine's side runs as :func:`outer_subs_checked`, which checks at
each contraction of the collection fixpoint the fact that lets the
fixpoint read only the subs that were inner.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FullScanEngine
from streammatch import bench, driver
from streammatch.phase import PhaseEngine
from streammatch.stream import (EdgeStream, bipartite_edges, build_edges, gnm_edges,
                                open_stream, parse_graph_spec)
from streammatch.structures import base_of, subtree


def outer_subs_checked(counts):
    """A :class:`PhaseEngine` that asserts, at every contraction of the
    collection fixpoint and from the forest and the graph alone, that no
    arc of an absorbed outer sub other than the working node reaches an
    outer node of the structure outside the new blossom.  Every arc is
    checked, not only the live ones: a retired arc has its ends in one
    root blossom, an end removed, or joins a base to its inner parent,
    so none of them could reach such a node either.  ``counts["outer
    subs"]`` counts the subs checked."""

    class OuterSubsChecked(PhaseEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.adjacent = [[] for _ in range(self.n)]
            for u, v in self.stream.snapshot_edges():
                self.adjacent[u].append(v)
                self.adjacent[v].append(u)

        def _contract_at_working(self, read, structure):
            forest, adjacent = self.forest, self.adjacent
            contract = forest.contract

            def checked_contract(u, v):
                # ``contract`` returns the blossom's record, and its subs
                # are records or single vertices, known by base as the tree
                # nodes they were.
                working = structure.working.base
                outer = {node.base for node in subtree(structure.root) if node.outer}
                blossom = contract(u, v)
                node = forest.root_of[u]
                assert node.blossom is blossom and structure.working is node
                for sub in blossom.subs:
                    if base_of(sub) == working or base_of(sub) not in outer:
                        continue
                    counts["outer subs"] += 1
                    for x in [sub] if isinstance(sub, int) else sub.vertices:
                        for y in adjacent[x]:
                            by = forest.root_of[y]
                            assert (by is None or by is node or by.structure is not structure
                                    or not by.outer), (sub, x, y)
                return blossom

            forest.contract = checked_contract
            try:
                super()._contract_at_working(read, structure)
            finally:
                del forest.contract

    return OuterSubsChecked


def outcome(make_stream, eps, checked):
    events = []
    report = driver.run(make_stream(), driver.RunConfig(
        epsilon=eps, check_invariants=checked, trace=events.append))
    return (events, report.matching.mate, report.stats,
            [row.as_dict() for row in report.per_scale], report.passes)


def assert_same_as_full_scan(make_stream, eps, checked=False):
    with mock.patch.object(driver, "PhaseEngine", outer_subs_checked(Counter())):
        indexed = outcome(make_stream, eps, checked)
    with mock.patch.object(driver, "PhaseEngine", FullScanEngine):
        reference = outcome(make_stream, eps, checked)
    assert indexed == reference


READ_KINDS = ("extension", "collection", "augmentation")


def arcs_visited_per_read_kind(engine_class, n, edges, visits=None, checked=False):
    """Arcs each read kind hands to the engine over one run at eps = 1/2,
    checked or not: the arcs a full pass yields plus those a read picks by
    position.  Reads come in a fixed order, the greedy pass and then three
    per bundle.  The counts go to ``visits`` when given, so that the
    engine can read them during the run.

    Under the key ``"dead again"`` it also counts the visits to an arc
    position that an extension or collection read already visited in the
    same phase while the arc was dead (its ends in one root blossom, or an
    end removed): visits by any later bundle read of the phase."""
    visits = Counter() if visits is None else visits
    reads = count()
    kind = [None]
    full_pass = EdgeStream.iter_arcs_once
    engine = [None]
    seen_dead = set()

    class Tracked(engine_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engine[0] = self
            seen_dead.clear()

    class CountingArcs(list):
        def visit(self, p, arc):
            visits[kind[0]] += 1
            if kind[0] == "augmentation" and p in seen_dead:
                visits["dead again"] += 1
            if kind[0] not in ("extension", "collection"):
                return
            root_of = engine[0].forest.root_of
            bu, bv = root_of[arc[0]], root_of[arc[1]]
            if ((bu is not None and (bu is bv or bu.structure is None))
                    or (bv is not None and bv.structure is None)):
                if p in seen_dead:
                    visits["dead again"] += 1
                seen_dead.add(p)

        def __getitem__(self, p):
            arc = list.__getitem__(self, p)
            self.visit(p, arc)
            return arc

        def __iter__(self):
            for p, arc in enumerate(list.__iter__(self)):
                self.visit(p, arc)
                yield arc

    def open_pass(stream):
        index = next(reads)
        kind[0] = READ_KINDS[(index - 1) % 3] if index else "greedy"
        return full_pass(stream)

    stream = EdgeStream(n, edges)
    stream.read()  # builds the tail index; a read never closed counts no pass
    stream._arcs = CountingArcs(stream._arcs)
    with mock.patch.object(EdgeStream, "iter_arcs_once", open_pass), \
            mock.patch.object(driver, "PhaseEngine", Tracked):
        driver.run(stream, driver.RunConfig(epsilon=0.5, check_invariants=checked))
    return visits


def test_reference_reads_more_arcs_than_the_engine():
    # Guards the comparison itself: the two engines must differ in the
    # arcs they visit in every read kind, or the tests below compare a
    # read of the engine with itself.
    n, edges = 40, gnm_edges(40, 80, 3)
    engine = arcs_visited_per_read_kind(PhaseEngine, n, edges)
    reference = arcs_visited_per_read_kind(FullScanEngine, n, edges)
    assert engine["greedy"] == reference["greedy"] == 2 * len(edges)
    for kind in READ_KINDS:
        assert 0 < engine[kind] < reference[kind], kind


@pytest.mark.parametrize("spec", ["gnm:40,80,seed=3", "gnm:150,450,seed=1",
                                  "gnm:300,900,seed=1"])
def test_engine_reads_a_dead_arc_once_per_phase(spec):
    # Once an extension or collection read meets an arc whose ends share a
    # root blossom or with a removed end, it retires the arc, and no read
    # of the same phase, of any of the three kinds, visits that position
    # again.  The reference reads every arc of every pass, so it revisits
    # them: the count can see a revisit.
    n, edges = build_edges(parse_graph_spec(spec))
    assert arcs_visited_per_read_kind(PhaseEngine, n, edges)["dead again"] == 0
    assert arcs_visited_per_read_kind(FullScanEngine, n, edges)["dead again"] > 0


def test_arc_visits_per_read_kind_stay_pinned():
    # Before the extension read stopped once every structure it picked
    # had acted, it visited 52,661 arcs on this graph.  Before the
    # collection fixpoint added only the arcs of the subs a contraction
    # made outer, and before a list kept its dead positions until half of
    # it was dead, collection visited 55,305 arcs and augmentation 2,728.
    # Fewer retirements leave more edges at dirty vertices live, so the
    # augmentation read visited 2,961.  It now visits every live arc at a
    # dirty vertex to filter it, so an edge with both ends dirty is
    # visited from both, and each edge that passes the filter once more
    # when its turn comes; before, it visited each such edge once.  Five
    # phases of this run resume from the last phase of the scale before,
    # so the 211 bundles they share with it are read once; before that,
    # augmentation visited 3,006 arcs.
    n, edges = build_edges(parse_graph_spec("gnm:300,900,seed=1"))
    visits = arcs_visited_per_read_kind(PhaseEngine, n, edges)
    assert visits["extension"] <= 2500
    assert visits["collection"] <= 6000
    assert abs(visits["augmentation"] - 1409) <= 30


def marking_decides(visits, tally):
    """A :class:`PhaseEngine` that asserts at every bundle that three
    things agree: a live structure is below the hold threshold when the
    bundle starts, the bundle records an operation other than a hold, and
    ``_bundle`` returns True; and that a bundle without such a structure
    visits no arc.  ``tally`` counts the bundles of each kind and the
    resumes."""

    class MarkingDecides(PhaseEngine):
        def resume(self, config):
            tally["resumes"] += 1
            super().resume(config)

        def _bundle(self, tau):
            stats = self.forest.stats

            def operations():
                return sum(stats[op + "s"] for op in ("overtake", "contract", "augment",
                                                       "backtrack"))

            off_hold = any(s.working is not None and s.size < self.config.limit
                           for s in self.forest.structures.values())
            before, seen = operations(), sum(visits.values())
            changed = super()._bundle(tau)
            assert changed == off_hold == (operations() > before), tau
            assert off_hold or sum(visits.values()) == seen, tau
            tally[off_hold] += 1
            return changed

    return MarkingDecides


def test_a_bundle_changes_the_phase_iff_marking_leaves_a_structure_off_hold():
    # Checked runs of the corpus, then a run whose phases resume from the
    # scale before seven times, once from a copy.
    visits, tally = Counter(), Counter()
    for spec in bench.corpus():
        arcs_visited_per_read_kind(marking_decides(visits, tally), *build_edges(spec),
                                   visits, checked=True)
    assert tally[True] and tally[False]
    tally.clear()
    n, edges = build_edges(parse_graph_spec("gnm:1000,3000,seed=1"))
    arcs_visited_per_read_kind(marking_decides(visits, tally), n, edges, visits)
    assert tally["resumes"] == 7 and tally[False] >= 6


def steals_before_acting(n, edges, eps):
    """The number of extension reads in one run in which a picked
    structure (one whose working node has live arcs when the read begins)
    has a subtree stolen in case 2.2 before it acts, which marks it
    modified, and another picked structure acts after that steal."""
    found = 0
    ops = None  # per contraction or overtake of the read: (actor, robbed or None)

    def on_op(op, touched, arc, case):
        if ops is not None and op in ("contract", "overtake"):
            ops.append((touched[0].alpha, touched[1].alpha if len(touched) == 2 else None))

    class Tracked(PhaseEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.forest.on_op = on_op

        def _extend_pass(self):
            nonlocal found, ops
            read = self.stream.read()  # never closed, so it counts no pass
            dead = self.dead
            picked = {s.alpha for s in self.live
                      if s.working is not None and not (s.on_hold or s.modified)
                      and any(not dead[p] for x in s.working.vertices
                              for p in read.tail_positions(x))}
            ops = []
            super()._extend_pass()
            acted = set()
            for (actor, robbed), (later, _) in zip(ops, ops[1:]):
                acted.add(actor)
                if robbed in picked and robbed not in acted:
                    assert later in picked
                    found += 1
                    break
            ops = None

    with mock.patch.object(driver, "PhaseEngine", Tracked):
        driver.run(EdgeStream(n, edges), driver.RunConfig(epsilon=eps))
    return found


def test_a_structure_robbed_before_acting_keeps_the_read_going():
    # A structure whose subtree is stolen before it acts never acts in
    # that read, so the read cannot end on its account: here another
    # picked structure acts after the steal, and the engine must still
    # meet its arc.  Every phase of a run starts from a maximal matching,
    # so an edge between outer nodes of two structures arises within the
    # read only by an operation of one of them or by a steal from one of
    # them: the other side of an augmentation in the extension read has
    # already acted or been robbed, and a steal is the only way a picked
    # structure loses its chance to act.
    spec = parse_graph_spec("gnm:30,45,seed=1")
    assert steals_before_acting(*build_edges(spec), Fraction(1, 2)) > 0
    assert_same_as_full_scan(lambda: open_stream(spec), Fraction(1, 2))


def test_absorbed_outer_subs_reach_no_outer_node_of_their_structure_outside():
    # The check runs in every comparison in this module; here it must
    # meet absorbed outer subs, so that it is not vacuous.
    counts = Counter()
    with mock.patch.object(driver, "PhaseEngine", outer_subs_checked(counts)):
        for spec in [*bench.corpus(), parse_graph_spec("gnm:150,450,seed=1")]:
            driver.run(open_stream(spec), driver.RunConfig(epsilon=Fraction(1, 2)))
    assert counts["outer subs"] > 100


def full_scan_counts(make_streams):
    """Run :class:`FullScanEngine` on each ``(stream, eps)`` and count its
    contractions by the read that made them, and its case 2.2 overtakes."""
    counts = Counter()

    class Counting(FullScanEngine):
        def _extend_pass(self):
            before = self.forest.stats["contracts"]
            super()._extend_pass()
            counts["extension"] += self.forest.stats["contracts"] - before

        def _contract_and_augment(self):
            before = self.forest.stats["contracts"]
            super()._contract_and_augment()
            counts["collection"] += self.forest.stats["contracts"] - before

    def on_event(event):
        counts["steals"] += event["op"] == "overtake" and event["case"] == "2.2"

    with mock.patch.object(driver, "PhaseEngine", Counting):
        for stream, eps in make_streams():
            driver.run(stream, driver.RunConfig(epsilon=eps, trace=on_event))
    return counts


def test_full_scan_contracts_only_in_the_collection_read():
    # The reference keeps the paper's rule that lets the extension read
    # contract; the engine drops it, since outer-independence at each
    # boundary leaves an unmodified structure's working node no arc to
    # another of its outer nodes.  Over the corpus at eps = 1/2 and graphs
    # drawn as test_random_gnm_graphs draws them, that rule never fires
    # while the collection read does contract.  The inputs also steal in
    # case 2.2, so the comparisons above cover the outer vertices a steal
    # moves, which the engine does not mark dirty.
    rng = random.Random(7)

    def streams():
        for spec in bench.corpus():
            yield open_stream(spec), Fraction(1, 2)
        for i in range(100):
            n = rng.randint(2, 40)
            m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
            edges = gnm_edges(n, m, rng.randrange(2**32))
            yield EdgeStream(n, edges), [Fraction(1, 2), Fraction(1, 4)][i % 2]

    counts = full_scan_counts(streams)
    assert counts["extension"] == 0
    assert counts["collection"] > 0 and counts["steals"] > 0


# The resumes from a copy taken at the first hold, per case of the test
# below, whose parameter ``frozen`` counts those from an engine that froze
# at its first hold.
COPY_RESUMES = {
    ("gnm:1000,3000,seed=1", Fraction(1, 2)): 1,
    ("gnm:1000,3000,seed=1", Fraction(1, 4)): 1,
    ("bipartite:1000,1000,4000,seed=4", Fraction(1, 2)): 4,
    ("bipartite:1000,1000,4000,seed=4", Fraction(1, 4)): 7,
    ("bipartite:300,300,1200,seed=12", Fraction(1, 4)): 4,
}


@pytest.mark.parametrize("spec, eps, frozen", [
    ("gnm:300,900,seed=1", Fraction(1, 2), 5),
    ("gnm:300,900,seed=1", Fraction(1, 4), 5),
    ("gnm:1000,3000,seed=1", Fraction(1, 2), 6),
    ("gnm:1000,3000,seed=1", Fraction(1, 4), 6),
    # One frozen resume, which replays 4,871 bundles.
    ("bipartite:1000,1000,4000,seed=4", Fraction(1, 4), 1),
    ("bipartite:1000,1000,4000,seed=4", Fraction(1, 2), 0),
    # 741 case 2.2 steals.
    ("bipartite:300,300,1200,seed=12", Fraction(1, 4), 0),
])
def test_a_resumed_phase_runs_as_a_fresh_one(spec, eps, frozen):
    # The driver resumes a scale's first phase from the last phase of the
    # scale before, as that phase stood when it first put a structure on
    # hold: from the engine itself when it froze there, and otherwise
    # from a copy it took then, which has not frozen.  Each resumed phase
    # must give the result and the events of a fresh phase on the same
    # matching and config, run on a stream of its own.
    graph = parse_graph_spec(spec)
    events = []
    marks = {}  # resumed engine -> index of its phase's first event
    resumed = Counter()  # resumes by whether the engine had frozen
    compared = 0
    original_resume, original_run = PhaseEngine.resume, PhaseEngine.run

    def resume(engine, config):
        marks[engine] = len(events)
        resumed[engine.froze] += 1
        original_resume(engine, config)

    def run(engine):
        nonlocal compared
        paths = original_run(engine)
        mark = marks.pop(engine, None)
        if mark is not None:
            fresh_events = []
            fresh = PhaseEngine(open_stream(graph), engine.matching, engine.config,
                                trace=fresh_events.append)
            assert fresh.run() == paths
            assert (fresh.forest.stats, fresh.froze, fresh.first_hold) == \
                (engine.forest.stats, engine.froze, engine.first_hold)
            assert fresh_events == events[mark:]
            compared += 1
        return paths

    with mock.patch.object(PhaseEngine, "resume", resume), \
            mock.patch.object(PhaseEngine, "run", run):
        driver.run(open_stream(graph), driver.RunConfig(epsilon=eps, trace=events.append))
    copies = COPY_RESUMES.get((spec, eps), 0)
    assert (resumed[False], resumed[True]) == (copies, frozen)
    assert compared == copies + frozen


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)])
def test_bench_corpus(eps):
    for spec in bench.corpus():
        assert_same_as_full_scan(lambda: open_stream(spec), eps)


def test_bench_corpus_checked():
    for spec in bench.corpus():
        assert_same_as_full_scan(lambda: open_stream(spec), Fraction(1, 2), checked=True)


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4)])
def test_nested_contractions(eps, checked):
    # Larger than the corpus: blossoms nest inside blossoms, so the
    # retired arcs of a working node pile up over many contractions.
    spec = parse_graph_spec("gnm:150,450,seed=1")
    assert_same_as_full_scan(lambda: open_stream(spec), eps, checked)


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4)])
@pytest.mark.parametrize("spec", ["bipartite:200,200,800,seed=9",
                                  "bipartite:300,300,1200,seed=12"])
def test_steal_heavy_graphs(spec, eps):
    # The corpus reaches a single case 2.2 steal, yet the augmentation
    # read relies on a steal marking no vertex dirty: the outer vertices
    # it moves were outer at the last boundary.  These graphs steal
    # hundreds of times per run (201 to 741).
    graph = parse_graph_spec(spec)
    assert full_scan_counts(lambda: [(open_stream(graph), eps)])["steals"] >= 100
    for checked in (False, True):
        assert_same_as_full_scan(lambda: open_stream(graph), eps, checked)


def test_checked_engine_at_n_10000():
    # The checker at every operation and bundle boundary of a run that
    # starts 1,560 structures over 278 bundles; the reference runs
    # unchecked, so the run must also come out the same as without it.
    spec = parse_graph_spec("gnm:10000,30000,seed=1")
    with mock.patch.object(driver, "PhaseEngine", outer_subs_checked(Counter())):
        checked = outcome(lambda: open_stream(spec), Fraction(1, 2), True)
    with mock.patch.object(driver, "PhaseEngine", FullScanEngine):
        reference = outcome(lambda: open_stream(spec), Fraction(1, 2), False)
    assert checked == reference


EPSILONS = st.sampled_from([Fraction(1, 2), Fraction(1, 4)])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.data(), EPSILONS)
def test_random_gnm_graphs(n, data, eps):
    m = data.draw(st.integers(0, min(n * (n - 1) // 2, 3 * n)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    edges = gnm_edges(n, m, seed)
    assert_same_as_full_scan(lambda: EdgeStream(n, edges), eps)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.data(), EPSILONS)
def test_random_bipartite_graphs(a, b, data, eps):
    m = data.draw(st.integers(0, min(a * b, 3 * (a + b))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    edges = bipartite_edges(a, b, m, seed)
    assert_same_as_full_scan(lambda: EdgeStream(a + b, edges), eps)
