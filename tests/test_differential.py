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
"""

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


def outcome(make_stream, eps, checked):
    events = []
    report = driver.run(make_stream(), driver.RunConfig(
        epsilon=eps, check_invariants=checked, trace=events.append))
    return (events, report.matching.mate, report.stats,
            [row.as_dict() for row in report.per_scale], report.passes)


def assert_same_as_full_scan(make_stream, eps, checked=False):
    indexed = outcome(make_stream, eps, checked)
    with mock.patch.object(driver, "PhaseEngine", FullScanEngine):
        reference = outcome(make_stream, eps, checked)
    assert indexed == reference


READ_KINDS = ("extension", "collection", "augmentation")


def arcs_visited_per_read_kind(engine_class, n, edges):
    """Arcs each read kind hands to the engine over one run: the arcs a
    full pass yields plus those a read picks by position.  Reads come in
    a fixed order, the greedy pass and then three per bundle.

    Under the key ``"dead again"`` it also counts the visits to an arc
    position that an extension or collection read already visited in the
    same phase while the arc was dead (its ends in one root blossom, or an
    end removed): visits by any later bundle read of the phase."""
    visits = Counter()
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
        driver.run(stream, driver.RunConfig(epsilon=0.5))
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
