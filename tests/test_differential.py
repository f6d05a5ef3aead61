"""The engine against a full-scan reference.

Each bundle read of :class:`PhaseEngine` visits only the arcs that can act
in it: the extension read the arcs at working nodes, the collection read a
worklist of the arcs at each working node, and the augmentation read the
edges at vertices that became outer.  :class:`FullScanEngine` reads every
arc of every pass, collects the arcs internal to each structure, contracts
by rescanning them from the first arc after each contraction, and checks
every arc for an augmentation.  Both must produce the same trace,
matching, counters, per-scale rows and pass count on every input.
"""

from collections import Counter
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch import bench, driver
from streammatch.phase import PhaseEngine
from streammatch.stream import EdgeStream, bipartite_edges, gnm_edges, open_stream


class FullScanEngine(PhaseEngine):
    """Reference engine: each read visits every arc of the pass."""

    def _extension_arcs(self, read, tails):
        return iter(read.arcs)

    def _contract_and_augment(self):
        forest = self.forest
        root_of = forest.root_of

        buckets = {}
        for u, v in self.stream.iter_arcs_once():
            if root_of[u] is None or root_of[v] is None:
                continue
            owner = root_of[u].structure
            if owner is None or owner.working is None or root_of[v].structure is not owner:
                continue
            buckets.setdefault(owner.alpha, []).append((u, v))

        for alpha in sorted(buckets):
            structure = forest.structures[alpha]
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
            bu = root_of[u]
            bv = root_of[v]
            if bu is None or bv is None or bu is bv:
                continue
            owner = bu.structure
            target = bv.structure
            if owner is None or target is None or owner is target:
                continue
            if bu.outer and bv.outer:
                assert mate[u] != v
                forest.record_augmentation(u, v)
        forest.dirty.clear()


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
    a fixed order, the greedy pass and then three per bundle."""
    visits = Counter()
    reads = count()
    kind = [None]
    full_pass = EdgeStream.iter_arcs_once

    class CountingArcs(list):
        def __getitem__(self, p):
            visits[kind[0]] += 1
            return list.__getitem__(self, p)

        def __iter__(self):
            for arc in list.__iter__(self):
                visits[kind[0]] += 1
                yield arc

    def open_pass(stream):
        index = next(reads)
        kind[0] = READ_KINDS[(index - 1) % 3] if index else "greedy"
        return full_pass(stream)

    stream = EdgeStream(n, edges)
    stream.read()  # builds the tail index; a read never closed counts no pass
    stream._arcs = CountingArcs(stream._arcs)
    with mock.patch.object(EdgeStream, "iter_arcs_once", open_pass), \
            mock.patch.object(driver, "PhaseEngine", engine_class):
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


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2)])
def test_bench_corpus(eps):
    for spec in bench.corpus():
        assert_same_as_full_scan(lambda: open_stream(spec), eps)


def test_bench_corpus_checked():
    for spec in bench.corpus():
        assert_same_as_full_scan(lambda: open_stream(spec), Fraction(1, 2), checked=True)


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
