"""The engine against a full-scan reference.

Each bundle read of :class:`PhaseEngine` visits only the arcs whose tail
can act in it.  :class:`FullScanEngine` hands every arc of every pass to
the same read loops.  Both must produce the same trace, matching, counters,
per-scale rows and pass count on every input.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch import bench, driver
from streammatch.phase import PhaseEngine
from streammatch.stream import EdgeStream, bipartite_edges, gnm_edges, open_stream


class FullScanEngine(PhaseEngine):
    """Reference engine: each read visits every arc of the pass."""

    def _read(self, tails):
        return self.stream.iter_arcs_once()


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


def test_reference_reads_more_arcs_than_the_engine():
    # Guards the comparison itself: the two engines must differ in the
    # arcs they visit, or the tests below compare an engine with itself.
    visited = {}
    for engine_class in (PhaseEngine, FullScanEngine):
        count = 0

        def counting_read(engine, tails, read=engine_class._read):
            nonlocal count
            for arc in read(engine, tails):
                count += 1
                yield arc

        with mock.patch.object(engine_class, "_read", counting_read), \
                mock.patch.object(driver, "PhaseEngine", engine_class):
            driver.run(EdgeStream(40, gnm_edges(40, 80, 3)), driver.RunConfig(epsilon=0.5))
        visited[engine_class] = count
    assert 0 < visited[PhaseEngine] < visited[FullScanEngine]


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
