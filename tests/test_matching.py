"""Matching state: greedy bootstrap, labels, augmentation, validation."""

import itertools

import pytest

from streammatch.invariants import InvariantViolationError
from streammatch.matching import (Matching, RemovedSet,
                                  augment_along, greedy_maximal_matching,
                                  init_labels, is_alternating_augmenting,
                                  validate_matching)
from streammatch.oracle import exact_matching_exhaustive
from streammatch.stream import EdgeStream, GraphSpec, open_stream


def stream_of(n, edges):
    return EdgeStream(n, edges)


def test_greedy_path_order_takes_outer_edges():
    m = greedy_maximal_matching(stream_of(4, [(0, 1), (1, 2), (2, 3)]))
    assert set(m.pairs()) == {(0, 1), (2, 3)}
    assert m.size == 2


def test_greedy_path_order_takes_middle_edge():
    m = greedy_maximal_matching(stream_of(4, [(1, 2), (0, 1), (2, 3)]))
    assert m.pairs() == [(1, 2)]
    assert m.size == 1


def test_greedy_uses_exactly_one_pass():
    stream = open_stream(GraphSpec("cycle", (6,)))
    greedy_maximal_matching(stream)
    assert stream.pass_count() == 1


def test_greedy_is_maximal_no_free_edge():
    stream = open_stream(GraphSpec("random-gnm", (20, 50), 5))
    m = greedy_maximal_matching(stream)
    for u, v in stream.snapshot_edges():
        assert not (m.is_free(u) and m.is_free(v))


def test_greedy_cycle5_any_order_gives_two():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    nu = exact_matching_exhaustive(5, edges)
    assert nu == 2
    for order in itertools.permutations(edges):
        m = greedy_maximal_matching(stream_of(5, list(order)))
        assert m.size == 2
        assert 2 * m.size >= nu


def test_init_labels_quarter_epsilon():
    # l_max = 12 when eps = 1/4, so fresh labels are 13 in both directions.
    m = Matching(2)
    m.add(0, 1)
    labels = init_labels(m, 12)
    assert labels.get((0, 1)) == 13
    assert labels.get((1, 0)) == 13


def test_init_labels_unit_epsilon():
    m = Matching(2)
    m.add(0, 1)
    labels = init_labels(m, 3)
    assert labels.get((0, 1)) == labels.get((1, 0)) == 4


def test_init_labels_empty_matching():
    labels = init_labels(Matching(4), 6)
    assert labels.by_tail == {}


def test_label_set_requires_matched_arc():
    m = Matching(3)
    m.add(0, 1)
    labels = init_labels(m, 6)
    with pytest.raises(KeyError):
        labels.get((0, 2))
    with pytest.raises(KeyError):
        labels.set((1, 2), 1)


def test_label_reductions_counted():
    m = Matching(2)
    m.add(0, 1)
    labels = init_labels(m, 6)
    labels.set((0, 1), 3)
    labels.set((0, 1), 3)   # not a reduction
    labels.set((0, 1), 0)
    assert labels.reductions == 2
    assert labels.get((0, 1)) == 0


def test_augment_along_p4():
    m = Matching(4)
    m.add(1, 2)
    augment_along(m, [0, 1, 2, 3], checked=True,
                  edges={frozenset(e) for e in [(0, 1), (1, 2), (2, 3)]})
    assert set(m.pairs()) == {(0, 1), (2, 3)}


def test_augment_along_single_edge():
    m = Matching(2)
    augment_along(m, [0, 1], checked=True, edges={frozenset((0, 1))})
    assert m.pairs() == [(0, 1)]


def test_augment_disjoint_paths_grow_by_count():
    m = Matching(8)
    m.add(1, 2)
    m.add(5, 6)
    paths = [[0, 1, 2, 3], [4, 5, 6, 7]]
    before = m.size
    for path in paths:
        augment_along(m, path)
    assert m.size == before + len(paths)


@pytest.mark.parametrize("path", [
    [0, 1, 2],          # even vertex count required
    [0, 1, 2, 0],       # repeated vertex
    [1, 2, 3, 0],       # endpoint not free
])
def test_augment_checked_rejects_bad_paths(path):
    m = Matching(4)
    m.add(1, 2)
    with pytest.raises(InvariantViolationError, match="augmenting-path"):
        augment_along(m, path, checked=True)


def test_is_alternating_augmenting_rejects_wrong_parity():
    m = Matching(4)
    m.add(1, 2)
    assert is_alternating_augmenting([0, 1, 2, 3], m)
    # second edge must be matched
    assert not is_alternating_augmenting([0, 3, 1, 2], m)
    # with the edge set supplied, non-edges are rejected too
    p4 = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3)]}
    assert not is_alternating_augmenting([0, 2, 1, 3], m, p4)


def test_validate_matching_cases():
    edges = [(0, 1), (1, 2), (2, 3)]
    good = Matching(4)
    good.add(0, 1)
    assert validate_matching(good, edges)

    non_edge = Matching(4)
    non_edge.mate[0] = 2
    non_edge.mate[2] = 0
    assert not validate_matching(non_edge, edges)

    shared = Matching(4)
    shared.mate[0] = 1
    shared.mate[1] = 2
    shared.mate[2] = 1
    assert not validate_matching(shared, edges)


def test_removed_set_lifecycle():
    removed = RemovedSet(5)
    removed.add(2)
    removed.add(2)
    assert 2 in removed and 3 not in removed
    assert removed.count == 1
    removed.clear()
    assert 2 not in removed and removed.count == 0
