"""Matching state: greedy bootstrap, augmentation, validation; arc labels."""

import itertools

import pytest

from helpers import edge_keys, exact_matching_exhaustive, matched
from streammatch.matching import (Matching, augment_along, greedy_maximal_matching,
                                  is_alternating_augmenting, validate_matching)
from streammatch.stream import EdgeStream, GraphSpec, complete_edges, open_stream
from streammatch.structures import Forest

# Every pair of 0..3 is an edge, so a path on them fails the augmenting
# path check only for the reason a test names.
K4 = edge_keys(4, complete_edges(4))


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
    stream = open_stream(GraphSpec("gnm", (20, 50), 5))
    m = greedy_maximal_matching(stream)
    for u, v in stream.snapshot_edges():
        assert not (m.mate[u] is None and m.mate[v] is None)


def test_greedy_cycle5_any_order_gives_two():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    nu = exact_matching_exhaustive(5, edges)
    assert nu == 2
    for order in itertools.permutations(edges):
        m = greedy_maximal_matching(stream_of(5, list(order)))
        assert m.size == 2
        assert 2 * m.size >= nu


def test_init_labels_quarter_epsilon():
    # l_max = 12 when eps = 1/4, so fresh labels are 13 in both directions;
    # the free vertex 2 holds 13 too.
    m = matched(3, [(0, 1)])
    assert Forest(3, m.mate, 12).labels == [13, 13, 13]


def test_init_labels_unit_epsilon():
    m = matched(3, [(0, 1)])
    assert Forest(3, m.mate, 3).labels == [4, 4, 4]


def test_init_labels_empty_matching():
    assert Forest(4, Matching(4).mate, 6).labels == [7] * 4


def test_label_set_requires_matched_arc():
    m = matched(3, [(0, 1)])
    forest = Forest(3, m.mate, 6)
    with pytest.raises(KeyError):
        forest.relabel(1, 2, 1)
    with pytest.raises(KeyError):
        forest.relabel(2, 0, 1)   # 2 is free
    assert forest.labels == [7, 7, 7]


def test_label_reductions_counted():
    m = matched(3, [(0, 1)])
    forest = Forest(3, m.mate, 6)
    forest.relabel(0, 1, 3)
    forest.relabel(0, 1, 3)   # not a reduction
    forest.relabel(0, 1, 0)
    assert forest.stats["label_reductions"] == 2
    assert list(forest.stats)[-1] == "label_reductions"
    assert forest.labels == [0, 7, 7]


def test_augment_along_p4():
    m = matched(4, [(1, 2)])
    path = [0, 1, 2, 3]
    assert is_alternating_augmenting(path, m, edge_keys(4, [(0, 1), (1, 2), (2, 3)]))
    augment_along(m, path)
    assert set(m.pairs()) == {(0, 1), (2, 3)}


def test_augment_along_single_edge():
    m = Matching(2)
    assert is_alternating_augmenting([0, 1], m, edge_keys(2, [(0, 1)]))
    augment_along(m, [0, 1])
    assert m.pairs() == [(0, 1)]


def test_augment_disjoint_paths_grow_by_count():
    m = matched(8, [(1, 2), (5, 6)])
    paths = [[0, 1, 2, 3], [4, 5, 6, 7]]
    before = m.size
    for path in paths:
        augment_along(m, path)
    assert m.size == before + len(paths)


@pytest.mark.parametrize("path", [
    [0, 1, 2],          # even vertex count required
    [0, 1, 2, 0],       # repeated vertex
    [1, 2, 3, 0],       # endpoint not free
    [0, 7, 1, 3],       # 7 is no vertex, though {0, 7} and {1, 7} key like {1, 3} and {2, 3}
])
def test_augment_checked_rejects_bad_paths(path):
    m = matched(4, [(1, 2)])
    assert not is_alternating_augmenting(path, m, K4)


def test_is_alternating_augmenting_rejects_wrong_parity():
    m = matched(4, [(1, 2)])
    assert is_alternating_augmenting([0, 1, 2, 3], m, K4)
    # ends at a matched vertex
    assert not is_alternating_augmenting([0, 3, 1, 2], m, K4)
    # the second edge, at odd step 1, must be matched
    k6 = edge_keys(6, complete_edges(6))
    assert not is_alternating_augmenting([0, 1, 3, 4, 2, 5], matched(6, [(1, 2), (3, 4)]), k6)
    # the third edge, at even step 2, must be unmatched; with a symmetric
    # mate map a vertex would repeat first, so the map here is not one
    m.mate[2] = 3
    assert not is_alternating_augmenting([0, 1, 2, 3], m, K4)
    # non-edges are rejected too
    p4 = edge_keys(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_alternating_augmenting([0, 2, 1, 3], m, p4)


def test_validate_matching_cases():
    edges = [(0, 1), (1, 2), (2, 3)]
    good = matched(4, [(0, 1)])
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

