"""Oracles: exhaustive DP, rank-based size, path enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch.oracle import (enumerate_short_augmenting_paths,
                                exact_matching_exhaustive, matching_size_rank)
from streammatch.stream import (GraphSpec, complete_edges, cycle_edges,
                                gnm_edges, open_stream, path_edges,
                                petersen_edges)


def brute_force_matching(n, edges):
    """Third route: try all subsets of edges (tiny n only)."""
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            seen = set()
            ok = True
            for u, v in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = max(best, r)
                break
    return best


def naive_enumerate(n, edges, mate, max_matched, removed=()):
    """Second enumerator: generate all simple paths by plain DFS, then
    filter for alternation, free endpoints, and the matched-edge budget."""
    banned = set(removed)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = set()

    def walk(path):
        last = path[-1]
        if len(path) >= 2:
            matched_edges = sum(1 for i in range(len(path) - 1)
                                if mate[path[i]] == path[i + 1])
            alternating = all(
                (mate[path[i]] == path[i + 1]) == (i % 2 == 1)
                for i in range(len(path) - 1))
            if (alternating and mate[path[0]] is None and mate[last] is None
                    and len(path) % 2 == 0 and matched_edges <= max_matched
                    and path[0] < path[-1]):
                out.add(tuple(path))
        for nxt in adj[last]:
            if nxt not in path and nxt not in banned:
                walk(path + [nxt])

    for start in range(n):
        if start not in banned:
            walk([start])
    return sorted(out)


def test_exhaustive_small_values():
    assert exact_matching_exhaustive(4, path_edges(4)) == 2
    assert exact_matching_exhaustive(5, cycle_edges(5)) == 2
    assert exact_matching_exhaustive(4, complete_edges(4)) == 2
    assert exact_matching_exhaustive(3, []) == 0


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError):
        exact_matching_exhaustive(23, [])


def test_rank_oracle_small_values():
    assert matching_size_rank(10, petersen_edges()) == 5
    assert matching_size_rank(5, cycle_edges(5)) == 2
    assert matching_size_rank(6, []) == 0
    assert matching_size_rank(4, path_edges(4)) == 2


def test_rank_oracle_is_deterministic_per_seed():
    edges = gnm_edges(20, 40, seed=5)
    assert matching_size_rank(20, edges, seed=9) == matching_size_rank(20, edges, seed=9)


def test_oracles_agree_on_generator_corpus():
    cases = []
    for n in range(2, 13):
        cases.append((n, path_edges(n)))
        if n >= 3:
            cases.append((n, cycle_edges(n)))
        if n <= 8:
            cases.append((n, complete_edges(n)))
    for seed in range(50):
        n = 4 + seed % 9
        m = min(n * (n - 1) // 2, 2 * n // 2 + seed % 7)
        cases.append((n, gnm_edges(n, m, seed)))
    for n, edges in cases:
        assert exact_matching_exhaustive(n, edges) == matching_size_rank(n, edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.data())
def test_exhaustive_matches_brute_force(n, data):
    m = data.draw(st.integers(0, min(10, n * (n - 1) // 2)))
    seed = data.draw(st.integers(0, 10**6))
    edges = gnm_edges(n, m, seed)
    assert exact_matching_exhaustive(n, edges) == brute_force_matching(n, edges)


def mate_of(n, pairs):
    mate = [None] * n
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    return mate


def test_enumerate_p4_single_path():
    mate = mate_of(4, [(1, 2)])
    paths = enumerate_short_augmenting_paths(4, path_edges(4), mate, 1)
    assert paths == [(0, 1, 2, 3)]


def test_enumerate_p4_maximum_matching_is_empty():
    mate = mate_of(4, [(0, 1), (2, 3)])
    assert enumerate_short_augmenting_paths(4, path_edges(4), mate, 6) == []


def test_enumerate_c5_empty_for_every_budget():
    mate = mate_of(5, [(1, 2), (3, 4)])
    for budget in range(0, 8):
        assert enumerate_short_augmenting_paths(5, cycle_edges(5), mate, budget) == []


def test_enumerate_respects_removed_vertices():
    mate = mate_of(4, [(1, 2)])
    assert enumerate_short_augmenting_paths(4, path_edges(4), mate, 3,
                                            removed=[3]) == []


def test_enumerate_respects_budget():
    # 0-1=2-3=4-5: one augmenting path with two matched edges.
    edges = path_edges(6)
    mate = mate_of(6, [(1, 2), (3, 4)])
    assert enumerate_short_augmenting_paths(6, edges, mate, 1) == []
    assert enumerate_short_augmenting_paths(6, edges, mate, 2) == [(0, 1, 2, 3, 4, 5)]


def test_enumeration_matches_naive_enumerator():
    for seed in range(60):
        n = 4 + seed % 5            # up to 8 vertices
        m = min(n * (n - 1) // 2, n + seed % 5)
        edges = gnm_edges(n, m, seed)
        # greedy matching to get a plausible mate map
        mate = [None] * n
        for u, v in edges:
            if mate[u] is None and mate[v] is None:
                mate[u] = v
                mate[v] = u
        for budget in (0, 1, 2, 4):
            fast = enumerate_short_augmenting_paths(n, edges, mate, budget)
            slow = naive_enumerate(n, edges, mate, budget)
            assert fast == slow, (n, m, seed, budget)


def test_enumeration_output_is_sound():
    edges = gnm_edges(10, 16, 3)
    mate = mate_of(10, [(0, 1), (2, 3)])
    edge_set = {frozenset(e) for e in edges}
    for path in enumerate_short_augmenting_paths(10, edges, mate, 5):
        assert mate[path[0]] is None and mate[path[-1]] is None
        assert len(set(path)) == len(path)
        for i in range(len(path) - 1):
            assert frozenset((path[i], path[i + 1])) in edge_set
            assert (mate[path[i]] == path[i + 1]) == (i % 2 == 1)


def test_petersen_from_stream_snapshot():
    stream = open_stream(GraphSpec("petersen"))
    assert matching_size_rank(10, stream.snapshot_edges()) == 5
    assert exact_matching_exhaustive(10, stream.snapshot_edges()) == 5
