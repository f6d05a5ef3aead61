"""Oracles: the certified maximum matching size, its witness check, the
references it is checked against (subset DP, Tutte matrix rank, networkx,
scipy), and the checker's path enumeration."""

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXHAUSTIVE_LIMIT, exact_matching_exhaustive
from streammatch import oracle
from streammatch.invariants import COVERAGE_LIMIT, enumerate_short_augmenting_paths
from streammatch.oracle import _certify, _search, matching_size
from streammatch.stream import (GraphSpec, build_edges, complete_edges,
                                cycle_edges, gnm_edges, open_stream,
                                parse_graph_spec, path_edges, petersen_edges)


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
        exact_matching_exhaustive(EXHAUSTIVE_LIMIT + 1, [])


def test_rank_oracle_small_values():
    # perfbench calls the oracle by its old name, matching_size_rank.
    assert oracle.matching_size_rank is matching_size


def test_matching_size_small_values():
    assert matching_size(10, petersen_edges()) == 5
    assert matching_size(5, cycle_edges(5)) == 2
    assert matching_size(6, []) == 0
    assert matching_size(0, []) == 0
    assert matching_size(4, path_edges(4)) == 2
    assert matching_size(4, [(0, 1), (2, 3), (1, 0), (0, 1)]) == 2
    assert matching_size(3, [(0, 1), (1, 1), (1, 2)]) == 1


def certified(n, edges):
    """Search from the empty matching and return the matching, the
    witness and the size the check certifies."""
    mate = [None] * n
    witness = _search(n, edges, mate)
    return mate, witness, _certify(n, edges, mate, witness)


# Three triangles hang off vertex 0, a Tutte barrier: U = {0} leaves three
# odd components, so nu = (10 + 1 - 3) / 2 = 4.
TRIANGLES = [(0, 1), (0, 4), (0, 7), (1, 2), (2, 3), (1, 3),
             (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9)]


def test_witness_check_rejects_a_matching_short_of_its_witness():
    mate, witness, size = certified(10, TRIANGLES)
    assert (size, witness) == (4, [0])
    u = next(v for v in range(10) if mate[v] is not None)
    mate[mate[u]] = mate[u] = None
    with pytest.raises(ValueError, match="does not certify"):
        _certify(10, TRIANGLES, mate, witness)


def test_witness_check_rejects_a_witness_short_of_one_vertex():
    mate, witness, size = certified(10, TRIANGLES)
    assert witness == [0]
    with pytest.raises(ValueError, match="does not certify"):
        _certify(10, TRIANGLES, mate, [])
    # On a star the centre is the witness; without it the bound is 2.
    star = [(0, v) for v in range(1, 5)]
    mate, witness, size = certified(5, star)
    assert (size, witness) == (1, [0])
    with pytest.raises(ValueError, match="does not certify"):
        _certify(5, star, mate, [])
    # A witness vertex outside 0..n-1 is rejected before it is counted.
    for v in (5, -1):
        with pytest.raises(ValueError, match=f"witness vertex {v} out of range for n=5"):
            _certify(5, star, mate, [v])


def test_witness_check_rejects_a_mate_pair_that_is_not_an_edge():
    # 0-1-2-3-4-5 is matched perfectly; rematching the end pairs across
    # keeps the size and the (empty) witness, so only the edge check fails.
    edges = path_edges(6)
    mate, witness, size = certified(6, edges)
    assert (size, witness) == (3, [])
    mate[0], mate[4], mate[1], mate[5] = 4, 0, 5, 1
    with pytest.raises(ValueError, match="not an edge"):
        _certify(6, edges, mate, witness)


def test_witness_check_rejects_an_asymmetric_mate_map():
    edges = path_edges(6)
    mate, witness, _ = certified(6, edges)
    mate[0] = 2
    with pytest.raises(ValueError, match="not symmetric at vertex 0"):
        _certify(6, edges, mate, witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.data())
def test_matching_size_matches_the_dp(n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    edges = gnm_edges(n, m, data.draw(st.integers(0, 10**6)))
    assert matching_size(n, edges) == exact_matching_exhaustive(n, edges)


def test_every_witness_passes_the_check_from_an_empty_start():
    rng = random.Random(24)
    for _ in range(500):
        n = rng.randint(1, 40)
        pairs = n * (n - 1) // 2
        m = rng.randint(0, pairs if rng.random() < 0.3 else min(pairs, 2 * n))
        edges = gnm_edges(n, m, rng.randrange(10**6))
        _, _, size = certified(n, edges)
        assert size == matching_size(n, edges)


# The dense Tutte matrix, rank by plain elimination over a 61-bit prime
# field: a one-sided Monte Carlo reference (never above nu, below it with
# probability at most n / PRIME per trial), best of TRIALS seeded draws.
PRIME = (1 << 61) - 1
TRIALS = 3


def reference_matrix(n, edges, rng):
    """A random skew-symmetric matrix as a dense list of lists, drawn edge
    by edge; a repeated edge keeps its last draw."""
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        entry = rng.randrange(1, PRIME)
        rows[u][v] = entry
        rows[v][u] = PRIME - entry
    return rows


def reference_rank_mod_p(rows, n):
    """Reference elimination: one Python step per matrix entry, every
    entry reduced mod PRIME as it is written."""
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], PRIME - 2, PRIME)
        base = rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col]
            if factor:
                scale = factor * inv % PRIME
                row = rows[r]
                for c in range(col, n):
                    row[c] = (row[c] - scale * base[c]) % PRIME
        rank += 1
    return rank


@pytest.mark.parametrize("density", ["sparse", "light", "half", "complete"])
@pytest.mark.parametrize("n", [15, 24, 40, 64])
def test_tutte_matrix_reference_matches_the_oracle(n, density):
    m = {"sparse": n, "light": 3 * n // 2, "half": n * (n - 1) // 4,
         "complete": n * (n - 1) // 2}[density]
    edges = gnm_edges(n, m, seed=n + m)
    rng = random.Random(0x5EED)
    nu = max(reference_rank_mod_p(reference_matrix(n, edges, rng), n)
             for _ in range(TRIALS)) // 2
    assert matching_size(n, edges) == nu


@pytest.mark.parametrize("spec, nu", [
    ("gnm:300,900,seed=1", 149),
    ("gnm:400,1200,seed=1", 199),
    ("gnm:1000,3000,seed=1", 499),
])
def test_oracle_matches_networkx(spec, nu):
    nx = pytest.importorskip("networkx")
    n, edges = build_edges(parse_graph_spec(spec))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    assert len(nx.max_weight_matching(graph, maxcardinality=True)) == nu
    assert matching_size(n, edges) == nu


def test_oracle_matches_scipy_on_bipartite_graph():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    a, b = 200, 200
    n, edges = build_edges(parse_graph_spec(f"bipartite:{a},{b},500,seed=1"))
    biadjacency = sparse.csr_matrix(
        ([1] * len(edges), ([u for u, _ in edges], [v - a for _, v in edges])),
        shape=(a, b))
    matched = csgraph.maximum_bipartite_matching(biadjacency, perm_type="column")
    nu = int((matched >= 0).sum())
    assert 0 < nu < a
    assert matching_size(n, edges) == nu


def oracle_lines_run(function, *args):
    """The line numbers of ``oracle.py`` that ``function(*args)`` runs."""
    seen = set()

    def local(frame, event, arg):
        seen.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == oracle.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return seen


def test_oracles_agree_on_generator_corpus():
    # gnm:13,21,seed=46 in stored edge order is the smallest case found to
    # lift a path backward across a blossom's bridge.
    backward_bridge = 1 + next(
        i for i, text in enumerate(inspect.getsource(oracle).splitlines())
        if "stack += [v, (x, m, False), (y, stop, True)]" in text)
    n, edges = build_edges(parse_graph_spec("gnm:13,21,seed=46"))
    assert backward_bridge in oracle_lines_run(matching_size, n, edges)
    cases = [(n, edges)]
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
        assert exact_matching_exhaustive(n, edges) == matching_size(n, edges)


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
    # Above COVERAGE_LIMIT vertices it refuses whatever the budget.
    n = COVERAGE_LIMIT + 1
    with pytest.raises(ValueError, match=f"limited to n <= {COVERAGE_LIMIT}, got {n}"):
        enumerate_short_augmenting_paths(n, path_edges(n), [None] * n, 0)


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
    assert matching_size(10, stream.snapshot_edges()) == 5
    assert exact_matching_exhaustive(10, stream.snapshot_edges()) == 5
