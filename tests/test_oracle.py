"""Oracles: exhaustive DP, rank-based size, and the checker's path
enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch import bench, oracle
from streammatch.invariants import enumerate_short_augmenting_paths
from streammatch.oracle import (_PRIME, _SEED, _TRIALS, AUTO_EXHAUSTIVE_LIMIT,
                                RANK_LIMIT, _elimination_order, _fold_slots,
                                _packed_rows, _rank_mod_p, _slot_bits,
                                exact_matching_exhaustive, matching_size_rank)
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
        exact_matching_exhaustive(23, [])


def test_rank_oracle_small_values():
    assert matching_size_rank(10, petersen_edges()) == 5
    assert matching_size_rank(5, cycle_edges(5)) == 2
    assert matching_size_rank(6, []) == 0
    assert matching_size_rank(4, path_edges(4)) == 2


def test_rank_oracle_is_deterministic_per_seed():
    edges = gnm_edges(20, 40, seed=5)
    assert matching_size_rank(20, edges) == matching_size_rank(20, edges)


def reference_matrix(n, edges, rng):
    """The random skew-symmetric matrix as a dense list of lists, drawn
    edge by edge like the oracle's; a repeated edge keeps its last draw."""
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        entry = rng.randrange(1, _PRIME)
        rows[u][v] = entry
        rows[v][u] = _PRIME - entry
    return rows


def reference_rank_mod_p(rows, n):
    """Reference elimination: one Python step per matrix entry, every
    entry reduced mod _PRIME as it is written."""
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
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        base = rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col]
            if factor:
                scale = factor * inv % _PRIME
                row = rows[r]
                for c in range(col, n):
                    row[c] = (row[c] - scale * base[c]) % _PRIME
        rank += 1
    return rank


def reference_order(n, edges):
    """Greedy minimum degree with symbolic fill, one vertex set per
    vertex: eliminating v joins its remaining neighbours into a clique;
    ties go to the smaller id."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))
    order = []
    while remaining:
        v = min(remaining, key=lambda x: (len(adj[x]), x))
        remaining.remove(v)
        order.append(v)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
        adj[v] = set()
    return order


def assert_packed_ranks_match_reference(n, edges):
    """The oracle relabels the vertices in elimination order.  Every
    trial's packed rows hold the reference matrix with rows and columns
    permuted alike, and the packed elimination of the permuted rows finds
    the rank of the unpermuted reference matrix; the oracle reports the
    best trial."""
    order = _elimination_order(n, edges)
    assert sorted(order) == list(range(n))
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    relabelled = [(label[u], label[v]) for u, v in edges]
    size = _slot_bits(n) // 8
    packed_rng = random.Random(_SEED)
    dense_rng = random.Random(_SEED)
    ranks = []
    for trial in range(_TRIALS):
        packed = _packed_rows(n, relabelled, packed_rng)
        dense = reference_matrix(n, edges, dense_rng)
        permuted = [[dense[u][v] for v in order] for u in order]
        assert packed == [int.from_bytes(b"".join(
            entry.to_bytes(size, "little") for entry in row), "little")
            for row in permuted], trial
        masks = [sum(1 << c for c, entry in enumerate(row) if entry)
                 for row in permuted]
        rank = reference_rank_mod_p(dense, n)
        assert _rank_mod_p(packed, masks, n) == rank, trial
        ranks.append(rank)
    assert matching_size_rank(n, edges) == max(ranks) // 2


def test_packed_rank_matches_reference_on_bench_corpus():
    for spec in bench.corpus():
        n, edges = build_edges(spec)
        if n > 12:
            assert_packed_ranks_match_reference(n, edges)


def spec_param(spec):
    return pytest.param(*build_edges(parse_graph_spec(spec)), id=spec)


@pytest.mark.parametrize("n, edges", [
    spec_param("gnm:13,20,seed=3"), spec_param("gnm:64,150,seed=2"),
    spec_param("gnm:151,400,seed=5"), spec_param("gnm:300,900,seed=1"),
    spec_param("bipartite:20,21,80,seed=1"),
    spec_param("bipartite:100,100,300,seed=2"),
    spec_param("bipartite:149,150,450,seed=3"),
    pytest.param(0, [], id="empty"),
    pytest.param(1, [], id="isolated-vertex"),
    pytest.param(5, [(0, 1), (2, 3)], id="with-isolated-vertex"),
    spec_param("complete:30"),
    pytest.param(4, [(0, 1), (2, 3), (1, 0), (0, 1)], id="repeated-edge"),
    pytest.param(3, [(0, 1), (1, 1), (1, 2)], id="self-loop"),
    pytest.param(9, [(4, v) for v in range(9) if v != 4], id="star"),
    pytest.param(12, [(1, 3), (3, 5), (5, 1), (7, 8), (8, 10), (10, 11)],
                 id="components-and-isolated-vertices"),
    pytest.param(20, [(v, v - 1) for v in range(19, 0, -1)],
                 id="path-labelled-in-reverse"),
])
def test_packed_rank_matches_reference(n, edges):
    assert_packed_ranks_match_reference(n, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.data())
def test_packed_rank_matches_reference_on_random_graphs(n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    seed = data.draw(st.integers(0, 10**6))
    label = data.draw(st.permutations(range(n)))
    edges = [(label[u], label[v]) for u, v in gnm_edges(n, m, seed)] if n > 1 else []
    assert_packed_ranks_match_reference(n, edges)


def test_elimination_order_is_a_deterministic_permutation():
    n, edges = build_edges(parse_graph_spec("gnm:300,900,seed=1"))
    order = _elimination_order(n, edges)
    assert sorted(order) == list(range(n))
    assert _elimination_order(n, list(edges)) == order
    assert order == reference_order(n, edges)


def test_elimination_order_takes_leaves_first_and_ends_in_id_order():
    # Leaves of degree 1 go in id order; once 0, 4 and 5 are a path, the
    # leaf 4 goes; the last pair is a clique and follows in id order.
    assert _elimination_order(6, [(0, v) for v in range(1, 6)]) == [1, 2, 3, 4, 0, 5]
    assert _elimination_order(4, []) == [0, 1, 2, 3]
    assert _elimination_order(5, complete_edges(5)) == [0, 1, 2, 3, 4]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.data())
def test_elimination_order_matches_reference(n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    edges = gnm_edges(n, m, data.draw(st.integers(0, 10**6))) if n > 1 else []
    assert _elimination_order(n, edges) == reference_order(n, edges)


def test_matching_size_cuts_over_at_the_named_limits(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "exact_matching_exhaustive",
                        lambda n, edges: calls.append(("dp", n)) or 0)
    monkeypatch.setattr(oracle, "matching_size_rank",
                        lambda n, edges: calls.append(("rank", n)) or 0)
    sizes = [AUTO_EXHAUSTIVE_LIMIT, AUTO_EXHAUSTIVE_LIMIT + 1, RANK_LIMIT]
    assert [oracle.matching_size(n, []) for n in sizes] == [0, 0, 0]
    assert oracle.matching_size(RANK_LIMIT + 1, []) is None
    assert calls == [("dp", AUTO_EXHAUSTIVE_LIMIT), ("rank", AUTO_EXHAUSTIVE_LIMIT + 1),
                     ("rank", RANK_LIMIT)]


@pytest.mark.parametrize("n", [1, 63, RANK_LIMIT])
def test_fold_slots_reduces_every_slot_into_zero_to_prime(n):
    width = _slot_bits(n)
    rng = random.Random(n)
    slots = [0, 1, _PRIME - 1, _PRIME, _PRIME + 1, 1 << 61, (1 << 62) - 1,
             (1 << 61) + (1 << 15) - 1, (1 << 76) - 1, n * _PRIME ** 2 - 1,
             (1 << width) - 1] + [rng.getrandbits(width) for _ in range(20)]
    ones = sum(1 << i * width for i in range(len(slots)))
    packed = sum(x << i * width for i, x in enumerate(slots))
    folded = _fold_slots(packed, ones * _PRIME, ones * ((1 << (width - 61)) - 1))
    out = [folded >> i * width & ((1 << width) - 1) for i in range(len(slots))]
    assert folded >> len(slots) * width == 0
    assert all(y <= _PRIME and y % _PRIME == x % _PRIME for x, y in zip(slots, out))


def test_packed_slots_cannot_carry_at_rank_limit():
    # A slot starts below p and gains at most n - 1 products below p**2.
    assert RANK_LIMIT * (_PRIME - 1) ** 2 + _PRIME < 1 << _slot_bits(RANK_LIMIT)


@pytest.mark.parametrize("spec, nu", [
    ("gnm:300,900,seed=1", 149),
    ("gnm:400,1200,seed=1", 199),
    ("gnm:1000,3000,seed=1", 499),
])
def test_rank_oracle_matches_networkx(spec, nu):
    nx = pytest.importorskip("networkx")
    n, edges = build_edges(parse_graph_spec(spec))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    assert len(nx.max_weight_matching(graph, maxcardinality=True)) == nu
    assert matching_size_rank(n, edges) == nu


def test_rank_oracle_matches_scipy_on_bipartite_graph():
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
    assert matching_size_rank(n, edges) == nu


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
