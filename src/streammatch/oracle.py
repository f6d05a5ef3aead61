"""Independent ground-truth machinery for desk-scale verification.

Nothing here shares code with the streaming engine: matching sizes come
from subset dynamic programming or from the rank of a randomized
skew-symmetric matrix, and augmenting paths from direct enumeration.
These are the second route of every dual-route check in the test suite.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

EXHAUSTIVE_LIMIT = 22
RANK_LIMIT = 2000
ENUMERATION_LIMIT = 16

# Fixed 61-bit Mersenne prime field for the rank oracle.  A single trial
# under-reports with probability at most n / _PRIME; trials are independent.
_PRIME = (1 << 61) - 1
_DEFAULT_TRIALS = 3
_DEFAULT_SEED = 0x5EED


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def exact_matching_exhaustive(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size by dynamic programming over vertex subsets."""
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive oracle limited to n <= {EXHAUSTIVE_LIMIT}, got {n}")
    adj_mask = [0] * n
    for u, v in edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        best = solve(rest)  # leave `low` unmatched
        candidates = adj_mask[low] & rest
        while candidates:
            bit = candidates & -candidates
            best = max(best, 1 + solve(rest & ~bit))
            candidates &= candidates - 1
        memo[mask] = best
        return best

    return solve((1 << n) - 1)


def _rank_mod_p(rows: list[list[int]], n: int) -> int:
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


def matching_size_rank(n: int, edges: Sequence[tuple[int, int]],
                       trials: int = _DEFAULT_TRIALS,
                       seed: int = _DEFAULT_SEED) -> int:
    """Maximum matching size as half the rank of a random skew-symmetric
    matrix over a large prime field; one-sided Monte Carlo (never above
    the true value, below it with probability <= (n/p)^trials)."""
    if n > RANK_LIMIT:
        raise ValueError(f"rank oracle limited to n <= {RANK_LIMIT}, got {n}")
    if n == 0 or not edges:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        rows = [[0] * n for _ in range(n)]
        for u, v in edges:
            entry = rng.randrange(1, _PRIME)
            rows[u][v] = entry
            rows[v][u] = _PRIME - entry
        best = max(best, _rank_mod_p(rows, n) // 2)
    return best


def matching_size(n: int, edges: Sequence[tuple[int, int]]) -> Optional[int]:
    """Maximum matching size from whichever oracle applies: subset DP up
    to 14 vertices, the rank oracle up to ``RANK_LIMIT``, else None."""
    if n <= 14:
        return exact_matching_exhaustive(n, edges)
    if n <= RANK_LIMIT:
        return matching_size_rank(n, edges)
    return None


def enumerate_short_augmenting_paths(
        n: int, edges: Sequence[tuple[int, int]],
        mate: Sequence[Optional[int]], max_matched: int,
        removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """All simple augmenting paths with at most ``max_matched`` matched
    edges avoiding ``removed`` vertices, one canonical orientation each
    (smaller endpoint first), sorted."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"path enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")
    banned = set(removed)
    adj = adjacency(n, edges)
    found: set[tuple[int, ...]] = set()
    path: list[int] = []
    on_path = [False] * n

    def explore(v: int, matched_used: int) -> None:
        # v was reached by an unmatched edge (or is the start).
        path.append(v)
        on_path[v] = True
        if mate[v] is None:
            if len(path) > 1 and path[0] < path[-1]:
                found.add(tuple(path))
        else:
            w = mate[v]
            if matched_used < max_matched and not on_path[w] and w not in banned:
                path.append(w)
                on_path[w] = True
                for x in adj[w]:
                    if not on_path[x] and x not in banned and mate[w] != x:
                        explore(x, matched_used + 1)
                on_path[w] = False
                path.pop()
        on_path[v] = False
        path.pop()

    for alpha in range(n):
        if mate[alpha] is None and alpha not in banned:
            path.clear()
            path.append(alpha)
            on_path[alpha] = True
            for x in adj[alpha]:
                if not on_path[x] and x not in banned:
                    explore(x, 0)
            on_path[alpha] = False
            path.clear()
    return sorted(found)

