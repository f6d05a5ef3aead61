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


def _slot_bits(n: int) -> int:
    """Bits per slot of a packed row, a whole number of bytes: a slot
    starts below _PRIME and gains at most n - 1 products below _PRIME**2,
    so it stays below n * _PRIME**2 and never carries into the next."""
    return 8 * -(-(2 * _PRIME.bit_length() + n.bit_length() + 1) // 8)


def _packed_rows(n: int, edges: Sequence[tuple[int, int]],
                 rng: random.Random) -> list[int]:
    """One random skew-symmetric matrix, row r packed into one int whose
    slot c (bits c * w to (c + 1) * w, w = ``_slot_bits(n)``) holds entry
    (r, c).  Entries are drawn edge by edge; a repeated edge keeps its
    last draw."""
    entries: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in edges:
        entry = rng.randrange(1, _PRIME)
        entries[u][v] = entry
        entries[v][u] = _PRIME - entry
    size = _slot_bits(n) // 8
    rows = []
    for row in entries:
        buf = bytearray(n * size)
        for col, entry in row.items():
            buf[col * size:col * size + 8] = entry.to_bytes(8, "little")
        rows.append(int.from_bytes(buf, "little"))
    return rows


def _rank_mod_p(rows: list[int], n: int) -> int:
    """Rank mod _PRIME of the n x n matrix packed in ``rows`` (see
    ``_packed_rows``), by Gaussian elimination that updates a whole row
    with one big-int operation.  Every remaining row is shifted right by
    one slot per column, so slot 0 is always the current column; slots
    are reduced mod _PRIME only where they are read."""
    width = _slot_bits(n)
    size = width // 8
    mask = (1 << width) - 1
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if (rows[r] & mask) % _PRIME:
                pivot = r
                break
        if pivot is None:
            for r in range(rank, n):
                rows[r] >>= width
            continue
        base = rows[pivot]
        rows[pivot] = rows[rank]
        rows[rank] = 0
        rank += 1
        inv = pow((base & mask) % _PRIME, _PRIME - 2, _PRIME)
        # Slot c of neg holds minus the pivot row's entry in column
        # col + 1 + c, mod _PRIME, so adding (factor / pivot entry) * neg to
        # a row shifted past column col subtracts the multiple of the pivot
        # row that clears that column.
        rest = (base >> width).to_bytes((n - col - 1) * size, "little")
        neg = bytearray(len(rest))
        for i in range(0, len(rest), size):
            entry = int.from_bytes(rest[i:i + size], "little") % _PRIME
            if entry:
                neg[i:i + 8] = (_PRIME - entry).to_bytes(8, "little")
        neg = int.from_bytes(neg, "little")
        for r in range(rank, n):
            row = rows[r]
            factor = row & mask
            if factor:
                rows[r] = (row >> width) + factor * inv % _PRIME * neg
            else:
                rows[r] = row >> width
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
    return max(_rank_mod_p(_packed_rows(n, edges, rng), n) // 2
               for _ in range(trials))


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

