"""Independent ground-truth machinery for desk-scale verification.

Nothing here shares code with the streaming engine: matching sizes come
from subset dynamic programming or from the rank of a randomized
skew-symmetric matrix.  These are the second route of every dual-route
check in the test suite.

The rank oracle relabels the vertices in a fill-reducing order (greedy
minimum degree) and eliminates the matrix mod a 61-bit prime, touching at
each column only the rows that may be nonzero there.  Relabelling
permutes rows and columns alike, so every trial's rank is that of the
matrix in the given labels.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, Optional, Sequence

EXHAUSTIVE_LIMIT = 22
RANK_LIMIT = 2000
# ``matching_size`` takes the exact subset DP up to this many vertices and
# the rank oracle above it.
AUTO_EXHAUSTIVE_LIMIT = 14

# Fixed 61-bit Mersenne prime field for the rank oracle.  A single trial
# under-reports with probability at most n / _PRIME; trials are independent.
_PRIME = (1 << 61) - 1
_TRIALS = 3
_SEED = 0x5EED
# Eliminated columns a packed row may keep in its low slots before the
# rank oracle shifts them out.
_LAG = 8


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


def _packed_rows(n: int, edges: Iterable[tuple[int, int]],
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
    width = _slot_bits(n)
    rows = []
    for row in entries:
        packed = 0
        for col, entry in row.items():
            packed |= entry << col * width
        rows.append(packed)
    return rows


def _elimination_order(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Vertices in greedy minimum degree order with symbolic fill:
    eliminating v joins its remaining neighbours into a clique, and ties
    go to the smaller vertex id.  Adjacency sets are bitmask ints, so each
    neighbour's update is one big-int operation.  Once the remaining
    vertices form a clique, every one of them has the same degree at every
    step, so they follow in id order."""
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    degree = [mask.bit_count() for mask in adj]
    total = sum(degree)  # twice the edges among the remaining vertices
    # The heap holds d * n + v for vertex v of degree d.  Every change of
    # degree pushes a new entry, so each remaining vertex has one with its
    # current degree; the stale ones are skipped when they come up.
    heap = [d * n + v for v, d in enumerate(degree)]
    heapq.heapify(heap)
    order = []
    while total < (n - len(order)) * (n - len(order) - 1):
        d, v = divmod(heapq.heappop(heap), n)
        if d != degree[v]:
            continue
        degree[v] = -1
        order.append(v)
        total -= 2 * d
        clique = adj[v]
        adj[v] = 0
        drop = 1 << v
        for u in _bits(clique):
            mask = (adj[u] | clique) ^ (drop | 1 << u)
            adj[u] = mask
            d = mask.bit_count()
            total += d - degree[u] + 1
            if d != degree[u]:
                degree[u] = d
                heapq.heappush(heap, d * n + u)
    order.extend(v for v in range(n) if degree[v] >= 0)
    return order


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    text = bin(mask)[:1:-1]
    found = []
    i = text.find("1")
    while i >= 0:
        found.append(i)
        i = text.find("1", i + 1)
    return found


def _fold_slots(packed: int, primes: int, high: int) -> int:
    """``packed`` with every slot reduced mod _PRIME into [0, _PRIME], all
    slots at once.  ``primes`` holds _PRIME in every slot (its low 61
    bits) and ``high`` the other bits of a slot, shifted down by 61.  Each
    fold maps a slot x to (x mod 2**61) + (x >> 61), which keeps x mod
    _PRIME as 2**61 = 1: three take any slot of up to 136 bits below
    2**61 + 2**75, then below 2**61 + 2**15, then to at most _PRIME."""
    for _ in range(3):
        packed = (packed & primes) + (packed >> 61 & high)
    return packed


def _rank_mod_p(rows: list[int], masks: list[int], n: int) -> int:
    """Rank mod _PRIME of the n x n matrix packed in ``rows`` (see
    ``_packed_rows``), by Gaussian elimination that updates a whole row
    with one big-int operation.  ``masks[r]`` is a bitmask int with a bit
    for every column in which row r may be nonzero mod _PRIME, so at each
    column only the rows whose mask has that column are touched; a row
    that is updated gains the pivot row's mask.  The pivot is the
    sparsest touched row whose entry is nonzero mod _PRIME.

    Slot k of row r holds column ``start[r] + k``.  Columns already
    eliminated are shifted out of a row only once _LAG of them have
    gathered, so most updates add to a row without shifting it.  Slots are
    reduced mod _PRIME only where they are read: a pivot row all at once,
    other rows one slot at a time."""
    width = _slot_bits(n)
    below = [(1 << (k + 1) * width) - 1 for k in range(_LAG)]
    ones = int.from_bytes(b"".join(
        (1).to_bytes(width // 8, "little") for _ in range(n)), "little")
    primes = ones * _PRIME
    high = ones * ((1 << (width - 61)) - 1)
    start = [0] * n
    # Each row waits at the lowest column of its mask, the next one at
    # which it can be nonzero.
    waiting: list[list[int]] = [[] for _ in range(n)]
    for r, mask in enumerate(masks):
        if mask:
            waiting[(mask & -mask).bit_length() - 1].append(r)
    rank = 0
    for col in range(n):
        touched = waiting[col]
        if not touched:
            continue
        bit = 1 << col
        live = []
        for r in touched:
            row = rows[r]
            k = col - start[r]
            if k >= _LAG:
                row >>= k * width
                rows[r] = row
                start[r] = col
                k = 0
            factor = ((row & below[k]) >> k * width) % _PRIME
            if factor:
                live.append((masks[r].bit_count(), r, factor, k))
                continue
            mask = masks[r] ^ bit
            masks[r] = mask
            if mask:
                waiting[(mask & -mask).bit_length() - 1].append(r)
            else:
                rows[r] = 0
        if not live:
            continue
        rank += 1
        _, pivot, factor, k = min(live)
        inv = pow(factor, -1, _PRIME)
        pivot_mask = masks[pivot]
        # Slot c of pos holds the pivot row's entry in column col + 1 + c
        # and slot c of neg minus that entry, both mod _PRIME in [0, _PRIME].
        pos = _fold_slots(rows[pivot] >> (k + 1) * width, primes, high)
        rows[pivot] = 0
        neg = (primes >> (n - -(-pos.bit_length() // width)) * width) - pos
        # Adding g * neg to a row whose entry in column col is
        # factor = g * (pivot entry) clears that column; so does adding
        # (_PRIME - g) * pos.  Whichever multiplier is below 2**60 is two
        # 30-bit digits instead of three, and keeps every product below
        # _PRIME**2.
        aligned: dict[int, int] = {}
        for _, r, factor, k in live:
            if r == pivot:
                continue
            g = factor * inv % _PRIME
            key = k
            if g >> 60:
                g = _PRIME - g
                key = ~k
            add = aligned.get(key)
            if add is None:
                add = aligned[key] = (neg if key == k else pos) << (k + 1) * width
            rows[r] += g * add
            mask = (masks[r] | pivot_mask) ^ bit
            masks[r] = mask
            if mask:
                waiting[(mask & -mask).bit_length() - 1].append(r)
            else:
                rows[r] = 0
    return rank


def matching_size_rank(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size as half the rank of a random skew-symmetric
    matrix over a large prime field, the best of ``_TRIALS`` draws from a
    fixed seed; one-sided Monte Carlo (never above the true value, below
    it with probability <= (n/p)^_TRIALS).  The vertices are relabelled in
    ``_elimination_order`` first, which permutes the matrix's rows and
    columns alike and so keeps its rank."""
    if n > RANK_LIMIT:
        raise ValueError(f"rank oracle limited to n <= {RANK_LIMIT}, got {n}")
    if n == 0 or not edges:
        return 0
    label = [0] * n
    for i, v in enumerate(_elimination_order(n, edges)):
        label[v] = i
    masks = [0] * n
    for u, v in edges:
        masks[label[u]] |= 1 << label[v]
        masks[label[v]] |= 1 << label[u]
    rng = random.Random(_SEED)
    # Each trial relabels the edges as it draws them, so that no relabelled
    # copy of a dense edge list stays alive.
    return max(_rank_mod_p(_packed_rows(
        n, ((label[u], label[v]) for u, v in edges), rng), list(masks), n) // 2
               for _ in range(_TRIALS))


def matching_size(n: int, edges: Sequence[tuple[int, int]]) -> Optional[int]:
    """Maximum matching size from whichever oracle applies: subset DP up
    to ``AUTO_EXHAUSTIVE_LIMIT`` vertices, the rank oracle up to
    ``RANK_LIMIT``, else None."""
    if n <= AUTO_EXHAUSTIVE_LIMIT:
        return exact_matching_exhaustive(n, edges)
    if n <= RANK_LIMIT:
        return matching_size_rank(n, edges)
    return None
