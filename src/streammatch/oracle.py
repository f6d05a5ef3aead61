"""Independent ground truth for verification: the maximum matching size
ν, certified, at any size.

Nothing here shares code with the streaming engine.  Edmonds' search
grows a maximum matching from the greedy one and leaves its odd vertices
as a Tutte–Berge witness U.  A separate O(n + m) check then proves
ν = |M| = (n + |U| - odd(G - U)) / 2, whatever produced M and U (McConnell,
Mehlhorn, Näher and Schweitzer, "Certifying algorithms", 2011).  This is
the second route of every dual-route check in the test suite.
"""

from __future__ import annotations

from typing import Optional, Sequence

_EVEN = 1
_ODD = 2


def _search(n: int, edges: Sequence[tuple[int, int]],
            mate: list[Optional[int]]) -> list[int]:
    """Grow the matching ``mate`` in place into a maximum one and return
    the odd vertices of the last search, the witness U.

    A search grows alternating trees from every free vertex at once; the
    blossom holding a vertex is found by union-find, whose set roots are
    the blossoms' bases.  An edge between even vertices of one tree closes
    a blossom: both of its sides are walked before any base is merged, and
    each odd vertex on them turns even and keeps the edge as its bridge.
    An edge between even vertices of two trees closes an augmenting path:
    the search flips it, retires both trees and goes on.  Searches repeat
    until one flips nothing."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while True:
        label = [0] * n
        tree = [-1] * n             # the root of the vertex's tree
        pred = [-1] * n             # an odd vertex's even parent
        bridge: list[Optional[tuple[int, int]]] = [None] * n
        parent = list(range(n))
        dead = bytearray(n)         # retired trees, by root
        queue = [v for v in range(n) if mate[v] is None]
        for v in queue:
            label[v] = _EVEN
            tree[v] = v

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            return v

        def path(v: int) -> list[int]:
            """The alternating path from even ``v`` to its root, starting
            with v's matched edge.  A vertex that turned even goes back
            down its bridge's near side to its mate, then across."""
            out = []
            # Frames (v, stop, backward) emit v's path up to ``stop`` (-1:
            # the root), reversed if ``backward``; ints emit themselves.
            stack: list = [(v, -1, False)]
            while stack:
                item = stack.pop()
                if type(item) is int:
                    out.append(item)
                    continue
                v, stop, backward = item
                m = mate[v]
                if v == stop or (stop < 0 and tree[v] == v):
                    out.append(v)
                elif bridge[v] is None:
                    rest = (pred[m], stop, backward)
                    stack += [v, m, rest] if backward else [rest, m, v]
                else:
                    x, y = bridge[v]
                    if backward:
                        stack += [v, (x, m, False), (y, stop, True)]
                    else:
                        stack += [(y, stop, False), (x, m, True), v]
            return out

        augmented = False
        for x in queue:
            root = tree[x]
            if dead[root]:
                continue
            bx = find(x)
            for y in adj[x]:
                kind = label[y]
                if not kind:
                    z = mate[y]
                    label[y], tree[y], pred[y] = _ODD, root, x
                    label[z], tree[z] = _EVEN, root
                    queue.append(z)
                    continue
                if kind == _ODD or dead[tree[y]]:
                    continue
                by = find(y)
                if bx == by:
                    continue
                if tree[y] != root:
                    whole = path(x)[::-1] + path(y)
                    for i in range(0, len(whole), 2):
                        a, b = whole[i], whole[i + 1]
                        mate[a], mate[b] = b, a
                    dead[root] = dead[tree[y]] = 1
                    augmented = True
                    break
                # The lowest common base: step up both sides in turn until
                # one meets a base the other has passed.
                passed = set()
                a, b = bx, by
                while True:
                    if a >= 0:
                        if a in passed:
                            break
                        passed.add(a)
                        a = -1 if mate[a] is None else find(pred[mate[a]])
                    a, b = b, a
                merged = []
                for near, far in ((x, y), (y, x)):
                    b = find(near)
                    while b != a:
                        o = mate[b]
                        bridge[o] = (near, far)
                        merged += (b, o)
                        b = find(pred[o])
                for v in merged:
                    parent[v] = a
                    if label[v] == _ODD:
                        label[v] = _EVEN
                        queue.append(v)
                bx = a
        if not augmented:
            return [v for v in range(n) if label[v] == _ODD]


def _certify(n: int, edges: Sequence[tuple[int, int]],
             mate: Sequence[Optional[int]], witness: Sequence[int]) -> int:
    """|M| for the matching ``mate``, once the witness U proves it
    maximum; ValueError otherwise.  Shares nothing with the search:
    ``mate`` must be a symmetric matching of the edges, and
    2|M| = n + |U| - odd(G - U) must hold, where union-find counts the
    odd components of G - U."""
    in_u = bytearray(n)
    for v in witness:
        if not 0 <= v < n:
            raise ValueError(f"witness vertex {v} out of range for n={n}")
        in_u[v] = 1
    covered = bytearray(n)
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in edges:
        if u != v and mate[u] == v:
            covered[u] = covered[v] = 1
        if not (in_u[u] or in_u[v]):
            parent[find(u)] = find(v)
    matched = 0
    for v, m in enumerate(mate):
        if m is None:
            continue
        if not (0 <= m < n and mate[m] == v):
            raise ValueError(f"mate map is not symmetric at vertex {v}")
        if not covered[v]:
            raise ValueError(f"matched pair {{{v}, {m}}} is not an edge")
        matched += 1
    sizes = [0] * n
    for v in range(n):
        if not in_u[v]:
            sizes[find(v)] += 1
    odd = sum(size & 1 for size in sizes)
    bound = n + in_u.count(1) - odd
    if matched != bound:
        raise ValueError(f"witness does not certify the matching: 2|M| = {matched}, "
                         f"n + |U| - odd(G - U) = {bound}")
    return matched // 2


def matching_size(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size ν, certified: Edmonds' search from the greedy
    matching of ``edges``, then the witness check, which raises
    ValueError if the search's matching or witness fails it."""
    mate: list[Optional[int]] = [None] * n
    for u, v in edges:
        if u != v and mate[u] is None and mate[v] is None:
            mate[u], mate[v] = v, u
    return _certify(n, edges, mate, _search(n, edges, mate))


# ``perfbench/run.py`` calls this name and ``perfbench/layers.py`` patches
# it to time the oracle; ``verify`` calls ``matching_size`` whatever its
# ``--oracle``.
matching_size_rank = matching_size
