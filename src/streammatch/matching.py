"""Matching state: mate map, greedy bootstrap, augmentation, validation."""

from __future__ import annotations

from typing import Iterable, Optional

from .stream import EdgeStream


class Matching:
    """Current matching M as a symmetric mate map over vertices 0..n-1, its
    size, and the vertices that may still be free: augmenting matches a
    path's free ends and keeps its inner vertices matched, so no matched
    vertex is ever free again."""

    def __init__(self, n: int):
        self.mate: list[Optional[int]] = [None] * n
        self.size = 0
        self._free = list(range(n))

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self.mate)
                if v is not None and u < v]

    def free_vertices(self) -> list[int]:
        """The free vertices, ascending."""
        mate = self.mate
        self._free = [v for v in self._free if mate[v] is None]
        return self._free


def greedy_maximal_matching(stream: EdgeStream) -> Matching:
    """One-pass greedy maximal matching: take an edge iff both ends are free.

    Maximal w.r.t. the stream content, hence at least half the maximum size.
    """
    matching = Matching(stream.vertex_count)
    mate = matching.mate
    for u, v in stream.iter_arcs_once():
        if mate[u] is None and mate[v] is None:
            mate[u] = v
            mate[v] = u
            matching.size += 1
    return matching


def is_alternating_augmenting(path: list[int], matching: Matching,
                              edges: set[int]) -> bool:
    """True iff ``path`` (a vertex sequence) is a valid augmenting path.

    Checks simplicity, free endpoints, strict alternation starting and
    ending with unmatched edges, and that every step is an edge of
    ``edges``, where the edge {u, v} on the vertices 0..n-1 is keyed by
    one int, the rank ``min * n + max`` of (min, max) in an n-by-n table.
    """
    if len(path) < 2 or len(path) % 2 != 0:
        return False
    if len(set(path)) != len(path):
        return False
    mate = matching.mate
    n = len(mate)
    if not all(0 <= v < n for v in path):
        return False
    if mate[path[0]] is not None or mate[path[-1]] is not None:
        return False
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if (u * n + v if u < v else v * n + u) not in edges:
            return False
        matched = mate[u] == v
        if i % 2 == 0 and matched:
            return False
        if i % 2 == 1 and not matched:
            return False
    return True


def augment_along(matching: Matching, path: list[int]) -> None:
    """Flip matched and unmatched edges along an augmenting path, which
    grows the matching by exactly one."""
    mate = matching.mate
    for i in range(0, len(path) - 1, 2):
        u, v = path[i], path[i + 1]
        mate[u] = v
        mate[v] = u
    matching.size += 1


def validate_matching(matching: Matching, edges: Iterable[tuple[int, int]] | set[int]) -> bool:
    """True iff every matched pair is an edge and the mate map is symmetric.
    An edge of ``edges``, on the vertices 0..n-1, is keyed by one int: the
    rank of (min, max) in an n-by-n table; ``edges`` may be those keys."""
    mate = matching.mate
    n = len(mate)
    edge_keys = edges if isinstance(edges, set) else {
        u * n + v if u < v else v * n + u for u, v in edges}
    for u, v in enumerate(mate):
        if v is None:
            continue
        if v == u or not (0 <= v < n) or mate[v] != u:
            return False
        if (u * n + v if u < v else v * n + u) not in edge_keys:
            return False
    return True
