"""Matching state: mate map, per-arc labels, removed vertices, augmentation."""

from __future__ import annotations

from typing import Iterable, Optional

from .stream import EdgeStream


class Matching:
    """Current matching M as a symmetric mate map over vertices 0..n-1."""

    def __init__(self, n: int):
        self.n = n
        self.mate: list[Optional[int]] = [None] * n

    @property
    def size(self) -> int:
        return sum(1 for m in self.mate if m is not None) // 2

    def is_free(self, v: int) -> bool:
        return self.mate[v] is None

    def add(self, u: int, v: int) -> None:
        assert u != v and self.mate[u] is None and self.mate[v] is None
        self.mate[u] = v
        self.mate[v] = u

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self.mate)
                if v is not None and u < v]

    def free_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.mate[v] is None]


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
    return matching


class ArcLabelTable:
    """Labels of matched arcs, one per direction.

    The matched arc with tail ``v`` is (v, mate(v)), so labels are keyed by
    tail vertex.  Values live in [0, l_max + 1]; fresh tables hold
    l_max + 1 everywhere.  ``reductions`` counts the writes that lowered
    a label.
    """

    def __init__(self, matching: Matching, l_max: int):
        self.l_max = l_max
        self.mate = matching.mate
        self.by_tail: dict[int, int] = {
            u: l_max + 1 for u, m in enumerate(matching.mate) if m is not None}
        self.reductions = 0

    def get(self, arc: tuple[int, int]) -> int:
        u, v = arc
        if self.mate[u] != v:
            raise KeyError(f"arc ({u}, {v}) is not matched")
        return self.by_tail[u]

    def set(self, arc: tuple[int, int], value: int) -> None:
        u, v = arc
        if self.mate[u] != v:
            raise KeyError(f"arc ({u}, {v}) is not matched")
        if value < self.by_tail[u]:
            self.reductions += 1
        self.by_tail[u] = value


def init_labels(matching: Matching, l_max: int) -> ArcLabelTable:
    """Label every matched arc direction with l_max + 1."""
    return ArcLabelTable(matching, l_max)


class RemovedSet:
    """Vertices conceptually removed for the rest of the current phase."""

    def __init__(self, n: int):
        self.flags = bytearray(n)
        self.count = 0

    def add(self, v: int) -> None:
        if not self.flags[v]:
            self.flags[v] = 1
            self.count += 1

    def __contains__(self, v: int) -> bool:
        return bool(self.flags[v])

    def clear(self) -> None:
        self.flags = bytearray(len(self.flags))
        self.count = 0


def is_alternating_augmenting(path: list[int], matching: Matching,
                              edges: Optional[set[frozenset[int]]] = None) -> bool:
    """True iff ``path`` (a vertex sequence) is a valid augmenting path.

    Checks simplicity, free endpoints, strict alternation starting and
    ending with unmatched edges, and (when an edge set is supplied)
    that every step is an actual edge of the graph.
    """
    if len(path) < 2 or len(path) % 2 != 0:
        return False
    if len(set(path)) != len(path):
        return False
    mate = matching.mate
    if mate[path[0]] is not None or mate[path[-1]] is not None:
        return False
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if edges is not None and frozenset((u, v)) not in edges:
            return False
        matched = mate[u] == v
        if i % 2 == 0 and matched:
            return False
        if i % 2 == 1 and not matched:
            return False
    return True


def augment_along(matching: Matching, path: list[int], *,
                  checked: bool = False,
                  edges: Optional[set[frozenset[int]]] = None) -> None:
    """Flip matched and unmatched edges along an augmenting path.

    Grows the matching by exactly one.  ``checked`` validates the path
    first; an invalid path signals an engine bug and raises
    :class:`~streammatch.invariants.InvariantViolationError`.
    """
    if checked and not is_alternating_augmenting(path, matching, edges):
        # Imported here: the invariants module builds on this one.
        from .invariants import InvariantViolationError, Violation
        raise InvariantViolationError([Violation(
            "augmenting-path", None, f"invalid augmenting path {path}")])
    mate = matching.mate
    for i in range(0, len(path) - 1, 2):
        u, v = path[i], path[i + 1]
        mate[u] = v
        mate[v] = u


def validate_matching(matching: Matching, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff every matched pair is an edge and the mate map is symmetric."""
    edge_set = {frozenset(e) for e in edges}
    mate = matching.mate
    for u, v in enumerate(mate):
        if v is None:
            continue
        if v == u or not (0 <= v < len(mate)) or mate[v] != u:
            return False
        if frozenset((u, v)) not in edge_set:
            return False
    return True
