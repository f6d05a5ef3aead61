"""Runtime verification of the engine's structural invariants.

One :class:`InvariantChecker` per checked run inspects phase state
between stream passes (it never mutates and never consumes passes).
Violations carry the invariant name, the offending structure, and a
witness, so a red run names its defect.

Checks run at six moments: :func:`check_blossom` once per blossom, at
its contraction; :func:`check_structure` after each contraction and
overtake, on the structures it changed (a backtrack, an augment or a
hold names none, and :meth:`Forest.record` calls its hook only when an
operation names some); the active bound at each phase's end; each banked
path and the final matching, against the graph; and :func:`check_forest`
at every pass-bundle boundary, in Python time proportional to the live
forest, plus C-level scans of the per-vertex lists:

* one walk of each tree, which also checks that each tree vertex
  resolves to its node and that a composite node's internal matched arcs
  carry label 0, tables each tree vertex's node, and reads the edges at
  each outer node's vertices from the checker's own adjacency, which
  stores each edge once, under its smaller end: an edge joining two
  outer nodes is found from its smaller end, which is outer;
* the set of the labels, whose min and max must lie in 0 .. l_max + 1
  (a Python scan names the bad tail only when one does not), and the
  phase's unmatched tails, which keep the fresh label;
* the reached vertices in no tree, which must be removed, each removed
  node resolved to by exactly its own vertices.  ``root_of.count(None)``
  tells whether there are any, and ``itertools.compress`` over
  ``root_of`` lists them then.

None of these reads the engine's candidate sets (``Forest.dirty``, the
arc lists, the retired arcs) or the stream's tail index, so a wrong
candidate set cannot hide a violation.

A phase resumed from the previous scale's, from that engine or from a
copy of it (see :mod:`streammatch.phase`), is checked from its resume
bundle on: :meth:`InvariantChecker.start_phase`
hooks it again, and its first boundary checks the state it carries over.
The bundles it replays are not checked again.  Their states are those of
the phase before, which were checked already, against that scale's
``limit * l_max`` and ``delta`` bounds, which were at least as strict;
and :meth:`InvariantChecker.at_phase_end` still checks the active bound
with the new h.

Checking a blossom once is complete: its record (subs, cycle, base and
vertex count) never changes once it is built, and its vertices stay the
prefix of the vertex list of the tree node it was built for, which only
grows; the mate map changes only between phases.  A later contraction
that takes over that node gives it a new record and appends to its list,
which leaves every earlier record as it was.  A copy of a forest gives
each composite node a fresh record with the same fields over a copy of
the same list, so it needs no check of its own.  A sub that is a single
vertex is that vertex's int.  The family is laminar because each blossom
is the disjoint union of its subs and the root blossoms are pairwise
disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .matching import Matching, is_alternating_augmenting, validate_matching
from .structures import Blossom, Forest, Node, Structure, base_of

# Short-path coverage enumerates every short augmenting path at each bundle
# boundary, so it is checked only on graphs with at most this many vertices.
COVERAGE_LIMIT = 14


@dataclass
class Violation:
    name: str
    structure: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = f" S_{self.structure}" if self.structure is not None else ""
        return f"[{self.name}]{where}: {self.detail}"


class InvariantViolationError(AssertionError):
    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


def check_blossom(forest: Forest, blossom: Blossom,
                  alpha: Optional[int]) -> list[Violation]:
    """Checks of a composite blossom of structure ``alpha``, run once, when
    it is contracted: an odd cycle of subs joined by alternating arcs, with
    only its base matched outside it, whose vertices are the disjoint union
    of its subs'."""
    bad: list[Violation] = []

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, alpha, detail))

    subs, cycle = blossom.subs, blossom.cycle
    members = set(blossom.vertices)
    parts = [[sub] if type(sub) is int else sub.vertices for sub in subs]
    sub_of = {x: i for i, part in enumerate(parts) for x in part}
    if (len(sub_of) != sum(map(len, parts))
            or len(members) != blossom.count or members != sub_of.keys()):
        flag("laminarity", f"{blossom!r} is not the disjoint union of its subs")
    if len(subs) < 3 or len(subs) % 2 == 0:
        flag("blossom-shape", f"{blossom!r} has {len(subs)} subs")
    if blossom.count % 2 == 0:
        flag("blossom-shape", f"{blossom!r} has even vertex count")
    if len(cycle) != len(subs):
        flag("blossom-shape", f"{blossom!r} cycle/subs length mismatch")
    if blossom.base != base_of(subs[0]):
        flag("blossom-shape", f"{blossom!r} base not the stem sub's base")
    mate = forest.mate
    for i, (x, y) in enumerate(cycle):
        if sub_of.get(x) != i or sub_of.get(y) != (i + 1) % len(subs):
            flag("blossom-shape", f"cycle arc {i} of {blossom!r} misconnected")
        if (mate[x] == y) != (i % 2 == 1):
            flag("blossom-shape", f"cycle arc {i} of {blossom!r} breaks alternation")
    for x in blossom.vertices:
        inside = mate[x] in members
        if x == blossom.base and inside:
            flag("blossom-shape", f"base {x} of {blossom!r} matched inside")
        if x != blossom.base and not inside:
            flag("blossom-shape", f"non-base {x} of {blossom!r} unmatched inside")
    return bad


def check_structure(forest: Forest, structure: Structure, limit: int,
                    l_max: int, delta: int,
                    node_of: Optional[dict[int, Node]] = None,
                    above: Optional[Sequence[Sequence[int]]] = None) -> list[Violation]:
    """Structure-local checks: tree shape, arc realization, label order
    and size bounds, in one walk of the tree, which reads at most n + 1
    kids of a node and stops below a node whose vertices it met already,
    so no corrupt link loops it.  At a bundle boundary the walk also
    enters each node in ``node_of``, the caller's table from tree vertex
    to node, flagging a vertex that a node of this tree or another
    already holds, a vertex that does not resolve to its node, and a
    nonzero label on a matched arc inside a composite node; and, given
    ``above`` too (:func:`edges_above` of the graph), it flags an edge stored
    under an outer node's vertex whose other end resolves to another
    outer node of a live structure.  The per-operation check passes no
    ``above``: within a bundle such an edge stands until the
    augmentation read banks it."""
    bad: list[Violation] = []
    alpha = structure.alpha
    mate = forest.mate
    root_of = forest.root_of
    labels = forest.labels
    root = structure.root

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, alpha, detail))

    if root.parent is not None or root.base != alpha:  # the walk checks the rest
        flag("tree-representation", f"bad root {root!r}")

    seen_vertices: set[int] = set()
    arc_count = -1  # each node's cycle arcs, and its parent arc if not the root
    # Each entry carries its nearest outer ancestor's label, 0 at the root.
    stack: list[tuple[Node, int, int]] = [(root, 0, 0)]
    while stack:
        node, depth, floor = stack.pop()
        blossom = node.blossom
        vertices = (node.base,) if blossom is None else blossom.vertices
        overlap = seen_vertices.intersection(vertices)
        if overlap:
            flag("tree-representation", f"vertex reuse {sorted(overlap)} at {node!r}")
            continue
        seen_vertices.update(vertices)
        if node_of is not None:
            outer = above is not None and node.outer and node.structure is not None
            for v in vertices:
                if v in node_of:
                    flag("disjointness", f"vertex {v} also in {node_of[v]!r}")
                node_of[v] = node
                if root_of[v] is not node:
                    flag("resolution",
                         f"root_of[{v}] is {root_of[v]!r}, not its tree node {node!r}")
                if outer:
                    for w in above[v]:
                        other = root_of[w]
                        if (other is not None and other.outer and other is not node
                                and other.structure is not None):
                            flag("outer-independence",
                                 f"edge ({v}, {w}) joins outer nodes {node!r} and {other!r}")
            if blossom is not None:
                for v in vertices:
                    w = mate[v]
                    if w is not None and node_of.get(w) is node and labels[v] != 0:
                        flag("blossom-arc-labels",
                             f"internal matched arc ({v}, {w}) has nonzero label")
        if node.structure is not structure:
            flag("tree-representation", f"node {node!r} not owned")
        if node.outer != (depth % 2 == 0):
            flag("tree-representation", f"parity mismatch at {node!r} depth {depth}")
        arc_count += 1 if blossom is None else 1 + blossom.arcs
        x, y = node.parent_tail, node.base
        if node.parent is not None and x is None:
            flag("unique-arc", f"missing realizing arc at {node!r}")
        elif node.parent is not None:
            if root_of[x] is not node.parent or root_of[y] is not node:
                flag("unique-arc", f"arc {(x, y)} does not realize edge to {node!r}")
            matched = mate[x] == y
            if matched != node.outer:
                flag("tree-representation",
                     f"arc {(x, y)} matched={matched} entering outer={node.outer}")
            if node.outer:
                label = labels[x]
                if label <= floor:
                    flag("increasing-labeling", f"label {label} under label {floor} at {node!r}")
                floor = label
        kids, kid = 0, node.kid
        while kid is not None and kids <= forest.n:  # a longer chain repeats a kid
            kids += 1
            if kid.parent is not node:
                flag("tree-representation", f"parent link broken at {kid!r}")
            stack.append((kid, depth + 1, floor))
            kid = kid.sibling
        if not node.outer:
            if blossom is not None:
                flag("tree-representation", f"inner node {node!r} is composite")
            if kids != 1:
                flag("tree-representation", f"inner node {node!r} has {kids} children")

    size = structure.size
    if size != len(seen_vertices):
        flag("tree-representation",
             f"size {size} but the tree holds {len(seen_vertices)} vertices")
    w = structure.working
    if w is not None and (w.structure is not structure or not w.outer):
        flag("tree-representation", f"working node {w!r} invalid")

    if size > limit * l_max:
        flag("structure-size", f"{size} > limit*l_max = {limit * l_max}")
    if size > delta:
        flag("space-vertices", f"{size} > delta = {delta}")
    if arc_count > delta * delta:
        flag("space-arcs", f"{arc_count} > delta^2 = {delta * delta}")
    return bad


def edges_above(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Per vertex, the other ends of the edges stored under it: each edge
    once, under its smaller end."""
    above: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u <= v:
            above[u].append(v)
        else:
            above[v].append(u)
    return above


def check_forest(forest: Forest, limit: int, l_max: int, delta: int,
                 unmatched: Iterable[int],
                 above: Sequence[Sequence[int]]) -> list[Violation]:
    """Every check of a pass-bundle boundary but short-path coverage:
    per-structure validity, disjointness and outer independence in the
    tree walks, then label range and resolution coherence, with the
    reads the module docstring lists.  ``unmatched`` lists the phase's
    unmatched tails and ``above`` is :func:`edges_above` of the graph."""
    bad: list[Violation] = []

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, None, detail))

    node_of: dict[int, Node] = {}
    for structure in forest.structures.values():
        bad.extend(check_structure(forest, structure, limit, l_max, delta, node_of, above))

    # Every label lies in 0..l_max + 1, and an unmatched tail keeps l_max + 1.
    labels = forest.labels
    fresh = l_max + 1
    values = set(labels)  # one C-level pass, and a handful of values
    if values and (min(values) < 0 or max(values) > fresh):
        for v, label in enumerate(labels):
            if not 0 <= label <= fresh:
                flag("label-range", f"label {label} out of range at tail {v}")
    for v in unmatched:
        label = labels[v]
        if 0 <= label < fresh:
            flag("label-range", f"label {label} written on unmatched tail {v}")

    # A reached vertex in no tree was removed: it resolves to a node
    # without a structure, and each such node is resolved to by exactly
    # its own vertices.  A node is always true, so ``compress`` yields
    # the reached vertices.  There are none outside the trees when as
    # many vertices are reached as the trees hold, since each tree vertex
    # is reached unless the walk flagged its resolution already.
    root_of = forest.root_of
    resolvers: dict[Node, int] = {}
    reached = compress(range(forest.n), root_of)
    if root_of.count(None) + len(node_of) == forest.n:
        reached = ()
    for v in reached:
        if v in node_of:
            continue
        node = root_of[v]
        if node.structure is not None:
            flag("resolution", f"{v} is in no tree but resolves to {node!r}")
        else:
            resolvers[node] = resolvers.get(node, 0) + 1
    for node, count in resolvers.items():
        if (count != len(node.vertices)
                or any(root_of[x] is not node for x in node.vertices)):
            flag("resolution",
                 f"removed {node!r} is not resolved to by exactly its own vertices")

    return bad


def check_short_path_coverage(forest: Forest, edges: Sequence[tuple[int, int]],
                              l_max: int) -> list[Violation]:
    """Every live augmenting path with at most l_max matched edges must
    touch the search: it contains an arc whose contracted image lies on
    an active path, or (taken from either end) starts at an active
    structure's free vertex."""
    bad: list[Violation] = []
    active_pairs: set[frozenset[Node]] = set()
    for structure in forest.structures.values():
        node = structure.working
        while node is not None and node.parent is not None:
            active_pairs.add(frozenset((node, node.parent)))
            node = node.parent
    mate = forest.mate
    root_of = forest.root_of
    paths = enumerate_short_augmenting_paths(
        forest.n, edges, mate, l_max,
        removed=[v for v, node in enumerate(root_of)
                 if node is not None and node.structure is None])
    for path in paths:
        # A pair in ``active_pairs`` holds two distinct tree nodes.
        covered = any(frozenset((root_of[x], root_of[y])) in active_pairs
                      for x, y in zip(path, path[1:]))
        if not covered:
            start = forest.structures.get(path[0])
            end = forest.structures.get(path[-1])
            covered = (start is not None and start.working is not None
                       and end is not None and end.working is not None)
        if not covered:
            bad.append(Violation("short-path-coverage", path[0],
                                 f"uncovered augmenting path {path}"))
    return bad


def enumerate_short_augmenting_paths(
        n: int, edges: Sequence[tuple[int, int]],
        mate: Sequence[Optional[int]], max_matched: int,
        removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """All simple augmenting paths with at most ``max_matched`` matched
    edges avoiding ``removed`` vertices, one canonical orientation each
    (smaller endpoint first), sorted.  A direct search of the graph that
    shares no code with the engine, for :func:`check_short_path_coverage`."""
    if n > COVERAGE_LIMIT:
        raise ValueError(f"path enumeration limited to n <= {COVERAGE_LIMIT}, got {n}")
    banned = set(removed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
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


class InvariantChecker:
    """The checks of one checked run, over the view of the graph it builds
    once: the edges, their int keys and :func:`edges_above`.  Each check
    raises on the first violation, so failures stop at their cause."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.edges = edges
        self.keys = {u * n + v if u < v else v * n + u for u, v in edges}
        self.above = edges_above(n, edges)

    def start_phase(self, forest: Forest, config) -> None:
        """Hook the phase's operations, and list its unmatched tails once:
        the mate map is fixed within a phase."""
        self.forest, self.config = forest, config
        self.unmatched = [v for v, w in enumerate(forest.mate) if w is None]
        forest.on_op = self.after_operation

    def after_operation(self, op: str, touched: tuple) -> None:
        cfg = self.config
        bad: list[Violation] = []
        if op == "contract":
            structure = touched[0]
            bad.extend(check_blossom(self.forest, structure.working.blossom,
                                     structure.alpha))
        for structure in touched:
            bad.extend(check_structure(self.forest, structure, cfg.limit,
                                       cfg.l_max, cfg.delta))
        if bad:
            raise InvariantViolationError(bad)

    def at_boundary(self) -> None:
        cfg = self.config
        bad = check_forest(self.forest, cfg.limit, cfg.l_max, cfg.delta,
                           self.unmatched, self.above)
        if self.forest.n <= COVERAGE_LIMIT:
            bad.extend(check_short_path_coverage(self.forest, self.edges, cfg.l_max))
        if bad:
            raise InvariantViolationError(bad)

    def at_phase_end(self) -> None:
        """At most h|M| structures are still active."""
        forest, h = self.forest, self.config.h
        active = sum(1 for s in forest.structures.values() if s.working is not None)
        size = (forest.n - forest.mate.count(None)) // 2
        if active > h * size:
            raise InvariantViolationError([Violation(
                "active-structures", None, f"{active} active > h*|M| = {h} * {size}")])

    def check_path(self, path: list[int], matching: Matching) -> None:
        """A banked path is an augmenting path of the graph for ``matching``."""
        if not is_alternating_augmenting(path, matching, self.keys):
            raise InvariantViolationError([Violation(
                "augmenting-path", None, f"invalid augmenting path {path}")])

    def at_run_end(self, matching: Matching) -> None:
        """The final matching is a matching of the graph."""
        if not validate_matching(matching, self.keys):
            raise InvariantViolationError([Violation(
                "valid-matching", None, "final matching is not a valid matching of the input")])
