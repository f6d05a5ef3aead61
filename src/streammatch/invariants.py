"""Runtime verification of the engine's structural invariants.

One :class:`InvariantChecker` per checked run inspects phase state
between stream passes (it never mutates and never consumes passes).
Violations carry the invariant name, the offending structure, and a
witness, so a red run names its defect.

The checker learns what changed only from the reports that
:meth:`Forest.record` hands its ``on_op`` hook: the structures each
operation changed, with its arc and case.  Checks run at these moments:

* after each operation, on what it moved or merged (:func:`check_links`):
  a contraction's node, and its record once (:func:`check_blossom`); an
  overtake's two nodes, and in case 2.2 the owner of each node it moved;
  the working node and size bounds of each structure reported;
* at each pass-bundle boundary: one walk of each structure reported since
  the last boundary (:func:`check_structure`), a removed one once, after
  its augment; outer independence at the vertices that became outer
  since then, over their whole adjacency (:func:`check_new_outer`); and
  C-level scans: the set of the labels, whose min and max must lie in
  0 .. l_max + 1, the labels of the phase's unmatched tails, which keep
  l_max + 1, and ``root_of.count(None)``, since each reached vertex must
  lie in a tree the checker walked, live or removed;
* at a phase's first boundary, at its end, and at a boundary where that
  count does not match, :func:`check_forest` on the whole forest.  The
  first boundary of a resumed phase (see :mod:`streammatch.phase`) covers
  the state it carries over; the bundles it replays were checked in the
  phase before, against bounds at least as strict;
* each banked path and the final matching, against the graph.

The unreported structures are unchanged since their last walk.  At the
last boundary no edge joined two live outer nodes, and a merge, a
removal or a steal cannot make one between vertices that were outer
then, so a new one has an end that became outer since: a vertex of a
single-vertex sub that a contraction absorbed, or of a case 1 overtake's
pair.  A vertex held by a walked tree and an unwalked one is counted
twice against ``root_of``.  A mutation that bypasses
:meth:`Forest.record` is caught at the phase's end.  No check reads the
engine's candidate sets (``Forest.dirty``, the arc lists, the retired
arcs) or the stream's tail index, so a wrong candidate set cannot hide a
violation.

Checking a blossom once is complete: its record (subs, cycle, base and
vertex count) never changes once it is built, its vertices stay the
prefix of its tree node's vertex list, which only grows, and the mate
map changes only between phases.  A copy of a forest gives each composite
node a fresh record with the same fields over a copy of the same list.
A sub that is a single vertex is that vertex's int.  The family is
laminar because each blossom is the disjoint union of its subs and the
root blossoms are pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .matching import Matching, is_alternating_augmenting, validate_matching
from .structures import Blossom, Forest, Node, Structure, base_of, subtree

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
                    adjacent: Optional[Sequence[Sequence[int]]] = None) -> list[Violation]:
    """Structure-local checks: tree shape, arc realization, label order
    and size bounds, in one walk of the tree, which reads at most n + 1
    kids of a node and stops below a node whose vertices it met already,
    so no corrupt link loops it.  A removed structure's nodes must have no
    structure.  At a bundle boundary the walk also tables each vertex in
    ``node_of``, flagging a vertex that another node already holds or
    that does not resolve to its node, and a nonzero label on a matched
    arc inside a composite node; given ``adjacent`` (:func:`adjacency`),
    it flags an edge from an outer node's vertex to a larger vertex of
    another outer node of a live structure."""
    bad: list[Violation] = []
    alpha = structure.alpha
    owner = structure if forest.structures.get(alpha) is structure else None
    mate, root_of, labels, n = forest.mate, forest.root_of, forest.labels, forest.n
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
        blossom, base = node.blossom, node.base
        if blossom is None and base not in seen_vertices:
            vertices = (base,)
            seen_vertices.add(base)
        else:
            vertices = (base,) if blossom is None else blossom.vertices
            overlap = seen_vertices.intersection(vertices)
            if overlap:
                flag("tree-representation", f"vertex reuse {sorted(overlap)} at {node!r}")
                continue
            seen_vertices.update(vertices)
        if node_of is not None:
            if blossom is None and base not in node_of and root_of[base] is node:
                node_of[base] = node
            elif (blossom is not None and node_of.keys().isdisjoint(vertices)
                  and list(map(root_of.__getitem__, vertices)).count(node) == len(vertices)):
                node_of.update(dict.fromkeys(vertices, node))  # in C, for a clean blossom
            else:
                for v in vertices:
                    if v in node_of:
                        flag("disjointness", f"vertex {v} also in {node_of[v]!r}")
                    node_of[v] = node
                    if root_of[v] is not node:
                        flag("resolution",
                             f"root_of[{v}] is {root_of[v]!r}, not its tree node {node!r}")
            if adjacent is not None and node.outer and node.structure is not None:
                for v in vertices:
                    for w in adjacent[v]:
                        other = root_of[w]
                        if (w > v and other is not None and other.outer and other is not node
                                and other.structure is not None):
                            flag("outer-independence",
                                 f"edge ({v}, {w}) joins outer nodes {node!r} and {other!r}")
            if blossom is not None:  # only a nonzero label is read further
                for v in compress(vertices, map(labels.__getitem__, vertices)):
                    w = mate[v]
                    if w is not None and node_of.get(w) is node:
                        flag("blossom-arc-labels",
                             f"internal matched arc ({v}, {w}) has nonzero label")
        outer, parent, x = node.outer, node.parent, node.parent_tail
        if node.structure is not owner:
            flag("tree-representation", f"node {node!r} not owned")
        if outer != (depth % 2 == 0):
            flag("tree-representation", f"parity mismatch at {node!r} depth {depth}")
        arc_count += 1 if blossom is None else 1 + blossom.arcs
        if parent is not None and x is None:
            flag("unique-arc", f"missing realizing arc at {node!r}")
        elif parent is not None:
            if root_of[x] is not parent or root_of[base] is not node:
                flag("unique-arc", f"arc {(x, base)} does not realize edge to {node!r}")
            matched = mate[x] == base
            if matched != outer:
                flag("tree-representation",
                     f"arc {(x, base)} matched={matched} entering outer={outer}")
            if outer:
                label = labels[x]
                if label <= floor:
                    flag("increasing-labeling", f"label {label} under label {floor} at {node!r}")
                floor = label
        kids, kid, depth = 0, node.kid, depth + 1
        while kid is not None and kids <= n:  # a longer chain repeats a kid
            kids += 1
            if kid.parent is not node:
                flag("tree-representation", f"parent link broken at {kid!r}")
            stack.append((kid, depth, floor))
            kid = kid.sibling
        if not outer:
            if blossom is not None:
                flag("tree-representation", f"inner node {node!r} is composite")
            if kids != 1:
                flag("tree-representation", f"inner node {node!r} has {kids} children")

    size = structure.size
    if size != len(seen_vertices):
        flag("tree-representation",
             f"size {size} but the tree holds {len(seen_vertices)} vertices")
    bad += check_bounds(structure, limit, l_max, delta)
    if arc_count > delta * delta:
        flag("space-arcs", f"{arc_count} > delta^2 = {delta * delta}")
    return bad


def check_bounds(structure: Structure, limit: int, l_max: int, delta: int) -> list[Violation]:
    """The working node is an outer node of the structure, and its vertex
    count is within the size bounds."""
    bad: list[Violation] = []
    alpha, size, w = structure.alpha, structure.size, structure.working
    if w is not None and (w.structure is not structure or not w.outer):
        bad.append(Violation("tree-representation", alpha, f"working node {w!r} invalid"))
    if size > limit * l_max:
        bad.append(Violation("structure-size", alpha, f"{size} > limit*l_max = {limit * l_max}"))
    if size > delta:
        bad.append(Violation("space-vertices", alpha, f"{size} > delta = {delta}"))
    return bad


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Per vertex, the other ends of its edges: each edge under both ends."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    return adjacent


def check_labels(forest: Forest, l_max: int, unmatched: Sequence[int]) -> list[Violation]:
    """Every label lies in 0..l_max + 1, and an unmatched tail keeps l_max + 1."""
    bad: list[Violation] = []
    labels = forest.labels
    fresh = l_max + 1
    values = set(labels)  # one C-level pass, and a handful of values
    if values and (min(values) < 0 or max(values) > fresh):
        for v, label in enumerate(labels):
            if not 0 <= label <= fresh:
                bad.append(Violation("label-range", None,
                                     f"label {label} out of range at tail {v}"))
    if unmatched and min(map(labels.__getitem__, unmatched)) < fresh:  # in C
        for v in unmatched:
            label = labels[v]
            if 0 <= label < fresh:
                bad.append(Violation("label-range", None,
                                     f"label {label} written on unmatched tail {v}"))
    return bad


def check_forest(forest: Forest, limit: int, l_max: int, delta: int,
                 unmatched: Sequence[int],
                 adjacent: Sequence[Sequence[int]]) -> list[Violation]:
    """Every boundary check but short-path coverage, on the whole forest:
    walks of every live tree with disjointness and outer independence,
    the labels (``unmatched`` lists the phase's unmatched tails) and the
    reached vertices in no tree.  ``adjacent`` is :func:`adjacency`."""
    bad: list[Violation] = []

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, None, detail))

    node_of: dict[int, Node] = {}
    for structure in forest.structures.values():
        bad.extend(check_structure(forest, structure, limit, l_max, delta, node_of, adjacent))
    bad.extend(check_labels(forest, l_max, unmatched))

    # A reached vertex in no tree resolves to a removed node, which exactly
    # its own vertices resolve to.  ``compress`` yields the reached
    # vertices, when the trees hold fewer (each tree vertex is reached
    # unless the walk flagged its resolution).
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


def check_links(forest: Forest, structure: Structure, node: Node,
                moved: Iterable[int]) -> list[Violation]:
    """After an operation that made or moved ``node``: its owner, the
    resolution of ``moved``, the vertices that moved into it, its parent
    arc (realized, matched exactly into an outer node, and then labelled
    above its outer grandparent's arc), its place among its parent's
    kids, and its kids' links.  It reads at most n + 1 links of a chain."""
    bad: list[Violation] = []

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, structure.alpha, detail))

    root_of, n = forest.root_of, forest.n
    if node.structure is not structure:
        flag("tree-representation", f"node {node!r} not owned")
    for v in moved:
        if root_of[v] is not node:
            flag("resolution", f"root_of[{v}] is {root_of[v]!r}, not its tree node {node!r}")
    parent, x, y = node.parent, node.parent_tail, node.base
    if parent is None:
        if structure.root is not node or y != structure.alpha or not node.outer:
            flag("tree-representation", f"bad root {node!r}")
    elif x is None:
        flag("unique-arc", f"missing realizing arc at {node!r}")
    else:
        if root_of[x] is not parent or root_of[y] is not node:
            flag("unique-arc", f"arc {(x, y)} does not realize edge to {node!r}")
        if (forest.mate[x] == y) != node.outer or parent.outer == node.outer:
            flag("tree-representation", f"parity mismatch at {node!r}")
        grand = parent.parent
        if node.outer and grand is not None:
            tail = grand.parent_tail
            floor = 0 if tail is None else forest.labels[tail]
            if forest.labels[x] <= floor:
                flag("increasing-labeling",
                     f"label {forest.labels[x]} under label {floor} at {node!r}")
        kid, count = parent.kid, 0
        while kid is not node and kid is not None and count <= n:
            kid, count = kid.sibling, count + 1
        if kid is not node:
            flag("tree-representation", f"{node!r} is not a kid of its parent")
    kids, kid = 0, node.kid
    while kid is not None and kids <= n:
        kids += 1
        if kid.parent is not node:
            flag("tree-representation", f"parent link broken at {kid!r}")
        elif kid.parent_tail is None or root_of[kid.parent_tail] is not node:
            flag("unique-arc", f"arc into {kid!r} does not start in {node!r}")
        kid = kid.sibling
    if not node.outer and (node.blossom is not None or kids != 1):
        flag("tree-representation", f"inner node {node!r} is composite or has {kids} kids")
    return bad


def check_new_outer(forest: Forest, vertices: set[int],
                    adjacent: Sequence[Sequence[int]]) -> list[Violation]:
    """Outer independence at ``vertices``, which became outer since the
    last boundary, over their whole adjacency: each edge joining two live
    outer nodes is flagged once, as :func:`check_forest` flags it."""
    bad: list[Violation] = []
    root_of = forest.root_of
    for v in vertices:
        node = root_of[v]
        if node is None or not node.outer or node.structure is None:
            continue
        for w in adjacent[v]:
            other = root_of[w]
            if (other is not None and other.outer and other is not node
                    and other.structure is not None and not (w < v and w in vertices)):
                a, b, low, high = (v, w, node, other) if v < w else (w, v, other, node)
                bad.append(Violation("outer-independence", low.structure.alpha,
                                     f"edge ({a}, {b}) joins outer nodes {low!r} and {high!r}"))
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
    once: the edges, their int keys and :func:`adjacency`.  Each check
    raises on the first violation, so failures stop at their cause.
    Within a phase it keeps the structures reported and the vertices that
    became outer since the last boundary, and per live structure its
    vertex count at its last walk (None before the phase's first
    boundary), whose sum with the removed trees' is ``reached``."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.edges = edges
        self.keys = {u * n + v if u < v else v * n + u for u, v in edges}
        self.adjacent = adjacency(n, edges)

    def start_phase(self, forest: Forest, config) -> None:
        """Hook the phase's operations, and list its unmatched tails once:
        the mate map is fixed within a phase.  The next boundary checks
        the whole forest."""
        self.forest, self.config = forest, config
        self.unmatched = [v for v, w in enumerate(forest.mate) if w is None]
        self.changed: dict[int, Structure] = {}
        self.new_outer: list[int] = []
        self.sizes: Optional[dict[int, int]] = None
        forest.on_op = self.after_operation

    def after_operation(self, op: str, touched: tuple, arc: Optional[list[int]] = None,
                        case: Optional[str] = None) -> None:
        """Note the structures ``touched`` as changed, then check what the
        operation moved or merged (see the module docstring)."""
        for structure in touched:
            self.changed[structure.alpha] = structure
        forest, cfg, structure = self.forest, self.config, touched[0]
        bad: list[Violation] = []
        if op == "contract":
            node = structure.working
            blossom = node.blossom
            # The node keeps its largest sub's vertices as a prefix.
            kept = max(1 if type(sub) is int else sub.count for sub in blossom.subs)
            bad += check_blossom(forest, blossom, structure.alpha)
            bad += check_links(forest, structure, node, blossom.members[kept:blossom.count])
            self.new_outer += [sub for sub in blossom.subs if type(sub) is int]
        elif op == "overtake":  # the arc (v, t) enters the node based at t
            nodes = [forest.root_of[x] for x in arc]
            for x, node in zip(arc, nodes):
                if node is None or node.base != x:
                    bad.append(Violation("resolution", structure.alpha,
                                         f"{x} resolves to {node!r}, not a node based at it"))
                else:
                    bad += check_links(forest, structure, node, ())
            if case == "1":
                self.new_outer += arc
            elif case == "2.2" and not bad:  # the engine walked the subtree already
                bad += [Violation("tree-representation", structure.alpha,
                                  f"stolen node {node!r} not owned")
                        for node in subtree(nodes[0]) if node.structure is not structure]
        elif op != "backtrack":
            return
        for structure in touched:
            bad += check_bounds(structure, cfg.limit, cfg.l_max, cfg.delta)
        if bad:
            raise InvariantViolationError(bad)

    def at_boundary(self) -> None:
        """Walk the structures reported since the last boundary, or every
        structure at the phase's first boundary or when the tally of
        reached vertices does not match (see the module docstring)."""
        forest, cfg = self.forest, self.config
        changed, self.changed = self.changed, {}
        new_outer, self.new_outer = set(self.new_outer), []
        sizes = self.sizes
        if sizes is None:
            bad = self._check_forest()
        else:
            bad, node_of = [], {}
            for alpha, structure in changed.items():
                bad += check_structure(forest, structure, cfg.limit, cfg.l_max, cfg.delta,
                                       node_of)
                self.reached += structure.size - sizes.pop(alpha, 0)
                if forest.structures.get(alpha) is structure:
                    sizes[alpha] = structure.size
            bad += check_new_outer(forest, new_outer, self.adjacent)
            bad += check_labels(forest, cfg.l_max, self.unmatched)
            if not bad and forest.n - forest.root_of.count(None) != self.reached:
                bad = self._check_forest()
        if forest.n <= COVERAGE_LIMIT:
            bad += check_short_path_coverage(forest, self.edges, cfg.l_max)
        if bad:
            raise InvariantViolationError(bad)

    def _check_forest(self) -> list[Violation]:
        """:func:`check_forest` on the whole forest, which resets the tally."""
        forest, cfg = self.forest, self.config
        self.sizes = {alpha: s.size for alpha, s in forest.structures.items()}
        self.reached = forest.n - forest.root_of.count(None)
        return check_forest(forest, cfg.limit, cfg.l_max, cfg.delta,
                            self.unmatched, self.adjacent)

    def at_phase_end(self) -> None:
        """The whole forest passes :func:`check_forest`, and at most h|M|
        structures are still active."""
        forest, h = self.forest, self.config.h
        bad = self._check_forest()
        active = sum(1 for s in forest.structures.values() if s.working is not None)
        size = (forest.n - forest.mate.count(None)) // 2
        if active > h * size:
            bad.append(Violation("active-structures", None,
                                 f"{active} active > h*|M| = {h} * {size}"))
        if bad:
            raise InvariantViolationError(bad)

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
