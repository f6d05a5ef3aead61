"""Runtime verification of the engine's structural invariants.

The checker inspects phase state between stream passes (it never mutates
and never consumes passes).  Violations carry the invariant name, the
offending structure, and a witness, so a red run names its defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .matching import RemovedSet
from .oracle import enumerate_short_augmenting_paths
from .structures import Blossom, Forest, Structure

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


def _blossom_family(structure: Structure) -> list[Blossom]:
    out: list[Blossom] = []
    stack = list(structure.tree_nodes())
    while stack:
        blossom = stack.pop()
        out.append(blossom)
        if blossom.subs is not None:
            stack.extend(blossom.subs)
    return out


def check_structure(forest: Forest, structure: Structure, limit: int,
                    l_max: int, delta: int) -> list[Violation]:
    """Structure-local checks: tree shape, arc realization, label order,
    blossom well-formedness, and size bounds."""
    bad: list[Violation] = []
    alpha = structure.alpha
    mate = forest.mate
    root = structure.root

    def flag(name: str, detail: str) -> None:
        bad.append(Violation(name, alpha, detail))

    if root.parent is not None or not root.outer or root.base != alpha:
        flag("tree-representation", f"bad root {root!r}")
    if root.structure is not structure:
        flag("tree-representation", "root not owned by its structure")

    seen_vertices: set[int] = set()
    outer_label_above: dict[int, int] = {id(root): 0}
    stack: list[tuple[Blossom, int]] = [(root, 0)]
    node_count = 0
    while stack:
        node, depth = stack.pop()
        node_count += 1
        if node.structure is not structure:
            flag("tree-representation", f"node {node!r} not owned")
        if node.outer != (depth % 2 == 0):
            flag("tree-representation", f"parity mismatch at {node!r} depth {depth}")
        if not node.outer:
            if not node.trivial:
                flag("tree-representation", f"inner node {node!r} is composite")
            if len(node.kids) != 1:
                flag("tree-representation", f"inner node {node!r} has {len(node.kids)} children")
        overlap = seen_vertices.intersection(node.vset)
        if overlap:
            flag("tree-representation", f"vertex reuse {sorted(overlap)} at {node!r}")
        seen_vertices.update(node.vset)
        if node.parent is not None:
            arc = node.parent_arc
            if arc is None:
                flag("unique-arc", f"missing realizing arc at {node!r}")
            else:
                x, y = arc
                if forest.root_of[x] is not node.parent or forest.root_of[y] is not node:
                    flag("unique-arc", f"arc {arc} does not realize edge to {node!r}")
                matched = mate[x] == y
                if matched != node.outer:
                    flag("tree-representation",
                         f"arc {arc} matched={matched} entering outer={node.outer}")
                if node.outer and y != node.base:
                    flag("tree-representation",
                         f"matched arc {arc} enters {node!r} away from its base")
                if node.outer:
                    label = forest.labels.by_tail.get(x, 0)
                    grand = node.parent.parent if node.parent is not None else None
                    above = outer_label_above.get(id(grand), 0)
                    if label <= above:
                        flag("increasing-labeling",
                             f"label {label} under label {above} at {node!r}")
                    outer_label_above[id(node)] = label
        for kid in node.kids:
            if kid.parent is not node:
                flag("tree-representation", f"parent link broken at {kid!r}")
            stack.append((kid, depth + 1))

    if seen_vertices != structure.verts:
        flag("tree-representation",
             f"vertex set mismatch: tree {sorted(seen_vertices)} vs {sorted(structure.verts)}")
    if structure.working is not None:
        w = structure.working
        if w.structure is not structure or not w.outer:
            flag("tree-representation", f"working node {w!r} invalid")
    for v in structure.verts:
        if v in forest.removed:
            flag("tree-representation", f"removed vertex {v} inside structure")

    size = len(structure.verts)
    if size > limit * l_max:
        flag("structure-size", f"{size} > limit*l_max = {limit * l_max}")
    if size > delta:
        flag("space-vertices", f"{size} > delta = {delta}")
    arc_count = forest.structure_arc_count(structure)
    if arc_count > delta * delta:
        flag("space-arcs", f"{arc_count} > delta^2 = {delta * delta}")

    for blossom in _blossom_family(structure):
        if blossom.trivial:
            continue
        subs, cycle = blossom.subs, blossom.cycle
        assert subs is not None and cycle is not None
        if len(subs) < 3 or len(subs) % 2 == 0:
            flag("blossom-shape", f"{blossom!r} has {len(subs)} subs")
        if len(blossom.vertices) % 2 == 0:
            flag("blossom-shape", f"{blossom!r} has even vertex count")
        if len(cycle) != len(subs):
            flag("blossom-shape", f"{blossom!r} cycle/subs length mismatch")
        if blossom.base != subs[0].base:
            flag("blossom-shape", f"{blossom!r} base not the stem sub's base")
        for i, (x, y) in enumerate(cycle):
            nxt = subs[(i + 1) % len(subs)]
            if x not in subs[i].vset or y not in nxt.vset:
                flag("blossom-shape", f"cycle arc {i} of {blossom!r} misconnected")
            if (mate[x] == y) != (i % 2 == 1):
                flag("blossom-shape", f"cycle arc {i} of {blossom!r} breaks alternation")
        for x in blossom.vertices:
            mx = mate[x]
            inside = mx is not None and mx in blossom.vset
            if x == blossom.base and inside:
                flag("blossom-shape", f"base {x} of {blossom!r} matched inside")
            if x != blossom.base and not inside:
                flag("blossom-shape", f"non-base {x} of {blossom!r} unmatched inside")
    return bad


def check_forest(forest: Forest, limit: int, l_max: int, delta: int) -> list[Violation]:
    """Global checks: per-structure validity, disjointness, laminarity,
    label table consistency, resolution coherence."""
    bad: list[Violation] = []
    owner: dict[int, int] = {}
    for alpha, structure in forest.structures.items():
        bad.extend(check_structure(forest, structure, limit, l_max, delta))
        for v in structure.verts:
            if v in owner:
                bad.append(Violation("disjointness", alpha,
                                     f"vertex {v} also in S_{owner[v]}"))
            owner[v] = alpha

    mate = forest.mate
    for v, label_keyed in forest.labels.by_tail.items():
        if mate[v] is None:
            bad.append(Violation("label-range", None, f"label on unmatched tail {v}"))
        if not (0 <= label_keyed <= forest.labels.l_max + 1):
            bad.append(Violation("label-range", None,
                                 f"label {label_keyed} out of range at tail {v}"))
    for v, m in enumerate(mate):
        if m is not None and v not in forest.labels.by_tail:
            bad.append(Violation("label-range", None, f"matched tail {v} unlabeled"))

    for v in range(forest.n):
        if v in forest.removed:
            continue
        node = forest.root_of[v]
        if v not in node.vset:
            bad.append(Violation("resolution", None, f"root_of[{v}] omits {v}"))
        if node.structure is not None and v not in node.structure.verts:
            bad.append(Violation("resolution", node.structure.alpha,
                                 f"{v} resolves into structure missing it"))
        # Matched arcs wholly inside one root blossom carry label 0.
        m = mate[v]
        if m is not None and m in node.vset and m not in forest.removed:
            if forest.labels.by_tail[v] != 0:
                bad.append(Violation("blossom-arc-labels", None,
                                     f"internal matched arc ({v}, {m}) has nonzero label"))

    families: list[tuple[Optional[int], Blossom]] = []
    for alpha, structure in forest.structures.items():
        for blossom in _blossom_family(structure):
            if not blossom.trivial:
                families.append((alpha, blossom))
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            a, b = families[i][1].vset, families[j][1].vset
            if a & b and not (a <= b or b <= a):
                bad.append(Violation("laminarity", families[i][0],
                                     f"{sorted(a)} crosses {sorted(b)}"))
    return bad


def check_outer_independence(forest: Forest, edges: Sequence[tuple[int, int]],
                             removed: RemovedSet) -> list[Violation]:
    """At a pass-bundle boundary no edge may join two outer nodes."""
    bad: list[Violation] = []
    root_of = forest.root_of
    for u, v in edges:
        if u in removed or v in removed:
            continue
        bu, bv = root_of[u], root_of[v]
        if bu is bv:
            continue
        if (bu.structure is not None and bu.outer
                and bv.structure is not None and bv.outer):
            bad.append(Violation(
                "outer-independence",
                bu.structure.alpha,
                f"edge ({u}, {v}) joins outer nodes {bu!r} and {bv!r}"))
    return bad


def check_short_path_coverage(forest: Forest, edges: Sequence[tuple[int, int]],
                              l_max: int, removed: RemovedSet) -> list[Violation]:
    """Every live augmenting path with at most l_max matched edges must
    touch the search: it contains an arc whose contracted image lies on
    an active path, or (taken from either end) starts at an active
    structure's free vertex."""
    bad: list[Violation] = []
    active_pairs: set[frozenset[int]] = set()
    for structure in forest.structures.values():
        node = structure.working
        while node is not None and node.parent is not None:
            active_pairs.add(frozenset((node.bid, node.parent.bid)))
            node = node.parent
    mate = forest.mate
    root_of = forest.root_of
    paths = enumerate_short_augmenting_paths(
        forest.n, edges, mate, l_max,
        removed=[v for v in range(forest.n) if v in removed])
    for path in paths:
        covered = False
        for i in range(len(path) - 1):
            bx, by = root_of[path[i]], root_of[path[i + 1]]
            if bx is not by and frozenset((bx.bid, by.bid)) in active_pairs:
                covered = True
                break
        if not covered:
            start = forest.structures.get(path[0])
            end = forest.structures.get(path[-1])
            covered = (start is not None and start.working is not None
                       and end is not None and end.working is not None)
        if not covered:
            bad.append(Violation("short-path-coverage", path[0],
                                 f"uncovered augmenting path {path}"))
    return bad


def check_active_bound(active: int, h: Fraction, matching_size_start: int) -> list[Violation]:
    if active > h * matching_size_start:
        return [Violation("active-structures", None,
                          f"{active} active > h*|M| = {h} * {matching_size_start}")]
    return []


class InvariantChecker:
    """Hooks the engine's operation and bundle boundaries; raises on the
    first violation so failures stop at their cause.  Boundaries also check
    short-path coverage when the graph has at most ``COVERAGE_LIMIT``
    vertices."""

    def __init__(self, edges: Sequence[tuple[int, int]], config,
                 forest: Forest, removed: RemovedSet, *,
                 matching_size_start: int):
        self.edges = edges
        self.config = config
        self.forest = forest
        self.removed = removed
        self.matching_size_start = matching_size_start

    def _raise_if(self, violations: list[Violation]) -> None:
        if violations:
            raise InvariantViolationError(violations)

    def after_operation(self, op: str, touched: tuple) -> None:
        bad: list[Violation] = []
        for structure in touched:
            bad.extend(check_structure(self.forest, structure, self.config.limit,
                                       self.config.l_max, self.config.delta))
        self._raise_if(bad)

    def at_boundary(self) -> None:
        cfg = self.config
        bad = check_forest(self.forest, cfg.limit, cfg.l_max, cfg.delta)
        bad.extend(check_outer_independence(self.forest, self.edges, self.removed))
        if self.forest.n <= COVERAGE_LIMIT:
            bad.extend(check_short_path_coverage(self.forest, self.edges,
                                                 cfg.l_max, self.removed))
        self._raise_if(bad)

    def at_phase_end(self, active: int) -> None:
        self._raise_if(check_active_bound(active, self.config.h,
                                          self.matching_size_start))
