"""Blossoms, per-free-vertex search structures, and their mutation operations.

Each free vertex owns a structure: a subgraph whose contraction by its
blossom family is an alternating tree rooted at the free vertex.  The tree
is stored explicitly; its nodes are the root blossoms.  Inner nodes (odd
depth) are always single vertices, outer nodes (even depth) may be
contracted blossoms.  Every non-root node records the unique arc of the
underlying graph realizing the tree edge to its parent, so contracted
paths can be lifted back to the graph exactly.

The three mutating operations mirror the search steps:

* ``contract``  - an arc closes an odd cycle inside a structure; the cycle
  of tree nodes becomes one blossom, an outer node, and the labels of all
  matched arcs inside it drop to 0.
* ``overtake``  - a structure reaches a matched arc by a shorter
  alternating path than previously recorded; the arc (and, if it was in a
  tree already, the whole subtree hanging from it) is re-rooted under the
  new parent and the arc's label is lowered.
* ``record_augmentation`` - an arc joins the outer nodes of two different
  structures; the two root-to-node paths plus the arc form an augmenting
  path, which is lifted to the graph and banked, and both structures are
  removed for the rest of the phase.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .matching import ArcLabelTable, RemovedSet

Arc = tuple[int, int]


class Blossom:
    """A trivial blossom (single vertex) or a contracted odd cycle of blossoms.

    Composite blossoms keep their construction: the odd-length list of
    sub-blossoms ``subs`` and the connecting arcs ``cycle``, where
    ``cycle[i]`` runs from ``subs[i]`` to ``subs[(i+1) % len]`` and the
    odd-indexed arcs are matched.  ``base`` is the unique vertex left
    unmatched by the blossom's own edge set.

    While a blossom is a root blossom inside a structure it doubles as a
    node of that structure's alternating tree (fields ``structure``,
    ``parent``, ``parent_arc``, ``kids``, ``outer``).
    """

    __slots__ = ("bid", "vertex", "subs", "cycle", "base", "vertices", "vset",
                 "structure", "parent", "parent_arc", "kids", "outer")

    def __init__(self, bid: int, *, vertex: Optional[int] = None,
                 subs: Optional[list["Blossom"]] = None,
                 cycle: Optional[list[Arc]] = None,
                 base: Optional[int] = None):
        self.bid = bid
        self.vertex = vertex
        self.subs = subs
        self.cycle = cycle
        if vertex is not None:
            self.base = vertex
            self.vertices = [vertex]
        else:
            assert subs is not None and base is not None
            self.base = base
            self.vertices = [x for sub in subs for x in sub.vertices]
        self.vset = frozenset(self.vertices)
        self.structure: Optional[Structure] = None
        self.parent: Optional[Blossom] = None
        self.parent_arc: Optional[Arc] = None
        self.kids: list[Blossom] = []
        self.outer = False

    @property
    def trivial(self) -> bool:
        return self.subs is None

    def __repr__(self) -> str:
        if self.trivial:
            return f"B({self.vertex})"
        return f"B{self.bid}{sorted(self.vertices)}"


class Structure:
    """Search structure of one free vertex: tree, working node, marks."""

    __slots__ = ("alpha", "root", "working", "on_hold", "modified", "verts")

    def __init__(self, alpha: int, root: Blossom):
        self.alpha = alpha
        self.root = root
        self.working: Optional[Blossom] = root
        self.on_hold = False
        self.modified = False
        self.verts: set[int] = set(root.vertices)

    @property
    def active(self) -> bool:
        return self.working is not None

    def size(self) -> int:
        return len(self.verts)

    def tree_nodes(self) -> Iterator[Blossom]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.kids)

    def __repr__(self) -> str:
        return f"S({self.alpha})"


def is_ancestor(candidate: Blossom, node: Blossom) -> bool:
    """True iff ``candidate`` is a proper ancestor of ``node`` in its tree."""
    cur = node.parent
    while cur is not None:
        if cur is candidate:
            return True
        cur = cur.parent
    return False


def even_path_vertices(blossom: Blossom, x: int) -> list[int]:
    """Even-length alternating path inside the blossom's own edge set.

    Returns the vertex sequence from ``base`` to ``x``.  The first edge is
    unmatched and the last is matched (empty sequence of edges when
    ``x`` is the base), so the path splices cleanly between an external
    matched arc at the base and an external unmatched arc at ``x``.
    """
    if blossom.trivial:
        if x != blossom.vertex:
            raise ValueError(f"vertex {x} not in {blossom!r}")
        return [x]
    subs, cycle = blossom.subs, blossom.cycle
    assert subs is not None and cycle is not None
    j = next((i for i, sub in enumerate(subs) if x in sub.vset), None)
    if j is None:
        raise ValueError(f"vertex {x} not in {blossom!r}")
    if j == 0:
        return even_path_vertices(subs[0], x)
    k = len(subs) - 1
    if j % 2 == 0:
        # Walk forward around the cycle: even number of arcs.
        route_subs = [subs[i] for i in range(j + 1)]
        route_arcs = [cycle[i] for i in range(j)]
    else:
        # Walk backward: also an even number of arcs, reversed orientation.
        route_subs = [subs[0]] + [subs[i] for i in range(k, j - 1, -1)]
        route_arcs = [(cycle[i][1], cycle[i][0]) for i in range(k, j - 1, -1)]
    out = even_path_vertices(route_subs[0], route_arcs[0][0])
    last = len(route_subs) - 1
    for idx in range(1, last + 1):
        entry = route_arcs[idx - 1][1]
        entry_matched = (idx - 1) % 2 == 1
        sub = route_subs[idx]
        if entry_matched:
            assert entry == sub.base
            exit_v = x if idx == last else route_arcs[idx][0]
            out.extend(even_path_vertices(sub, exit_v))
        else:
            # Exit through the matched arc at this sub's base.
            assert idx < last
            out.extend(reversed(even_path_vertices(sub, entry)))
    return out


def lift_contracted_path(nodes: list[Blossom], arcs: list[Arc],
                         mate: list[Optional[int]]) -> list[int]:
    """Expand a path over root blossoms into a vertex path of the graph.

    ``arcs[i]`` connects ``nodes[i]`` to ``nodes[i+1]`` (tail in the former,
    head in the latter).  For an augmenting path the arc sequence starts and
    ends unmatched; the path enters every blossom through a matched arc at
    its base or leaves through one, and the gap is bridged by the blossom's
    internal even alternating path.
    """
    assert len(arcs) == len(nodes) - 1
    out: list[int] = []
    last = len(nodes) - 1
    for i, node in enumerate(nodes):
        entry = arcs[i - 1][1] if i > 0 else node.base
        exit_v = arcs[i][0] if i < last else node.base
        entry_matched = i == 0 or mate[arcs[i - 1][0]] == arcs[i - 1][1]
        if node.trivial:
            assert entry == exit_v == node.vertex
            out.append(node.vertex)
        elif entry_matched:
            assert entry == node.base
            out.extend(even_path_vertices(node, exit_v))
        else:
            assert exit_v == node.base
            out.extend(reversed(even_path_vertices(node, entry)))
    return out


class Forest:
    """All structures of one phase plus vertex-to-root-blossom resolution.

    The blossom family is laminar: the trivial blossoms of all vertices,
    plus every contracted composite.  ``root_of[v]`` is kept eagerly
    up to date, so resolution is a single array read.  ``mutations``
    counts every state change; a full pass bundle that leaves it
    untouched can never change anything again within the phase.
    """

    def __init__(self, n: int, mate: list[Optional[int]],
                 labels: ArcLabelTable, removed: RemovedSet,
                 trace: Optional[Callable[[dict], None]] = None,
                 on_op: Optional[Callable[[str, tuple], None]] = None):
        self.n = n
        self.mate = mate
        self.labels = labels
        self.removed = removed
        self.trace = trace
        self.on_op = on_op
        self.bundle = 0
        self.mutations = 0
        self._next_bid = n
        self.root_of: list[Blossom] = [Blossom(v, vertex=v) for v in range(n)]
        self.structures: dict[int, Structure] = {}
        self.paths: list[list[int]] = []
        self.blossom_sizes: list[int] = []

    # -- queries ------------------------------------------------------------

    def resolve(self, v: int) -> Blossom:
        return self.root_of[v]

    def classify(self, v: int) -> str:
        node = self.root_of[v]
        if node.structure is None:
            return "unvisited"
        return "outer" if node.outer else "inner"

    def distance(self, node: Blossom) -> int:
        """Alternating-path length bound at an outer node: 0 at the root,
        otherwise the label of the matched arc realizing its tree edge."""
        if node.parent is None:
            return 0
        arc = node.parent_arc
        assert arc is not None
        return self.labels.by_tail[arc[0]]

    # -- structure lifecycle --------------------------------------------------

    def init_structure(self, alpha: int) -> Structure:
        node = self.root_of[alpha]
        assert self.mate[alpha] is None and alpha not in self.removed
        assert node.trivial and node.structure is None
        structure = Structure(alpha, node)
        node.structure = structure
        node.parent = None
        node.parent_arc = None
        node.kids = []
        node.outer = True
        self.structures[alpha] = structure
        return structure

    def remove_structures(self, first: Structure, second: Structure) -> None:
        """Take both structures out of the phase: their vertices become
        removed, their blossoms leave the family, the structures die."""
        assert first is not second
        for structure in (first, second):
            for v in structure.verts:
                self.removed.add(v)
            for node in structure.tree_nodes():
                node.structure = None
            del self.structures[structure.alpha]
        self.mutations += 1

    # -- operations -----------------------------------------------------------

    def contract(self, u: int, v: int) -> Blossom:
        """Contract the unique blossom closed by the unmatched arc (u, v).

        Both endpoints resolve to distinct outer nodes of one structure and
        the tail side is its working node.  The tree path between them plus
        the arc forms an odd alternating cycle; the resulting blossom
        replaces the path nodes, becomes the new working node, and all
        matched arcs inside it get label 0 in both directions.
        """
        bu, bv = self.root_of[u], self.root_of[v]
        structure = bu.structure
        assert structure is not None and bv.structure is structure
        assert bu is not bv and bu.outer and bv.outer
        assert structure.working is bu
        assert self.mate[u] != v

        seen: dict[int, Blossom] = {}
        cursor: Optional[Blossom] = bu
        chain_u: list[Blossom] = []
        while cursor is not None:
            seen[id(cursor)] = cursor
            chain_u.append(cursor)
            cursor = cursor.parent
        climb_v: list[Blossom] = []
        lca = bv
        while id(lca) not in seen:
            climb_v.append(lca)
            parent = lca.parent
            assert parent is not None
            lca = parent
        path_u = []
        for node in chain_u:
            if node is lca:
                break
            path_u.append(node)

        down_v = list(reversed(climb_v))          # lca's child .. bv
        subs = [lca] + down_v + path_u            # path_u = bu .. child of lca
        cycle: list[Arc] = [node.parent_arc for node in down_v]  # type: ignore[misc]
        cycle.append((v, u))
        for node in path_u:
            arc = node.parent_arc
            assert arc is not None
            cycle.append((arc[1], arc[0]))

        blossom = Blossom(self._next_bid, subs=subs, cycle=cycle, base=lca.base)
        self._next_bid += 1
        blossom.structure = structure
        blossom.outer = True
        blossom.parent = lca.parent
        blossom.parent_arc = lca.parent_arc
        if blossom.parent is not None:
            blossom.parent.kids.remove(lca)
            blossom.parent.kids.append(blossom)
        else:
            structure.root = blossom
        on_path = {id(node) for node in subs}
        for node in subs:
            for kid in node.kids:
                if id(kid) not in on_path:
                    kid.parent = blossom
                    blossom.kids.append(kid)
        for node in subs:
            node.structure = None
            node.parent = None
            node.parent_arc = None
            node.kids = []
            node.outer = False
        for x in blossom.vertices:
            self.root_of[x] = blossom
        vset = blossom.vset
        mate = self.mate
        for x in blossom.vertices:
            mx = mate[x]
            if mx is not None and mx in vset:
                self.labels.set((x, mx), 0)
        structure.working = blossom
        structure.modified = True
        self.mutations += 1
        self.blossom_sizes.append(len(blossom.vertices))
        if self.trace is not None:
            self.trace({"bundle": self.bundle, "op": "contract",
                        "structure": structure.alpha, "arc": [u, v],
                        "label_old": None, "label_new": None,
                        "case": "blossom"})
        if self.on_op is not None:
            self.on_op("contract", (structure,))
        return blossom

    def overtake(self, u: int, v: int, k: int) -> str:
        """Re-root the matched arc (v, mate(v)) under the working node at
        label k, moving its whole subtree when it already sits in a tree.

        Requires: (u, v) unmatched with its tail at a working node, v
        resolving to an unvisited vertex or an inner node that is not an
        ancestor of the tail's node, and k strictly below the arc's label.
        Returns the handled case: "1" (arc was unvisited), "2.1" (same
        structure), or "2.2" (subtree stolen from another structure).
        """
        bu = self.root_of[u]
        structure = bu.structure
        assert structure is not None and structure.working is bu
        bv = self.root_of[v]
        assert bv is not bu
        t = self.mate[v]
        assert t is not None and self.mate[u] != v
        assert 0 < k < self.labels.by_tail[v]

        if bv.structure is None:
            bt = self.root_of[t]
            assert bt.structure is None and bv.trivial and bt.trivial
            bv.structure = structure
            bv.parent = bu
            bv.parent_arc = (u, v)
            bv.outer = False
            bv.kids = [bt]
            bt.structure = structure
            bt.parent = bv
            bt.parent_arc = (v, t)
            bt.outer = True
            bt.kids = []
            bu.kids.append(bv)
            structure.verts.add(v)
            structure.verts.add(t)
            old = self.labels.by_tail[v]
            self.labels.set((v, t), k)
            structure.working = bt
            structure.modified = True
            case = "1"
            touched: tuple = (structure,)
        else:
            assert not bv.outer and bv.trivial
            victim = bv.structure
            old_parent = bv.parent
            assert old_parent is not None and len(bv.kids) == 1
            bt = bv.kids[0]
            if victim is structure:
                assert not is_ancestor(bv, bu)
                old_parent.kids.remove(bv)
                bv.parent = bu
                bv.parent_arc = (u, v)
                bu.kids.append(bv)
                old = self.labels.by_tail[v]
                self.labels.set((v, t), k)
                structure.working = bt
                structure.modified = True
                case = "2.1"
                touched = (structure,)
            else:
                moved: list[Blossom] = []
                stack = [bv]
                while stack:
                    node = stack.pop()
                    moved.append(node)
                    stack.extend(node.kids)
                old_parent.kids.remove(bv)
                bv.parent = bu
                bv.parent_arc = (u, v)
                bu.kids.append(bv)
                moved_ids = {id(node) for node in moved}
                for node in moved:
                    node.structure = structure
                    structure.verts.update(node.vertices)
                    victim.verts.difference_update(node.vertices)
                old = self.labels.by_tail[v]
                self.labels.set((v, t), k)
                if victim.working is not None and id(victim.working) in moved_ids:
                    structure.working = victim.working
                    victim.working = old_parent
                else:
                    structure.working = bt
                structure.modified = True
                victim.modified = True
                case = "2.2"
                touched = (structure, victim)
        self.mutations += 1
        if self.trace is not None:
            self.trace({"bundle": self.bundle, "op": "overtake",
                        "structure": structure.alpha, "arc": [v, t],
                        "label_old": old, "label_new": k, "case": case})
        if self.on_op is not None:
            self.on_op("overtake", touched)
        return case

    def record_augmentation(self, u: int, v: int) -> list[int]:
        """Bank the augmenting path closed by the unmatched arc (u, v)
        between outer nodes of two different structures, then remove both
        structures so later paths stay vertex-disjoint."""
        bu, bv = self.root_of[u], self.root_of[v]
        side_u = bu.structure
        side_v = bv.structure
        assert side_u is not None and side_v is not None and side_u is not side_v
        assert bu.outer and bv.outer and self.mate[u] != v

        nodes_u: list[Blossom] = []
        cursor: Optional[Blossom] = bu
        while cursor is not None:
            nodes_u.append(cursor)
            cursor = cursor.parent
        nodes_u.reverse()
        nodes_v: list[Blossom] = []
        cursor = bv
        while cursor is not None:
            nodes_v.append(cursor)
            cursor = cursor.parent

        nodes = nodes_u + nodes_v
        arcs: list[Arc] = []
        for node in nodes_u[1:]:
            assert node.parent_arc is not None
            arcs.append(node.parent_arc)
        arcs.append((u, v))
        for node in nodes_v[:-1]:
            arc = node.parent_arc
            assert arc is not None
            arcs.append((arc[1], arc[0]))

        path = lift_contracted_path(nodes, arcs, self.mate)
        assert path[0] == side_u.alpha and path[-1] == side_v.alpha
        self.paths.append(path)
        if self.trace is not None:
            self.trace({"bundle": self.bundle, "op": "augment",
                        "structure": side_u.alpha, "arc": [u, v],
                        "label_old": None, "label_new": None, "case": None})
        self.remove_structures(side_u, side_v)
        return path

    def backtrack(self, structure: Structure) -> None:
        """Retreat the working node two tree levels, or deactivate at root."""
        node = structure.working
        assert node is not None
        if node.parent is None:
            structure.working = None
            case = "deactivate"
        else:
            grand = node.parent.parent
            assert grand is not None and grand.outer
            structure.working = grand
            case = "step"
        self.mutations += 1
        if self.trace is not None:
            self.trace({"bundle": self.bundle, "op": "backtrack",
                        "structure": structure.alpha, "arc": None,
                        "label_old": None, "label_new": None, "case": case})

    # -- bookkeeping ----------------------------------------------------------

    def structure_arc_count(self, structure: Structure) -> int:
        """Arcs stored by a structure: tree-realizing arcs plus the cycle
        arcs of every composite blossom in its family."""
        nodes = list(structure.tree_nodes())
        count = len(nodes) - 1
        stack = [node for node in nodes if not node.trivial]
        while stack:
            blossom = stack.pop()
            assert blossom.cycle is not None and blossom.subs is not None
            count += len(blossom.cycle)
            stack.extend(sub for sub in blossom.subs if not sub.trivial)
        return count
