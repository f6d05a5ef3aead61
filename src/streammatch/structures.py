"""Blossoms, per-free-vertex search structures, and their mutation operations.

Each free vertex owns a structure: a subgraph whose contraction by its
blossom family is an alternating tree rooted at the free vertex.  A
:class:`Node` of the tree is a root blossom, a :class:`Blossom` the fixed
record of a contracted one, and a single vertex its own int.  Inner nodes
(odd depth) are single vertices, outer nodes (even depth) may be
contracted blossoms.  Every non-root node records the tail of the unique
arc realizing the tree edge to its parent (its head is the node's base),
so contracted paths can be lifted back to the graph, from records alone.

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

The operations share two tree walks: ``subtree`` (a node and everything
below it) and ``root_path`` (the nodes from the root down to a node).
``contract`` takes its cycle from the root paths of its arc's ends, and
``record_augmentation`` its path.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

Arc = tuple[int, int]
Sub = Union[int, "Blossom"]  # a single vertex, or a composite's record
Piece = tuple[Sub, int, bool]  # (blossom, target, backward); see _pieces


class Blossom:
    """The fixed record of a contracted odd cycle of blossoms.

    ``subs`` is the odd-length list of its sub-blossoms, each an int for a
    single vertex or a record, and ``cycle`` the connecting arcs, where
    ``cycle[i]`` runs from ``subs[i]`` to ``subs[(i+1) % len]`` and the
    odd-indexed arcs are matched.  ``base`` is the unique vertex left
    unmatched by the blossom's own edge set.  ``arcs`` counts the cycle
    arcs of the blossom and of every blossom nested in it.  Its
    ``vertices`` are the first ``count`` entries of ``members``, its tree
    node's vertex list, which only grows.  It never changes once built.
    """

    __slots__ = ("base", "subs", "cycle", "arcs", "count", "members")

    def __init__(self, base: int, subs: list[Sub], cycle: list[Arc], members: list[int]):
        self.base = base
        self.subs = subs
        self.cycle = cycle
        self.members = members
        self.count = len(members)
        self.arcs = len(cycle) + sum(sub.arcs for sub in subs if type(sub) is not int)

    @property
    def vertices(self) -> list[int]:
        """``members`` itself while it holds just the blossom's vertices."""
        members = self.members
        return members if len(members) == self.count else members[:self.count]

    def holds(self, x: int) -> bool:
        """Whether ``x`` is a vertex of the blossom, sought in place."""
        try:
            return self.members.index(x, 0, self.count) >= 0
        except ValueError:
            return False

    def __repr__(self) -> str:
        return f"B{sorted(self.vertices)}"


def base_of(sub: Sub) -> int:
    """The base of a sub-blossom: a single vertex is its own."""
    return sub if type(sub) is int else sub.base


class Node:
    """A tree node: a root blossom, with its record ``blossom`` (None while
    the node is the single vertex ``base``).  The arc (``parent_tail``,
    ``base``) realizes the tree edge to ``parent``; ``kid`` is the first
    kid, ``sibling`` the parent's next one, ``outer`` marks even depth, and
    ``structure`` is None once the node's structure is removed.  A
    contraction takes over its largest sub's node: it gets the new record
    and base and appends the other subs' vertices to its list."""

    __slots__ = ("base", "blossom", "structure", "parent", "parent_tail",
                 "kid", "sibling", "outer")

    def __init__(self, base: int):
        self.base = base
        self.blossom: Optional[Blossom] = None
        self.structure: Optional[Structure] = None
        self.parent: Optional[Node] = None
        self.parent_tail: Optional[int] = None
        self.kid: Optional[Node] = None
        self.sibling: Optional[Node] = None
        self.outer = False

    @property
    def vertices(self) -> list[int]:
        """The node's vertices: its record's ``members`` if it has one."""
        return [self.base] if self.blossom is None else self.blossom.members

    def __repr__(self) -> str:
        return f"B({self.base})" if self.blossom is None else repr(self.blossom)


def _size(node: Node) -> int:
    """How many vertices ``node`` holds."""
    return 1 if node.blossom is None else node.blossom.count


class Structure:
    """Search structure of one free vertex: tree, working node, marks, and
    ``size``, the number of vertices its tree nodes hold."""

    __slots__ = ("alpha", "root", "working", "on_hold", "modified", "size")

    def __init__(self, alpha: int, root: Node):
        self.alpha = alpha
        self.root = root
        self.working: Optional[Node] = root
        self.on_hold = False
        self.modified = False
        self.size = _size(root)


def subtree(node: Node) -> Iterator[Node]:
    """``node`` and every tree node below it, depth first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        kid = node.kid
        while kid is not None:
            stack.append(kid)
            kid = kid.sibling


def _unlink(parent: Node, kid: Node) -> None:
    """Take ``kid`` out of ``parent``'s kid links."""
    if parent.kid is kid:
        parent.kid = kid.sibling
        return
    prev = parent.kid
    while prev.sibling is not kid:
        prev = prev.sibling
    prev.sibling = kid.sibling


def root_path(node: Node) -> list[Node]:
    """The tree nodes from the root down to ``node``."""
    nodes = [node]
    while node.parent is not None:
        node = node.parent
        nodes.append(node)
    return nodes[::-1]


def lift_contracted_path(nodes: list[Node], arcs: list[Arc]) -> list[int]:
    """Expand a path over tree nodes into a vertex path of the graph.

    ``arcs[i]`` runs from ``nodes[i]`` to ``nodes[i+1]``, and the arcs at
    odd positions are matched, as on a tree path read from its root or on
    an augmenting path between two roots.
    """
    subs = [node.base if node.blossom is None else node.blossom for node in nodes]
    return _expand(_pieces(subs, arcs, nodes[-1].base))


def _pieces(blossoms: list[Sub], arcs: list[Arc], end: int) -> list[Piece]:
    """The walk through ``blossoms`` along ``arcs``, whose odd positions
    are matched, as pieces ``(blossom, target, backward)``: the even path
    of ``blossom`` from its base to ``target``, read backward if
    ``backward``.  One at an even position is entered at its base and left
    where its next arc starts, or at ``end`` if it is the last; one at an
    odd position is entered where its arc ends and left through its base."""
    last = len(blossoms) - 1
    assert len(arcs) == last
    pieces = []
    for i, blossom in enumerate(blossoms):
        if i % 2:
            assert i == last or arcs[i][0] == base_of(blossom)
            pieces.append((blossom, arcs[i - 1][1], True))
        else:
            assert i == 0 or arcs[i - 1][1] == base_of(blossom)
            pieces.append((blossom, arcs[i][0] if i < last else end, False))
    return pieces


def _expand(pieces: list[Piece]) -> list[int]:
    """The vertices of ``pieces`` in order.  A composite blossom's piece is
    the walk around its cycle from its first sub to the sub holding the
    target, in the direction with an even number of arcs; a backward piece
    expands into those sub-pieces reversed.  Pieces expand from an explicit
    stack, so nesting depth costs no recursion."""
    out: list[int] = []
    stack = pieces[::-1]
    while stack:
        blossom, target, backward = stack.pop()
        if type(blossom) is int:
            if target != blossom:
                raise ValueError(f"vertex {target} not in B({blossom})")
            out.append(target)
            continue
        subs, cycle = blossom.subs, blossom.cycle
        j = next((i for i, sub in enumerate(subs)
                  if (sub == target if type(sub) is int else sub.holds(target))), None)
        if j is None:
            raise ValueError(f"vertex {target} not in {blossom!r}")
        if j % 2 == 0:
            route, arcs = subs[:j + 1], cycle[:j]
        else:
            route = [subs[0]] + subs[j:][::-1]
            arcs = [(b, a) for a, b in cycle[j:][::-1]]
        inner = _pieces(route, arcs, target)
        if backward:
            stack.extend((sub, t, not back) for sub, t, back in inner)
        else:
            stack.extend(reversed(inner))
    return out


class Forest:
    """All structures of one phase plus vertex-to-tree-node resolution.

    The blossom family is laminar: the single vertices the search has
    reached, plus every contracted composite.  A vertex gets its own node
    when it joins a structure, as a free root or in a matched pair by an
    overtake; ``root_of[v]`` is None until then and kept eagerly up to
    date after, so resolution is a single array read.  A vertex whose node
    has no ``structure`` was removed with its structure for the rest of the
    phase.

    ``labels[v]`` is the label of the matched arc with tail ``v``, the arc
    (v, mate(v)).  Every entry starts at l_max + 1, and only
    :meth:`relabel` changes one, so an unmatched tail keeps it.

    Every operation reports itself once, through :meth:`record`, which
    counts the operation in ``stats``, writes the trace event, which a
    traced forest also keeps in ``events``, and hands the ``on_op`` hook
    the structures the operation changed, with its arc and case.

    ``dirty`` lists the vertices that became outer since the engine last
    cleared it, from three sources: a new structure's free vertex, the
    inner vertices a contraction absorbs, and the new outer vertex of an
    overtake of an unvisited arc.  A vertex stays outer once it is, and at
    a bundle boundary no edge joins two outer nodes, so only an edge with
    an end in ``dirty`` can have come to join outer nodes of two
    structures since the last boundary, a subtree stolen in case 2.2
    included.
    """

    def __init__(self, n: int, mate: list[Optional[int]], l_max: int,
                 trace: Optional[Callable[[dict], None]] = None):
        self.n = n
        self.mate = mate
        self.labels = [l_max + 1] * n
        self.trace = trace
        # A traced phase logs its events, to write them again if it resumes.
        self.events: Optional[list[dict]] = None if trace is None else []
        self.on_op: Optional[Callable[[str, tuple, Optional[list[int]], Optional[str]],
                                      None]] = None
        self.bundle = 0
        self.root_of: list[Optional[Node]] = [None] * n
        self.structures: dict[int, Structure] = {}
        self.dirty: list[int] = []
        self.paths: list[list[int]] = []
        self.stats = {"overtakes": 0, "contracts": 0, "augments": 0,
                      "backtracks": 0, "holds": 0, "label_reductions": 0}

    # -- structure lifecycle --------------------------------------------------

    def init_structure(self, alpha: int) -> Structure:
        assert self.mate[alpha] is None and self.root_of[alpha] is None
        node = self.root_of[alpha] = Node(alpha)
        structure = Structure(alpha, node)
        node.structure = structure
        node.outer = True
        self.structures[alpha] = structure
        self.dirty.append(alpha)
        return structure

    def remove_structures(self, first: Structure, second: Structure) -> None:
        """Take both structures out of the phase: their tree nodes lose
        their structure, which marks their vertices removed, and the
        structures die, losing their working node."""
        assert first is not second
        for structure in (first, second):
            for node in subtree(structure.root):
                node.structure = None
            structure.working = None
            del self.structures[structure.alpha]

    def record(self, op: str, structure: Structure, arc: Optional[list[int]] = None,
               label_old: Optional[int] = None, label_new: Optional[int] = None,
               case: Optional[str] = None, touched: tuple = ()) -> None:
        """Report one operation of kind ``op`` (``contract``, ``overtake``,
        ``augment``, ``backtrack`` or ``hold``) on ``structure``; ``touched``
        names the structures it changed, ``structure`` alone by default,
        for ``on_op``."""
        self.stats[op + "s"] += 1
        if self.trace is not None:
            event = {"bundle": self.bundle, "op": op, "structure": structure.alpha,
                     "arc": arc, "label_old": label_old, "label_new": label_new,
                     "case": case}
            self.events.append(event)
            self.trace(event)
        if self.on_op is not None:
            self.on_op(op, touched or (structure,), arc, case)

    def relabel(self, u: int, v: int, value: int) -> None:
        """Set the label of the matched arc (u, v) to ``value``, counting
        the write in ``stats`` when it lowers the label."""
        if self.mate[u] != v:
            raise KeyError(f"arc ({u}, {v}) is not matched")
        if value < self.labels[u]:
            self.stats["label_reductions"] += 1
        self.labels[u] = value

    # -- operations -----------------------------------------------------------

    def contract(self, u: int, v: int) -> Blossom:
        """Contract the unique blossom closed by the unmatched arc (u, v),
        and return its record.

        Both endpoints resolve to distinct outer nodes of one structure and
        the tail side is its working node.  The tree path between them plus
        the arc forms an odd alternating cycle; the resulting blossom
        replaces the path nodes, becomes the new working node, and all
        matched arcs inside it get label 0 in both directions.  Those
        inside its subs already have it, so only the matched cycle arcs
        are relabelled.

        The node of the largest sub becomes the new blossom's node: it
        keeps its vertices, their ``root_of`` entries and its off-cycle
        kids, and only the other subs' vertices and such kids move to it.  A
        vertex moves only into a node at least twice the size of its old
        one, so it moves O(log n) times in a phase.  When every sub is a
        single vertex that node is the LCA's, the first on the cycle.
        Nothing live refers to the other subs' nodes afterwards.
        """
        root_of = self.root_of
        bu, bv = root_of[u], root_of[v]
        structure = bu.structure
        assert structure is not None and bv.structure is structure
        assert bu is not bv and bu.outer and bv.outer
        assert structure.working is bu
        assert self.mate[u] != v

        # The LCA is the last node the root paths of bv and bu share.
        # Matched tree arcs' labels rise strictly within 1..l_max down a
        # root path, so a tree is at most 2 l_max deep and both are short.
        down, up = root_path(bv), root_path(bu)
        k = 0
        while k + 1 < min(len(down), len(up)) and down[k + 1] is up[k + 1]:
            k += 1
        lca = down[k]
        # The cycle runs from the LCA down to bv, across (v, u) and back up
        # from bu to the LCA.
        subs = down[k:] + up[:k:-1]
        cycle = [(sub.parent_tail, sub.base) for sub in down[k + 1:]] + [(v, u)]
        cycle += [(sub.base, sub.parent_tail) for sub in up[:k:-1]]
        records = [sub.base if sub.blossom is None else sub.blossom for sub in subs]
        node = max(subs, key=_size)
        parent, tail = lca.parent, lca.parent_tail
        on_path = set(subs)
        vertices = node.vertices
        kids = None  # every sub's kids off the cycle, the node's own included
        for sub in subs:
            kid = sub.kid
            while kid is not None:
                after = kid.sibling
                if kid not in on_path:
                    kid.parent, kid.sibling, kids = node, kids, kid
                kid = after
            if sub is node:
                continue
            sub.parent = None  # so absorbed nodes form no reference cycle
            moved = sub.vertices
            if not sub.outer:
                self.dirty.extend(moved)
            for x in moved:
                root_of[x] = node
            vertices.extend(moved)
        node.kid = kids
        if node is not lca:
            node.parent, node.parent_tail = parent, tail
            if parent is not None:
                _unlink(parent, lca)
                node.sibling, parent.kid = parent.kid, node
            else:
                node.sibling = None
                structure.root = node
        blossom = node.blossom = Blossom(lca.base, records, cycle, vertices)
        node.base = lca.base
        for x, y in cycle[1::2]:
            self.relabel(x, y, 0)
            self.relabel(y, x, 0)
        structure.working = node
        structure.modified = True
        self.record("contract", structure, [u, v], case="blossom")
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
        t = self.mate[v]
        assert t is not None and self.mate[u] != v
        assert 0 < k < self.labels[v]

        # Each case moves the nodes that change structure, counts their
        # vertices and picks the working node; ``owner`` is the one bv leaves.
        if bv is None:
            # Case 1: the unvisited pair v = t joins as an inner node and
            # its outer kid, each getting its own node.
            assert self.root_of[t] is None
            bv = self.root_of[v] = Node(v)
            bt = self.root_of[t] = Node(t)
            bv.kid = bt
            bt.parent, bt.parent_tail = bv, v
            bt.outer = True
            bv.structure = bt.structure = structure
            self.dirty.append(t)
            owner, case, moved_size, working = None, "1", 2, bt
        else:
            owner = bv.structure
            assert owner is not None and bv is not bu
            assert not bv.outer and bv.blossom is None and bv.kid.sibling is None
            old_parent = bv.parent
            assert old_parent is not None
            working = bv.kid
            if owner is structure:
                # Case 2.1: the subtree moves within its own tree.
                assert bv not in root_path(bu)
                case, moved_size = "2.1", 0
            else:
                # Case 2.2: the subtree is stolen, and with it the owner's
                # working node if that lies inside; the owner then resumes
                # at the node the subtree was cut from.
                case, moved = "2.2", list(subtree(bv))
                if owner.working in moved:
                    working, owner.working = owner.working, old_parent
                for node in moved:
                    node.structure = structure
                moved_size = sum(map(_size, moved))
            _unlink(old_parent, bv)
            owner.modified = True

        bv.parent, bv.parent_tail = bu, u
        bv.sibling, bu.kid = bu.kid, bv
        structure.size += moved_size
        if owner is not None:
            owner.size -= moved_size
        old = self.labels[v]
        self.relabel(v, t, k)
        structure.working = working
        structure.modified = True
        touched = () if owner in (None, structure) else (structure, owner)
        self.record("overtake", structure, [v, t], old, k, case, touched)
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

        down, up = root_path(bu), root_path(bv)[::-1]
        arcs = [(node.parent_tail, node.base) for node in down[1:]] + [(u, v)]
        arcs += [(node.base, node.parent_tail) for node in up[:-1]]
        path = lift_contracted_path(down + up, arcs)
        assert path[0] == side_u.alpha and path[-1] == side_v.alpha
        self.paths.append(path)
        self.record("augment", side_u, [u, v], touched=(side_u, side_v))
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
        self.record("backtrack", structure, case=case)
