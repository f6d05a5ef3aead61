"""Blossom contraction, even alternating paths, lifting, overtake cases."""

import pytest

from helpers import boundary_violations, matched, stored_arcs
from streammatch.invariants import check_blossom
from streammatch.structures import (Forest, _expand, lift_contracted_path,
                                    root_path, subtree)

L_MAX = 6  # eps = 1/2


def make_forest(n, matched_pairs):
    matching = matched(n, matched_pairs)
    forest = Forest(n, matching.mate, L_MAX)
    return forest, matching


def assert_alternating(path, mate, start_matched):
    for i in range(len(path) - 1):
        matched = mate[path[i]] == path[i + 1]
        assert matched == (start_matched if i % 2 == 0 else not start_matched), \
            f"alternation breaks at step {i} of {path}"


def assert_clean(forest, limit=100, delta=10_000):
    violations = boundary_violations(forest, limit, L_MAX, delta)
    assert not violations, violations


def members(structure):
    return {x for node in subtree(structure.root) for x in node.vertices}


def kids(node):
    """``node``'s kids, read along its first-kid and next-sibling links."""
    out, kid = [], node.kid
    while kid is not None:
        out.append(kid)
        kid = kid.sibling
    return out


def even_path_vertices(blossom, x):
    """The even alternating path inside ``blossom`` from its base to ``x``:
    first edge unmatched, last matched, no edge when ``x`` is the base."""
    return _expand([(blossom, x, False)])


def test_resolve_before_contraction_is_trivial():
    forest, _ = make_forest(3, [(1, 2)])
    assert forest.root_of == [None, None, None]
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    for v in range(3):
        node = forest.root_of[v]
        assert node.blossom is None and node.base == v and node.vertices == [v]
        assert node.structure is forest.structures[0]


def build_triangle_blossom():
    # Free vertex 0, matched edge (1, 2), edges 0-1, 1-2, 2-0.
    forest, matching = make_forest(3, [(1, 2)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    blossom = forest.contract(2, 0)
    return forest, matching, blossom


def test_contract_triangle():
    forest, _ = make_forest(3, [(1, 2)])
    structure = forest.init_structure(0)
    lca = structure.root
    forest.overtake(0, 1, 1)
    blossom = forest.contract(2, 0)
    assert sorted(blossom.vertices) == [0, 1, 2]
    assert blossom.base == 0
    # Every sub is a single vertex, so the LCA's node, first on the cycle,
    # becomes the blossom's node, and each sub is its vertex's int.
    node = structure.working
    assert node is lca and node.blossom is blossom and node.base == 0
    assert structure.root is node
    assert blossom.subs == [0, 2, 1]
    for v in range(3):
        assert forest.root_of[v] is node
    assert forest.labels[1] == forest.labels[2] == 0
    assert_clean(forest)


def test_a_record_is_unchanged_when_a_later_contraction_takes_over_its_node():
    # The triangle {0, 1, 2} hangs the pair 3 = 4 off its base; closing the
    # pentagon 0 .. 4 takes over the triangle's node, the largest sub.
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    structure = forest.init_structure(0)
    forest.overtake(0, 1, 1)
    triangle = forest.contract(2, 0)
    node = structure.working
    fields = (triangle.base, list(triangle.subs), list(triangle.cycle),
              triangle.count, list(triangle.vertices))
    forest.overtake(0, 3, 1)
    pentagon = forest.contract(4, 0)
    assert structure.working is node and node.blossom is pentagon
    assert pentagon.subs[0] is triangle and node.vertices == [0, 2, 1, 4, 3]
    assert (triangle.base, triangle.subs, triangle.cycle, triangle.count,
            triangle.vertices) == fields
    assert check_blossom(forest, triangle, 0) == []
    assert_clean(forest)


def test_contract_marks_modified_and_keeps_outer():
    forest, _, blossom = build_triangle_blossom()
    assert forest.structures[0].modified
    assert forest.root_of[0].blossom is blossom and forest.root_of[0].outer


def test_contract_cycle5():
    # Free vertex 0 absorbs the whole 5-cycle, then closes it.
    forest, matching = make_forest(5, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    blossom = forest.contract(4, 0)
    assert sorted(blossom.vertices) == [0, 1, 2, 3, 4]
    assert blossom.base == 0
    for v in range(1, 5):
        assert forest.labels[v] == 0
    assert_clean(forest)


def test_even_path_trivial_blossom():
    # A single vertex is its own blossom: an int.
    assert even_path_vertices(0, 0) == [0]
    with pytest.raises(ValueError):
        even_path_vertices(0, 1)


def test_even_path_triangle():
    forest, matching, blossom = build_triangle_blossom()
    # Spec'd shape: base 0 to 2 walks the unmatched {0,1} then matched {1,2}.
    assert even_path_vertices(blossom, 2) == [0, 1, 2]
    assert even_path_vertices(blossom, 1) == [0, 2, 1]
    assert even_path_vertices(blossom, 0) == [0]
    for x in (1, 2):
        path = even_path_vertices(blossom, x)
        assert len(path) % 2 == 1  # even edge count
        assert_alternating(path, matching.mate, start_matched=False)


def test_even_path_cycle5_all_targets():
    forest, matching = make_forest(5, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    blossom = forest.contract(4, 0)
    for x in range(5):
        path = even_path_vertices(blossom, x)
        assert path[0] == 0 and path[-1] == x
        assert len(path) % 2 == 1
        assert len(set(path)) == len(path)
        assert_alternating(path, matching.mate, start_matched=False)
        edge_set = {frozenset(e) for e in
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]}
        for i in range(len(path) - 1):
            assert frozenset((path[i], path[i + 1])) in edge_set


def build_nested_blossom():
    # Inner triangle {2,3,4} contracted first, then the 7-vertex cycle
    # through it; exercises nesting in the even-path expansion.
    forest, matching = make_forest(7, [(1, 2), (3, 4), (5, 6)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    inner = forest.contract(4, 2)
    forest.overtake(4, 5, 1)
    outer = forest.contract(6, 0)
    return forest, matching, inner, outer


def test_nested_contraction_resolves_to_outermost():
    forest, _, inner, outer = build_nested_blossom()
    assert sorted(inner.vertices) == [2, 3, 4]
    assert sorted(outer.vertices) == list(range(7))
    node = forest.root_of[0]
    assert node.blossom is outer
    for v in range(7):
        assert forest.root_of[v] is node
    assert inner in outer.subs
    # The inner blossom, the largest sub, lent its node to the outer one:
    # the node's list grew, and the inner record still reads its prefix.
    assert inner.members is node.vertices is outer.members and inner.count == 3
    assert node.vertices[:3] == inner.vertices and outer.count == 7
    assert_clean(forest)


def test_even_path_nested_all_targets():
    forest, matching, _, outer = build_nested_blossom()
    for x in range(7):
        path = even_path_vertices(outer, x)
        assert path[0] == 0 and path[-1] == x
        assert len(path) % 2 == 1
        assert len(set(path)) == len(path)
        assert_alternating(path, matching.mate, start_matched=False)


def test_even_path_and_lift_through_1500_nested_blossoms():
    # Each level hangs the matched pair (2i-1, 2i) off vertex 2i-2 of the
    # current blossom and closes the triangle through 0, so blossom i has
    # blossom i-1 as its stem and the even path to 2i runs through every
    # level: 0, 1, 2, ..., 2i.  Far deeper than Python's recursion limit.
    depth = 1500
    n = 2 * depth + 1
    forest, matching = make_forest(n, [(2 * i - 1, 2 * i) for i in range(1, depth + 1)])
    structure = forest.init_structure(0)
    for i in range(1, depth):
        forest.overtake(2 * i - 2, 2 * i - 1, 1)
        forest.contract(2 * i, 0)
    # One level short of the top: lift the tree path root .. 2*depth.
    forest.overtake(n - 3, n - 2, 1)
    stem = structure.root
    nodes = [stem, forest.root_of[n - 2], forest.root_of[n - 1]]
    lifted = lift_contracted_path(nodes, [(n - 3, n - 2), (n - 2, n - 1)])
    assert lifted == list(range(n))
    assert_alternating(lifted, forest.mate, start_matched=False)

    stem_blossom = stem.blossom
    top = forest.contract(n - 1, 0)
    assert top.subs[0] is stem_blossom and structure.size == n == len(top.vertices)
    assert structure.root is stem and stem.blossom is top
    for x in (0, 1, 2, 3, 1499, 1500, n - 2, n - 1):
        path = even_path_vertices(top, x)
        assert path[0] == 0 and path[-1] == x
        assert len(path) % 2 == 1 and len(set(path)) == len(path)
        assert_alternating(path, forest.mate, start_matched=False)
    assert even_path_vertices(top, n - 1) == list(range(n))
    assert even_path_vertices(top, n - 2) == [0, n - 1, n - 2]
    assert lift_contracted_path([stem], []) == [0]
    with pytest.raises(ValueError):
        even_path_vertices(top, n)


class CountingList(list):
    """A list that counts the writes to its entries."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def test_contract_moves_only_the_smaller_subs_through_1500_nested_blossoms():
    # The chain above: each contraction absorbs the previous blossom, whose
    # node survives, plus one matched pair, whose two vertices alone get
    # new ``root_of`` entries.  Rewriting every vertex of each new blossom
    # would take about depth ** 2 = 2.25 M writes.
    depth = 1500
    n = 2 * depth + 1
    forest, _ = make_forest(n, [(2 * i - 1, 2 * i) for i in range(1, depth + 1)])
    structure = forest.init_structure(0)
    root_of = forest.root_of = CountingList(forest.root_of)
    writes = []
    for i in range(1, depth + 1):
        forest.overtake(2 * i - 2, 2 * i - 1, 1)
        before = root_of.writes
        forest.contract(2 * i, 0)
        writes.append(root_of.writes - before)
    assert writes[0] == 2 and max(writes[1:]) == 2
    node = structure.root
    assert all(root_of[x] is node for x in range(n)) and len(node.vertices) == n


def test_lift_trivial_nodes_is_identity():
    forest, _ = make_forest(4, [(1, 2)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.init_structure(3)
    nodes = [forest.root_of[0], forest.root_of[1], forest.root_of[2],
             forest.root_of[3]]
    arcs = [(0, 1), (1, 2), (2, 3)]
    assert lift_contracted_path(nodes, arcs) == [0, 1, 2, 3]


def test_lift_through_contracted_triangle_six_vertices():
    # 0 - 1 = 2 - 3 = 4 - 5 with the blossom {2,3,4}; the lifted path has
    # five edges, two more than the contracted one.
    forest, matching = make_forest(6, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.init_structure(5)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    blossom = forest.contract(4, 2)
    path = forest.record_augmentation(4, 5)
    assert path == [0, 1, 2, 3, 4, 5]
    assert len(path) - 1 == 5
    assert sorted(blossom.vertices) == [2, 3, 4]


@pytest.mark.parametrize("tail, path", [(4, [5, 4, 3, 2, 1, 0]),
                                        (3, [5, 3, 4, 2, 1, 0])])
def test_lift_through_composite_odd_node_entered_off_its_base(tail, path):
    # The fixture above with the edge 3-5 added, augmented from 5's side:
    # the blossom {2,3,4} is the path's odd node, entered at 4 or 3 and
    # left through its base 2, so its even path is read backward.
    forest, matching = make_forest(6, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.init_structure(5)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.contract(4, 2)
    assert forest.record_augmentation(5, tail) == path
    assert_alternating(path, matching.mate, start_matched=False)


def test_record_augmentation_removes_both_structures():
    forest, matching = make_forest(4, [(1, 2)])
    forest.init_structure(0)
    forest.init_structure(3)
    forest.overtake(0, 1, 1)
    path = forest.record_augmentation(2, 3)
    assert path == [0, 1, 2, 3]
    assert forest.structures == {}
    assert all(forest.root_of[v].structure is None for v in range(4))
    assert forest.paths == [[0, 1, 2, 3]]


def test_overtake_case1_adds_pair():
    forest, _ = make_forest(4, [(1, 2)])
    forest.init_structure(0)
    case = forest.overtake(0, 1, 1)
    assert case == "1"
    structure = forest.structures[0]
    assert members(structure) == {0, 1, 2} and structure.size == 3
    assert structure.working is forest.root_of[2]
    assert forest.labels[1] == 1
    assert forest.root_of[1].structure is structure and not forest.root_of[1].outer
    assert forest.root_of[2].structure is structure and forest.root_of[2].outer
    assert_clean(forest)


def test_overtake_case21_reparents_within_structure():
    # One structure, two branches; the working tip of the short branch
    # steals the deep branch's tail pair at a smaller label.
    forest, matching = make_forest(9, [(1, 2), (3, 4), (5, 6), (7, 8)])
    forest.init_structure(0)
    forest.overtake(0, 3, 1)
    forest.overtake(4, 5, 2)
    forest.overtake(6, 7, 3)
    structure = forest.structures[0]
    forest.backtrack(structure)   # {8} -> {6}
    forest.backtrack(structure)   # {6} -> {4}
    forest.backtrack(structure)   # {4} -> {0}
    forest.overtake(0, 1, 1)
    assert structure.working is forest.root_of[2]
    node7 = forest.root_of[7]
    old_parent = node7.parent
    case = forest.overtake(2, 7, 2)
    assert case == "2.1"
    assert node7.parent is forest.root_of[2]
    assert (node7.parent_tail, node7.base) == (2, 7)
    assert node7 not in kids(old_parent) and kids(node7.parent) == [node7]
    assert forest.labels[7] == 2
    assert structure.working is forest.root_of[8]
    assert_clean(forest)


def build_two_structures_for_steal():
    # S_7 grows a depth-2 branch; S_0 then reaches its inner vertex 4
    # by a shorter alternating path.
    forest, matching = make_forest(8, [(6, 5), (4, 3)])
    forest.init_structure(7)
    forest.init_structure(0)
    forest.overtake(7, 6, 1)
    forest.overtake(5, 4, 2)
    return forest, matching


def test_overtake_case22_moves_subtree_with_working_handoff():
    forest, _ = build_two_structures_for_steal()
    s0, s7 = forest.structures[0], forest.structures[7]
    assert members(s7) == {3, 4, 5, 6, 7} and s7.size == 5
    assert s7.working is forest.root_of[3]
    case = forest.overtake(0, 4, 1)
    assert case == "2.2"
    # S_7 loses exactly the subtree of the inner node {4}.
    assert members(s7) == {5, 6, 7} and s7.size == 3
    assert members(s0) == {0, 3, 4} and s0.size == 3
    assert s0.working is forest.root_of[3]      # stolen working node
    assert s7.working is forest.root_of[5]      # retreats to the cut parent
    assert forest.root_of[4].parent is forest.root_of[0]
    assert forest.root_of[4].parent_tail == 0
    assert forest.labels[4] == 1
    assert s0.modified and s7.modified
    assert_clean(forest)


def test_overtake_case22_without_handoff():
    # When the victim's working node is outside the stolen subtree the
    # thief's working node becomes the stolen arc's head-side node and
    # the victim keeps its own.
    forest, _ = build_two_structures_for_steal()
    s7 = forest.structures[7]
    forest.backtrack(s7)  # {3} -> {5}
    assert s7.working is forest.root_of[5]
    case = forest.overtake(0, 4, 1)
    assert case == "2.2"
    s0 = forest.structures[0]
    assert s0.working is forest.root_of[3]
    assert s7.working is forest.root_of[5]
    assert members(s7) == {5, 6, 7} and s7.size == 3
    assert_clean(forest)


def contract_lca_is_bv():
    # 0 - 1 = 2 - 3 = 4 closed by (4, 0): the root is the LCA.
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    return forest, (4, 0)


def contract_lca_is_bu():
    # The same path, backtracked to the root, closed from the root by (0, 4).
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    structure = forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.backtrack(structure)   # {4} -> {2}
    forest.backtrack(structure)   # {2} -> {0}
    return forest, (0, 4)


def contract_lca_above_both():
    # Two branches below {2}: 2 - 3 = 4 and 2 - 5 = 6, closed by (6, 4).
    forest, _ = make_forest(7, [(1, 2), (3, 4), (5, 6)])
    structure = forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    forest.backtrack(structure)   # {4} -> {2}
    forest.overtake(2, 5, 2)
    return forest, (6, 4)


def contract_lca_is_root_at_depths_2_and_12():
    # Two branches below the root: 0 - 1 = 2, and 0 - 3 = 4 - ... = 14
    # with six pairs, closed from the deep tip by (14, 2).
    forest, _ = make_forest(15, [(x, x + 1) for x in range(1, 15, 2)])
    structure = forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.backtrack(structure)   # {2} -> {0}
    for label, x in enumerate(range(3, 15, 2), start=1):
        forest.overtake(x - 1 if x > 3 else 0, x, label)
    assert len(root_path(forest.root_of[14])) == 13
    return forest, (14, 2)


@pytest.mark.parametrize("build, subs, cycle, base", [
    (contract_lca_is_bv, [0, 4, 3, 2, 1],
     [(0, 4), (4, 3), (3, 2), (2, 1), (1, 0)], 0),
    (contract_lca_is_bu, [0, 1, 2, 3, 4],
     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 0),
    (contract_lca_above_both, [2, 3, 4, 6, 5],
     [(2, 3), (3, 4), (4, 6), (6, 5), (5, 2)], 2),
    (contract_lca_is_root_at_depths_2_and_12,
     [0, 1, 2, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3],
     [(0, 1), (1, 2), (2, 14)] + [(x, x - 1) for x in range(14, 3, -1)] + [(3, 0)], 0),
], ids=["lca-is-bv", "lca-is-bu", "lca-above-both", "lca-is-root-at-depths-2-and-12"])
def test_contract_shapes(build, subs, cycle, base):
    # The cycle runs from the LCA down to the head's node, across the arc
    # and back up from the working node.  Every sub is a single vertex, so
    # the LCA's node becomes the blossom's node and keeps its place.
    forest, (u, v) = build()
    before = list(forest.root_of)
    lca = before[base]
    parent, tail = lca.parent, lca.parent_tail
    blossom = forest.contract(u, v)
    node = forest.root_of[base]
    assert node is lca and node.blossom is blossom
    assert blossom.subs == subs
    assert blossom.cycle == cycle and blossom.base == base
    assert [x for x in range(forest.n) if forest.root_of[x] is node] == sorted(subs)
    assert all(forest.root_of[x] is before[x] for x in range(forest.n) if x not in subs)
    assert (node.parent, node.parent_tail) == (parent, tail)
    assert parent is None or kids(parent) == [node]
    # Absorbed nodes keep no parent link, so they form no reference cycle.
    assert all(before[x].parent is None for x in subs if before[x] is not node)
    assert node.structure.working is node
    assert check_blossom(forest, blossom, node.structure.alpha) == []
    assert_clean(forest)


def overtake_case_1():
    forest, _ = make_forest(4, [(1, 2)])
    forest.init_structure(0)
    forest.init_structure(3)
    return forest


def overtake_case_21():
    # The short branch's tip {2} reaches the deep branch's pair (7, 8);
    # S_9 looks on.
    forest, _ = make_forest(10, [(1, 2), (3, 4), (5, 6), (7, 8)])
    structure = forest.init_structure(0)
    forest.init_structure(9)
    forest.overtake(0, 3, 1)
    forest.overtake(4, 5, 2)
    forest.overtake(6, 7, 3)
    for _ in range(3):
        forest.backtrack(structure)
    forest.overtake(0, 1, 1)
    return forest


def overtake_case_22():
    forest, _ = build_two_structures_for_steal()
    return forest


@pytest.mark.parametrize("build, arc, case, touched, sizes", [
    (overtake_case_1, (0, 1, 1), "1", (0,), {0: 3, 3: 1}),
    (overtake_case_21, (2, 7, 2), "2.1", (0,), {0: 9, 9: 1}),
    (overtake_case_22, (0, 4, 1), "2.2", (0, 7), {0: 3, 7: 3}),
], ids=["case-1", "case-2.1", "case-2.2"])
def test_overtake_reports_touched_structures_and_sizes(build, arc, case, touched, sizes):
    forest = build()
    reports = []
    forest.on_op = lambda op, structures, arc, case: reports.append((op, structures))
    assert forest.overtake(*arc) == case
    assert reports == [("overtake", tuple(forest.structures[a] for a in touched))]
    assert {alpha: s.size for alpha, s in forest.structures.items()} == sizes
    for structure in forest.structures.values():
        assert structure.size == len(members(structure))
    assert_clean(forest)


def test_overtake_requires_label_improvement():
    forest, _ = make_forest(4, [(1, 2)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest2, _ = make_forest(4, [(1, 2)])
    forest2.init_structure(0)
    with pytest.raises(AssertionError):
        forest2.overtake(0, 1, 7)  # not below the fresh label


def test_is_ancestor_along_branch():
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    root = forest.root_of[0]
    tip = forest.root_of[4]
    assert root_path(tip) == [forest.root_of[x] for x in (0, 1, 2, 3, 4)]
    assert root in root_path(tip) and tip not in root_path(root)


def test_backtrack_steps_and_deactivates():
    forest, _ = make_forest(3, [(1, 2)])
    forest.init_structure(0)
    forest.overtake(0, 1, 1)
    structure = forest.structures[0]
    forest.backtrack(structure)
    assert structure.working is structure.root
    forest.backtrack(structure)
    assert structure.working is None
    assert structure.working is None


def test_structure_size_accounting():
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    structure = forest.init_structure(0)
    assert structure.size == 1
    forest.overtake(0, 1, 1)
    assert structure.size == 3
    forest.overtake(2, 3, 2)
    assert structure.size == 5
    forest.contract(4, 0)
    assert structure.size == 5 == len(members(structure))


def test_structure_arc_count_includes_blossom_cycles():
    forest, _ = make_forest(5, [(1, 2), (3, 4)])
    structure = forest.init_structure(0)
    assert stored_arcs(forest, structure) == 0
    forest.overtake(0, 1, 1)
    forest.overtake(2, 3, 2)
    assert stored_arcs(forest, structure) == 4    # the tree path 0 .. 4
    forest.contract(4, 0)
    assert stored_arcs(forest, structure) == 5    # one node, its 5-cycle

    forest, _, inner, outer = build_nested_blossom()
    structure = forest.structures[0]
    # Single-node tree (everything contracted): 0 tree arcs, two cycles.
    assert stored_arcs(forest, structure) == len(outer.cycle) + len(inner.cycle)
