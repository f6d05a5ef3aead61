"""Builders, the subset DP, the full-scan reference engine, the
full-replay reference driver, the full-scan boundary check and a checker
probe shared by the test modules."""

import json
from typing import Sequence

from streammatch.driver import ScaleReport, normalize_epsilon, scale_schedule
from streammatch.invariants import (InvariantChecker, Violation, adjacency, check_forest,
                                    check_structure)
from streammatch.matching import Matching, augment_along, greedy_maximal_matching
from streammatch.phase import PhaseConfig, PhaseEngine


def matched(n, pairs):
    """The matching on vertices 0..n-1 made of the given disjoint pairs."""
    matching = Matching(n)
    mate = matching.mate
    for u, v in pairs:
        assert u != v and mate[u] is None and mate[v] is None
        augment_along(matching, [u, v])
    return matching


def edge_keys(n, edges):
    """The edges on vertices 0..n-1 keyed as ``is_alternating_augmenting``
    reads them: {u, v} is ``min * n + max``."""
    return {min(u, v) * n + max(u, v) for u, v in edges}


def checker_for(stream):
    """The checker that a checked ``driver.run`` of ``stream`` builds."""
    return InvariantChecker(stream.vertex_count, stream.snapshot_edges())


EXHAUSTIVE_LIMIT = 22


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


def stored_arcs(forest, structure):
    """The arcs ``structure`` stores, read off the checker's ``space-arcs``
    check: with delta = 0 it fires on any arc, naming the count."""
    details = [v.detail for v in check_structure(forest, structure, 0, 0, 0)
               if v.name == "space-arcs"]
    return int(details[0].split()[0]) if details else 0


def boundary_violations(forest, limit, l_max, delta, edges=()):
    """``check_forest`` as a checker of ``forest``'s phase over ``edges``
    runs it, with the unmatched tails read off the mate map."""
    unmatched = [v for v, w in enumerate(forest.mate) if w is None]
    return check_forest(forest, limit, l_max, delta, unmatched,
                        adjacency(forest.n, edges))


def full_scan_boundary_violations(forest, limit, l_max, delta, edges):
    """Reference for ``check_forest``: the tree walks' structure-local
    checks, then one pass over every vertex for labels and resolution
    and one over every edge for outer independence, against a per-vertex
    table of live outer nodes.  It takes only disjointness from the
    walks' vertex table, and checks resolution and the labels inside a
    blossom in its own vertex pass."""
    bad = []

    def flag(name, detail):
        bad.append(Violation(name, None, detail))

    node_of = {}
    for structure in forest.structures.values():
        bad.extend(v for v in check_structure(forest, structure, limit, l_max, delta, node_of)
                   if v.name not in ("resolution", "blossom-arc-labels"))

    fresh = l_max + 1
    resolvers = {}
    for v, (label, mate_v, node) in enumerate(
            zip(forest.labels, forest.mate, forest.root_of)):
        home = node_of.get(v)
        if label != fresh:
            if not 0 <= label < fresh:
                flag("label-range", f"label {label} out of range at tail {v}")
            elif mate_v is None:
                flag("label-range", f"label {label} written on unmatched tail {v}")
        if home is None:
            if node is None:
                continue
            if node.structure is not None:
                flag("resolution", f"{v} is in no tree but resolves to {node!r}")
            else:
                resolvers[node] = resolvers.get(node, 0) + 1
        elif node is not home:
            flag("resolution", f"root_of[{v}] is {node!r}, not its tree node {home!r}")
        elif mate_v is not None and node_of.get(mate_v) is node and label != 0:
            flag("blossom-arc-labels",
                 f"internal matched arc ({v}, {mate_v}) has nonzero label")
    for node, count in resolvers.items():
        if (count != len(node.vertices)
                or any(forest.root_of[x] is not node for x in node.vertices)):
            flag("resolution",
                 f"removed {node!r} is not resolved to by exactly its own vertices")

    outer_at = [node if node is not None and node.structure is not None and node.outer
                else None for node in forest.root_of]
    for u, v in edges:
        bu = outer_at[u]
        if bu is not None:
            bv = outer_at[v]
            if bv is not None and bv is not bu:
                bad.append(Violation("outer-independence", bu.structure.alpha,
                                     f"edge ({u}, {v}) joins outer nodes {bu!r} and {bv!r}"))
    return bad


class FullScanEngine(PhaseEngine):
    """Reference engine: each read visits every arc of the pass, and the
    paper's rules are kept as written, the extension read's contraction
    branch included."""

    def _extend_pass(self):
        forest = self.forest
        root_of = forest.root_of
        mate = self.matching.mate
        labels = forest.labels
        for u, v in self.stream.iter_arcs_once():
            bu = root_of[u]
            bv = root_of[v]
            if bu is None or bu is bv:
                continue
            structure = bu.structure
            if structure is None or structure.working is not bu or mate[u] == v:
                continue
            if structure.modified or structure.on_hold:
                continue
            if bv is not None:
                target = bv.structure
                if target is None:
                    continue
                if bv.outer:
                    if target is structure:
                        forest.contract(u, v)
                    else:
                        forest.record_augmentation(u, v)
                    continue
            distance = 0 if bu.parent is None else labels[bu.parent_tail]
            if distance + 1 < labels[v]:
                forest.overtake(u, v, distance + 1)

    def _contract_and_augment(self):
        forest = self.forest
        root_of = forest.root_of

        buckets = {}
        for u, v in self.stream.iter_arcs_once():
            if root_of[u] is None or root_of[v] is None:
                continue
            owner = root_of[u].structure
            if owner is None or owner.working is None or root_of[v].structure is not owner:
                continue
            buckets.setdefault(owner.alpha, []).append((u, v))

        for alpha in sorted(buckets):
            structure = forest.structures[alpha]
            arcs = buckets[alpha]
            progress = True
            while progress:
                progress = False
                for u, v in arcs:
                    bu = root_of[u]
                    bv = root_of[v]
                    if bu is bv:
                        continue
                    if structure.working is bu and bv.outer:
                        forest.contract(u, v)
                        progress = True
                        break

        mate = self.matching.mate
        for u, v in self.stream.iter_arcs_once():
            bu = root_of[u]
            bv = root_of[v]
            if bu is None or bv is None or bu is bv:
                continue
            owner = bu.structure
            target = bv.structure
            if owner is None or target is None or owner is target:
                continue
            if bu.outer and bv.outer:
                assert mate[u] != v
                forest.record_augmentation(u, v)
        forest.dirty.clear()


def full_replay_run(stream, epsilon):
    """Reference driver: ``driver.run`` without its three shortcuts.  It
    runs every phase of every scale from a new engine, so no phase or
    scale is charged unread and none resumes from the phase before; a
    phase may still freeze by the phase-level rule.

    Returns the matching, the per-scale rows, the pass count and each
    phase's trace: ``traces[s][t]`` is the JSONL text of phase t + 1 of
    scale s, as ``streammatch run --trace`` writes it.
    """
    eps = normalize_epsilon(epsilon)
    matching = greedy_maximal_matching(stream)
    rows, traces = [], []
    for h in scale_schedule(eps):
        cfg = PhaseConfig.from_scale(h, eps)
        augmentations = 0
        phases = []
        for _ in range(cfg.t_max):
            events = []
            paths = PhaseEngine(stream, matching, cfg, trace=events.append).run()
            for path in paths:
                augment_along(matching, path)
            augmentations += len(paths)
            phases.append("".join(json.dumps(event) + "\n" for event in events))
        rows.append(ScaleReport(h, cfg.t_max, cfg.t_max, augmentations, matching.size))
        traces.append(phases)
    return matching, rows, stream.pass_count(), traces
