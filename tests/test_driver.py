"""Scale driver: schedule, parameter formulas, pass accounting, end-to-end runs."""

import gc
import json
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_matching_exhaustive, full_replay_run
from streammatch import driver, oracle
from streammatch.driver import (RunConfig, expected_pass_count,
                                normalize_epsilon, run, scale_schedule)
from streammatch.invariants import InvariantViolationError
from streammatch.matching import validate_matching
from streammatch.phase import PhaseConfig, PhaseEngine
from streammatch.stream import EdgeStream, GraphSpec, open_stream, parse_graph_spec
from streammatch.structures import Blossom, Forest

HALF = Fraction(1, 2)


def test_normalize_epsilon_rounds_down_to_power_of_two():
    assert normalize_epsilon(1) == Fraction(1)
    assert normalize_epsilon(0.7) == HALF
    assert normalize_epsilon(Fraction(3, 10)) == Fraction(1, 4)
    assert normalize_epsilon(HALF) == HALF
    with pytest.raises(ValueError):
        normalize_epsilon(0)
    with pytest.raises(ValueError):
        normalize_epsilon(Fraction(3, 2))


def test_scale_schedule_counts():
    assert scale_schedule(Fraction(1)) == [Fraction(1, 2 ** k) for k in range(1, 7)]
    assert len(scale_schedule(Fraction(1))) == 6
    assert len(scale_schedule(Fraction(1, 4))) == 10
    assert scale_schedule(Fraction(1, 4))[-1] == Fraction(1, 1024)


def test_expected_pass_count_single_scale_term():
    # Scale 1/2 at eps=1 contributes reads * 288 * 144 passes.
    assert 3 * 288 * 144 == 124416
    with_scale = expected_pass_count(Fraction(1))
    cfg = PhaseConfig.from_scale(HALF, Fraction(1))
    assert with_scale > 3 * cfg.t_max * cfg.tau_max == 124416


def test_expected_pass_count_closed_form():
    total = 1
    for h in scale_schedule(Fraction(1)):
        cfg = PhaseConfig.from_scale(h, Fraction(1))
        total += 3 * cfg.t_max * cfg.tau_max
    assert expected_pass_count(Fraction(1)) == total


def test_pass_count_scaling_ratio():
    values = {eps: expected_pass_count(eps)
              for eps in (Fraction(1), HALF, Fraction(1, 4), Fraction(1, 8))}
    previous = None
    for eps in (Fraction(1), HALF, Fraction(1, 4)):
        ratio = values[eps / 2] / values[eps]
        assert values[eps / 2] // values[eps] == 64
        assert round(ratio) == 64
        if previous is not None:
            assert abs(ratio - 64) < abs(previous - 64)  # converges to 64
        previous = ratio
    # the minimum-scale term scales by exactly 64 per halving
    def min_scale_term(eps):
        h = scale_schedule(eps)[-1]
        cfg = PhaseConfig.from_scale(h, eps)
        return 3 * cfg.t_max * cfg.tau_max
    for eps in (Fraction(1), HALF, Fraction(1, 4)):
        assert min_scale_term(eps / 2) == 64 * min_scale_term(eps)


@pytest.mark.parametrize("eps", [Fraction(1), HALF, Fraction(1, 4)])
def test_run_p4_reaches_maximum(eps):
    stream = open_stream(GraphSpec("path", (4,)))
    report = run(stream, RunConfig(epsilon=eps, check_invariants=True))
    assert report.matching.size == 2 == exact_matching_exhaustive(
        4, stream.snapshot_edges())
    assert report.passes == expected_pass_count(eps)


def test_run_counts_passes_exactly():
    for spec in [GraphSpec("cycle", (7,)), GraphSpec("petersen"),
                 GraphSpec("gnm", (12, 20), 4)]:
        stream = open_stream(spec)
        report = run(stream, RunConfig(epsilon=HALF))
        assert report.passes == expected_pass_count(HALF)
        assert stream.pass_count() == report.passes


def test_run_reports_both_epsilons_and_scales():
    stream = open_stream(GraphSpec("path", (6,)))
    report = run(stream, RunConfig(epsilon=Fraction(2, 3)))
    assert report.epsilon_requested == Fraction(2, 3)
    assert report.epsilon_effective == HALF
    assert len(report.per_scale) == len(scale_schedule(HALF))
    assert report.per_scale[0].phases_total == PhaseConfig.from_scale(
        HALF, HALF).t_max


def test_matching_size_monotone_across_scales():
    stream = open_stream(GraphSpec("gnm", (20, 45), 8))
    report = run(stream, RunConfig(epsilon=HALF))
    sizes = [row.matching_size for row in report.per_scale]
    assert sizes == sorted(sizes)
    assert validate_matching(report.matching, stream.snapshot_edges())


def test_scale_end_approximation_bound():
    # At the end of every scale the matching is within the per-scale
    # approximation bound of the true maximum.
    for seed in range(8):
        stream = open_stream(GraphSpec("gnm", (14, 26), seed))
        nu = exact_matching_exhaustive(14, stream.snapshot_edges())
        report = run(stream, RunConfig(epsilon=HALF))
        l_max = Fraction(3) / report.epsilon_effective
        for row in report.per_scale:
            bound = (1 + 4 * row.h * l_max) * (1 + 1 / l_max) * row.matching_size
            assert nu <= bound


@pytest.mark.parametrize("eps", [HALF, Fraction(1, 4)])
def test_label_reductions_are_overtakes_and_contracted_cycle_arcs(monkeypatch, eps):
    # Every overtake lowers one label, and a contraction lowers both
    # directions of each matched cycle arc, len(cycle) - 1 labels in all;
    # nothing else writes a label.  Each phase's stats are checked against
    # the contractions of its own forest: a resumed phase counts those of
    # the bundles it shares with the phase it resumes from, which ran once.
    cycle_arcs = defaultdict(list)  # per forest
    original_contract = Forest.contract
    original_run = PhaseEngine.run
    resumed = 0

    def recording_contract(forest, u, v):
        blossom = original_contract(forest, u, v)
        cycle_arcs[forest].append(len(blossom.cycle) - 1)
        return blossom

    def checked_run(engine):
        nonlocal resumed
        resumed += engine.forest.bundle > 0
        paths = original_run(engine)
        stats, arcs = engine.forest.stats, cycle_arcs[engine.forest]
        assert stats["contracts"] == len(arcs)
        assert stats["label_reductions"] == stats["overtakes"] + sum(arcs)
        assert list(stats)[-1] == "label_reductions"
        return paths

    monkeypatch.setattr(Forest, "contract", recording_contract)
    monkeypatch.setattr(PhaseEngine, "run", checked_run)
    for spec in ("cycle:7", "petersen", "gnm:40,120,seed=0",
                 "gnm:300,900,seed=1", "bipartite:30,30,90,seed=2"):
        run(open_stream(parse_graph_spec(spec)), RunConfig(epsilon=eps))
    assert resumed  # gnm:300,900,seed=1 resumes five phases


@pytest.mark.parametrize("spec", ["gnm:60,150,seed=3", "gnm:150,450,seed=1",
                                  "bipartite:30,30,90,seed=2"])
def test_matching_size_and_free_list_follow_every_change(monkeypatch, spec):
    # Matching keeps its size as a count and its free vertices as a list
    # it only prunes; both must equal a scan of the mate map after greedy,
    # after each augmentation and when each phase starts.
    def assert_as_scanned(matching):
        free = [v for v, mate in enumerate(matching.mate) if mate is None]
        assert matching.size == (len(matching.mate) - len(free)) // 2
        assert matching.free_vertices() == free

    seen = []
    greedy, augment = driver.greedy_maximal_matching, driver.augment_along

    def checked_greedy(stream):
        matching = greedy(stream)
        assert_as_scanned(matching)
        return matching

    def checked_augment(matching, path):
        augment(matching, path)
        assert_as_scanned(matching)
        seen.append("augment")

    class CheckedEngine(PhaseEngine):
        def __init__(self, stream, matching, config, **kwargs):
            assert_as_scanned(matching)
            seen.append("phase")
            super().__init__(stream, matching, config, **kwargs)

    monkeypatch.setattr(driver, "greedy_maximal_matching", checked_greedy)
    monkeypatch.setattr(driver, "augment_along", checked_augment)
    monkeypatch.setattr(driver, "PhaseEngine", CheckedEngine)
    report = run(open_stream(parse_graph_spec(spec)), RunConfig(epsilon=HALF))
    assert_as_scanned(report.matching)
    assert seen.count("phase") > 1 and "augment" in seen


def test_isolated_vertices_are_fine():
    # Path on 4 vertices plus three isolated ones.
    stream = open_stream(GraphSpec("gnm", (7, 0), 0))
    report = run(stream, RunConfig(epsilon=HALF, check_invariants=True))
    assert report.matching.size == 0

    from streammatch.stream import EdgeStream
    stream = EdgeStream(7, [(0, 1), (1, 2), (2, 3)])
    report = run(stream, RunConfig(epsilon=HALF, check_invariants=True))
    assert report.matching.size == 2


def test_empty_graph():
    stream = open_stream(GraphSpec("path", (0,)))
    report = run(stream, RunConfig(epsilon=Fraction(1)))
    assert report.matching.size == 0
    assert report.passes == expected_pass_count(Fraction(1))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 13), st.data())
def test_guarantee_property_on_arbitrary_graphs(n, data):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    seed = data.draw(st.integers(0, 2**32))
    eps = data.draw(st.sampled_from([Fraction(1), HALF, Fraction(1, 4)]))
    stream = open_stream(GraphSpec("gnm", (n, m), seed))
    report = run(stream, RunConfig(epsilon=eps, check_invariants=True))
    nu = exact_matching_exhaustive(n, stream.snapshot_edges())
    assert (1 + eps) * report.matching.size >= nu
    assert report.passes == expected_pass_count(eps)


def test_report_dict_is_json_ready():
    import json
    stream = open_stream(GraphSpec("path", (5,)))
    report = run(stream, RunConfig(epsilon=HALF))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["matching_size"] == 2
    assert payload["epsilon_effective"] == "1/2"
    assert payload["n"] == 5 and payload["m"] == 4


# Phases executed per scale at eps = 1.  In the first nine graphs a phase
# of the first scale banks no path and freezes without a hold, so every
# later scale is charged unread.  In cycle:13 that phase holds the
# 13-vertex structure, so the scale skip does not fire there and the next
# scale runs a phase too.
REPLAY_CASES = {
    "path:2": [1, 0, 0, 0, 0, 0],
    "path:4": [1, 0, 0, 0, 0, 0],
    "cycle:4": [1, 0, 0, 0, 0, 0],
    "complete:4": [1, 0, 0, 0, 0, 0],
    "petersen": [1, 0, 0, 0, 0, 0],
    "gnm:8,12,seed=0": [2, 0, 0, 0, 0, 0],
    "gnm:30,100,seed=8": [2, 0, 0, 0, 0, 0],
    "gnm:60,400,seed=11": [2, 0, 0, 0, 0, 0],
    "bipartite:10,10,35,seed=2": [2, 0, 0, 0, 0, 0],
    "cycle:13": [1, 1, 0, 0, 0, 0],
}


@pytest.mark.parametrize("text", list(REPLAY_CASES))
def test_run_matches_the_full_replay_reference(text):
    spec = parse_graph_spec(text)
    events = []
    report = run(open_stream(spec), RunConfig(epsilon=1, trace=events.append))
    assert [row.phases_executed for row in report.per_scale] == REPLAY_CASES[text]
    matching, rows, passes, traces = full_replay_run(open_stream(spec), 1)
    assert report.matching.mate == matching.mate
    assert ([(r.h, r.phases_total, r.augmentations, r.matching_size) for r in report.per_scale]
            == [(r.h, r.phases_total, r.augmentations, r.matching_size) for r in rows])
    assert report.passes == passes == expected_pass_count(1)
    # The run's trace is the replay's executed phases in order, and every
    # phase it skipped repeats the last phase it executed.
    ran = []
    for row, phases in zip(report.per_scale, traces):
        ran.extend(phases[:row.phases_executed])
        assert all(phase == ran[-1] for phase in phases[row.phases_executed:])
    assert "".join(json.dumps(event) + "\n" for event in events) == "".join(ran)


def long_path_gadget(k, copies, seed):
    """``copies`` disjoint paths of 2k + 2 vertices, ids shuffled by
    ``seed``.  Each path's k odd-position edges are streamed first, so the
    greedy pass takes them and the one augmenting path of each copy runs
    end to end through k matched edges."""
    size = 2 * k + 2
    label = list(range(copies * size))
    random.Random(seed).shuffle(label)
    first, rest = [], []
    for c in range(copies):
        path = label[c * size:(c + 1) * size]
        for i in range(2 * k + 1):
            u, v = sorted(path[i:i + 2])
            (first if i % 2 else rest).append((u, v))
    return copies * size, first + rest


@pytest.mark.parametrize("copies", [1, 3], ids=["copies=1", "copies=3"])
@pytest.mark.parametrize("eps", [HALF, Fraction(1, 4)], ids=["eps=1/2", "eps=1/4"])
def test_reach_on_the_long_path_gadget_is_two_l_max(eps, copies):
    # One tree of depth l_max grows from each end of a path, so the engine
    # finds a path of up to 2 l_max matched edges and misses longer ones;
    # the guarantee still holds either way.
    l_max = int(3 / eps)
    for k in range(1, 2 * l_max + 4):
        n, edges = long_path_gadget(k, copies, seed=k)
        nu = copies * (k + 1)
        assert oracle.matching_size(n, edges) == nu
        report = run(EdgeStream(n, edges), RunConfig(epsilon=eps))
        assert report.matching.size == (nu if k <= 2 * l_max else nu - copies), k
        assert report.guarantee_failure(nu) is None


def test_checked_run_names_a_banked_path_that_is_not_augmenting(monkeypatch):
    # Greedy takes the middle edge of 0 - 1 - 2 - 3, so the phase banks the
    # path through all four; dropping its last vertex leaves a path that
    # ends at a matched vertex.
    class Truncating(PhaseEngine):
        def run(self):
            paths = super().run()
            assert paths
            paths[0] = paths[0][:-1]
            return paths

    monkeypatch.setattr(driver, "PhaseEngine", Truncating)
    with pytest.raises(InvariantViolationError) as caught:
        run(EdgeStream(4, [(1, 2), (0, 1), (2, 3)]),
            RunConfig(epsilon=HALF, check_invariants=True))
    assert [v.name for v in caught.value.violations] == ["augmenting-path"]


def test_checked_run_names_a_matched_pair_that_is_not_an_edge(monkeypatch):
    # The isolated vertices 4 and 5 start matched to each other, which no
    # phase reads or changes, so only the final check can see it.
    greedy = driver.greedy_maximal_matching

    def greedy_with_a_non_edge(stream):
        matching = greedy(stream)
        matching.mate[4], matching.mate[5] = 5, 4
        matching.size += 1
        return matching

    monkeypatch.setattr(driver, "greedy_maximal_matching", greedy_with_a_non_edge)
    with pytest.raises(InvariantViolationError) as caught:
        run(EdgeStream(6, [(1, 2), (0, 1), (2, 3)]),
            RunConfig(epsilon=HALF, check_invariants=True))
    assert [v.name for v in caught.value.violations] == ["valid-matching"]


def test_unchecked_run_leaves_few_objects_to_the_cyclic_collector(monkeypatch):
    # A single vertex costs its tree node alone: no vertex list, kid list,
    # parent-arc tuple or record of its own.  Tree nodes and structures
    # still form reference cycles, so the collector frees each phase's
    # state; on this bipartite graph that was 15,783 objects while every
    # node held two lists and a tuple, and lifting built a record per node.
    trivial, composite = [], []
    original = Blossom.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        (trivial if self.subs is None else composite).append(self.base)

    monkeypatch.setattr(Blossom, "__init__", init)
    stream = open_stream(parse_graph_spec("bipartite:1000,1000,4000,seed=4"))
    gc.collect()
    gc.disable()
    try:
        run(stream, RunConfig(epsilon=HALF))
        found = gc.collect()
    finally:
        gc.enable()
    assert found <= 5000
    # A graph that contracts builds composite records, and no other kind.
    run(open_stream(parse_graph_spec("gnm:300,900,seed=1")), RunConfig(epsilon=HALF))
    assert trivial == [] and len(composite) > 10
