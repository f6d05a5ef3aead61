"""Scale driver: schedule, parameter formulas, pass accounting, end-to-end runs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch.driver import (RunConfig, expected_pass_count,
                                normalize_epsilon, run, scale_params,
                                scale_schedule)
from streammatch.matching import validate_matching
from streammatch.oracle import exact_matching_exhaustive
from streammatch.stream import GraphSpec, open_stream

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


def test_scale_params_table_values():
    cfg = scale_params(HALF, Fraction(1, 4))
    assert (cfg.l_max, cfg.limit, cfg.tau_max, cfg.t_max, cfg.delta) == \
        (12, 13, 576, 1152, 288)
    cfg = scale_params(HALF, Fraction(1))
    assert (cfg.l_max, cfg.limit, cfg.tau_max, cfg.t_max, cfg.delta) == \
        (3, 13, 144, 288, 72)


def test_size_bound_within_space_budget_for_all_scheduled_scales():
    for eps in (Fraction(1), HALF, Fraction(1, 4), Fraction(1, 8)):
        for h in scale_schedule(eps):
            cfg = scale_params(h, eps)
            assert cfg.limit * cfg.l_max <= cfg.delta


def test_expected_pass_count_single_scale_term():
    # Scale 1/2 at eps=1 contributes reads * 288 * 144 passes.
    assert 4 * 288 * 144 == 165888
    with_scale = expected_pass_count(Fraction(1), reads_per_bundle=4)
    cfg = scale_params(HALF, Fraction(1))
    assert with_scale > 4 * cfg.t_max * cfg.tau_max == 165888


def test_expected_pass_count_closed_form():
    total = 1
    for h in scale_schedule(Fraction(1)):
        cfg = scale_params(h, Fraction(1))
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
        cfg = scale_params(h, eps)
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
                 GraphSpec("random-gnm", (12, 20), 4)]:
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
    assert report.per_scale[0].phases_total == scale_params(
        HALF, HALF).t_max


def test_matching_size_monotone_across_scales():
    stream = open_stream(GraphSpec("random-gnm", (20, 45), 8))
    report = run(stream, RunConfig(epsilon=HALF))
    sizes = [row.matching_size for row in report.per_scale]
    assert sizes == sorted(sizes)
    assert validate_matching(report.matching, stream.snapshot_edges())


def test_scale_end_approximation_bound():
    # At the end of every scale the matching is within the per-scale
    # approximation bound of the true maximum.
    for seed in range(8):
        stream = open_stream(GraphSpec("random-gnm", (14, 26), seed))
        nu = exact_matching_exhaustive(14, stream.snapshot_edges())
        report = run(stream, RunConfig(epsilon=HALF))
        l_max = Fraction(3) / report.epsilon_effective
        for row in report.per_scale:
            bound = (1 + 4 * row.h * l_max) * (1 + 1 / l_max) * row.matching_size
            assert nu <= bound


def test_isolated_vertices_are_fine():
    # Path on 4 vertices plus three isolated ones.
    stream = open_stream(GraphSpec("random-gnm", (7, 0), 0))
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
    stream = open_stream(GraphSpec("random-gnm", (n, m), seed))
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
