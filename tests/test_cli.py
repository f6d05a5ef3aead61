"""Command-line interface: subcommands, exit codes, output files."""

import json
from fractions import Fraction

import pytest

from streammatch import cli, driver, matching
from streammatch.driver import expected_pass_count
from streammatch.invariants import InvariantChecker, InvariantViolationError, Violation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_path4(capsys):
    code, out, _ = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["matching_size"] == 2
    assert report["epsilon_effective"] == "1/2"


def test_run_petersen(capsys):
    code, out, _ = run_cli(capsys, "run", "--gen", "petersen", "--epsilon", "0.5")
    report = json.loads(out)
    assert code == 0
    # guarantee floor is ceil(5 / 1.5) = 4; the run actually reaches 5
    assert report["matching_size"] >= 4


def test_run_path2_passes_formula(capsys):
    code, out, _ = run_cli(capsys, "run", "--gen", "path:2", "--epsilon", "1")
    report = json.loads(out)
    assert code == 0
    assert report["matching_size"] == 1
    assert report["passes"] == expected_pass_count(1)


def test_run_writes_matching_file(tmp_path, capsys):
    out_file = tmp_path / "matching.txt"
    code, _, _ = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "0.5",
                         "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "0 1\n2 3\n"


def test_run_rejects_both_input_and_gen(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--gen", "path:4", "--input", "x", "--epsilon", "1"])


def test_verify_c5_epsilon_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "cycle:5", "--epsilon", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["matching_size"] == 2 and payload["nu"] == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_random_graphs_exit_zero(capsys, seed):
    code, _, _ = run_cli(capsys, "verify", "--gen", f"gnm:40,120,seed={seed}",
                         "--epsilon", "0.5")
    assert code == 0


def test_verify_fifty_seed_sweep(capsys):
    codes = set()
    for seed in range(50):
        code = cli.main(["verify", "--gen", f"gnm:40,120,seed={seed}",
                         "--epsilon", "0.5"])
        codes.add(code)
    capsys.readouterr()
    assert codes == {0}


def test_verify_guarantee_failure_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.oracle, "matching_size", lambda n, edges: 999)
    code, _, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 2
    assert "guarantee" in err


def test_verify_invariant_failure_exit_3(capsys, monkeypatch):
    def broken_run(stream, config):
        raise InvariantViolationError([Violation("increasing-labeling", 0, "forced")])
    monkeypatch.setattr(driver, "run", broken_run)
    code, _, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 3
    assert "increasing-labeling" in err


def test_verify_pass_mismatch_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(driver, "expected_pass_count", lambda eps, reads=3: 77)
    code, _, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 4
    assert "pass-count" in err


def assert_one_line_error(err, label, detail):
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{label}: ") and detail in err


def test_run_checked_invariant_failure_exit_3(capsys, monkeypatch):
    def broken_boundary(checker):
        raise InvariantViolationError([Violation("outer-independence", 0, "forced")])
    monkeypatch.setattr(InvariantChecker, "at_boundary", broken_boundary)
    code, out, err = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "0.5",
                             "--check-invariants")
    assert code == 3 and out == ""
    assert_one_line_error(err, "invariant violation", "outer-independence")


def test_run_pass_mismatch_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(driver, "expected_pass_count", lambda eps: 77)
    code, out, err = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 4 and out == ""
    assert_one_line_error(err, "pass-count mismatch", "77")


def test_verify_invalid_final_matching_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(driver, "validate_matching", lambda m, edges: False)
    code, out, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 3 and out == ""
    assert_one_line_error(err, "invariant violation", "valid-matching")


def test_verify_invalid_augmenting_path_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(matching, "is_alternating_augmenting",
                        lambda path, m, edges=None: False)
    code, out, err = run_cli(capsys, "verify", "--gen", "gnm:40,120,seed=0",
                             "--epsilon", "0.5")
    assert code == 3 and out == ""
    assert_one_line_error(err, "invariant violation", "augmenting-path")


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "torus:3", "--epsilon", "0.5")
    assert code == 1
    assert "error" in err


def test_zero_denominator_epsilon_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "1/0")
    assert code == 1
    assert_one_line_error(err, "error", "zero denominator")


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--input", "/nonexistent/file",
                           "--epsilon", "0.5")
    assert code == 1


def test_gen_writes_edgelist(tmp_path, capsys):
    target = tmp_path / "cycle3.edgelist"
    code, _, _ = run_cli(capsys, "gen", "--gen", "cycle:3", "--out", str(target))
    assert code == 0
    assert target.read_text() == "3 3\n0 1\n0 2\n1 2\n"


def test_gen_seed_flag_changes_random_output(capsys):
    _, out_a, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20", "--seed", "1")
    _, out_b, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20", "--seed", "2")
    _, out_a2, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20", "--seed", "1")
    assert out_a != out_b
    assert out_a == out_a2


def test_trace_roundtrip_deterministic(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    run_cli(capsys, "trace", "--gen", "cycle:5", "--epsilon", "0.5",
            "--out", str(first))
    run_cli(capsys, "trace", "--gen", "cycle:5", "--epsilon", "0.5",
            "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    events = [json.loads(line) for line in first.read_text().splitlines()]
    assert {e["op"] for e in events} <= {
        "contract", "augment", "overtake", "backtrack", "hold"}


def test_bench_table(monkeypatch, capsys):
    rows = [{"spec": "path:4", "n": 4, "m": 3, "epsilon": "1/2",
             "matching_size": 2, "nu": 2, "guarantee_ok": True,
             "passes": 7, "seconds": 0.01}]
    monkeypatch.setattr(cli.bench, "run_corpus", lambda workers=None: rows)
    code, out, _ = run_cli(capsys, "bench")
    assert code == 0
    assert "path:4" in out and "matching_size" in out


def test_run_with_check_invariants(capsys):
    code, out, _ = run_cli(capsys, "run", "--gen", "gnm:14,25,seed=3",
                           "--epsilon", "0.25", "--check-invariants")
    assert code == 0
    assert json.loads(out)["passes"] == expected_pass_count(Fraction(1, 4))
