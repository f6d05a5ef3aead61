"""Command-line interface: subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from streammatch import bench, cli, driver, invariants, oracle
from streammatch.driver import expected_pass_count
from streammatch.invariants import InvariantChecker, InvariantViolationError, Violation
from streammatch.stream import GraphSpec, _validate_simple

P4 = Path(__file__).parent / "fixtures" / "p4.edgelist"


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


def test_module_entry_point_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "streammatch", "run", "--gen", "petersen"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["matching_size"] == 5


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
    # Both --oracle values run the certified oracle.
    assert run_cli(capsys, "verify", "--gen", "cycle:5", "--epsilon", "1",
                   "--oracle", "tutte")[:2] == (0, out)


@pytest.mark.parametrize("spec", ["path:0", "gnm:0,0"])
def test_verify_empty_graph(capsys, spec):
    # The checked run's boundary check reads the labels of no vertex.
    code, out, _ = run_cli(capsys, "verify", "--gen", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["matching_size"] == 0 and payload["nu"] == 0


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
    # path:4 gives |M| = 2 at eps = 1/2.  nu = 999 breaks the final
    # guarantee; nu = 3 keeps it (1.5 * 2 >= 3) but breaks the bound at the
    # end of scale h = 1/256, (1 + 4 * 6/256) * (7/6) * 2 = 2.55 < 3.
    for nu, message in ((999, "guarantee violated"), (3, "scale-end bound violated")):
        monkeypatch.setattr(cli.oracle, "matching_size", lambda n, edges, nu=nu: nu)
        code, out, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
        assert code == 2 and out == ""
        assert err.startswith(message)


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


def test_verify_epsilon_out_of_range_fails_before_the_oracle(capsys, monkeypatch):
    def unexpected_oracle(n, edges):
        raise AssertionError("oracle called before epsilon was checked")
    monkeypatch.setattr(cli.oracle, "matching_size", unexpected_oracle)
    code, out, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "2")
    assert code == 1 and out == ""
    assert_one_line_error(err, "error", "epsilon must be in (0, 1], got 2")


def test_verify_checks_a_certified_nu_at_any_size(capsys, monkeypatch):
    configs = []

    def recording_run(stream, config, run=driver.run):
        configs.append(config)
        return run(stream, config)
    monkeypatch.setattr(driver, "run", recording_run)
    code, out, err = run_cli(capsys, "verify", "--gen", "path:2001")
    assert code == 0 and err == ""
    assert json.loads(out) == {"ok": True, "matching_size": 1000, "nu": 1000,
                               "passes": expected_pass_count(Fraction(1, 2))}
    assert [c.check_invariants for c in configs] == [True]


def test_verify_witness_failure_exit_1(capsys, monkeypatch):
    # A search whose matching falls one pair short of its witness: the
    # check inside the oracle refuses it, and verify exits 1.
    def short_search(n, edges, mate, search=oracle._search):
        witness = search(n, edges, mate)
        u = next(v for v in range(n) if mate[v] is not None)
        mate[mate[u]] = mate[u] = None
        return witness
    monkeypatch.setattr(oracle, "_search", short_search)
    code, out, err = run_cli(capsys, "verify", "--gen", "path:4")
    assert code == 1 and out == ""
    assert_one_line_error(err, "error", "witness does not certify")


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
    monkeypatch.setattr(invariants, "validate_matching", lambda m, edges: False)
    code, out, err = run_cli(capsys, "verify", "--gen", "path:4", "--epsilon", "0.5")
    assert code == 3 and out == ""
    assert_one_line_error(err, "invariant violation", "valid-matching")


def test_verify_invalid_augmenting_path_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "is_alternating_augmenting",
                        lambda path, m, edges=None: False)
    code, out, err = run_cli(capsys, "verify", "--gen", "gnm:40,120,seed=0",
                             "--epsilon", "0.5")
    assert code == 3 and out == ""
    assert_one_line_error(err, "invariant violation", "augmenting-path")


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "torus:3", "--epsilon", "0.5")
    assert code == 1
    assert "error" in err
    for command in ("run", "gen"):
        for spec in ("gnm:5", "path:-3", "petersen:3", "gnm:5,x",
                     "random-gnm:10,20", "random-bipartite:3,4,5"):
            code, _, err = run_cli(capsys, command, "--gen", spec)
            assert code == 1
            assert_one_line_error(err, "error", repr(spec))
        # Specs that parse but that their generator rejects.
        for spec, message in (("cycle:2", "cycle needs n >= 3"),
                              ("bipartite:2,2,5", "m=5 exceeds the 4 possible edges")):
            code, out, err = run_cli(capsys, command, "--gen", spec)
            assert code == 1 and out == ""
            assert_one_line_error(err, "error", message)
    # argparse's own usage errors exit 1 too, not its default 2, which
    # would read as a guarantee violation; --help still exits 0.  A graph
    # comes from exactly one of --input and --gen (gen takes only --gen),
    # and trace needs --out.  A random graph's seed is part of its spec:
    # there is no --seed.  bench takes no flags, and verify's oracle is
    # auto or tutte.
    for argv in (["run", "--gen", "path:4", "--bogus"], [],
                 ["run", "--gen", "gnm:10,20", "--seed", "3"],
                 ["gen", "--gen", "gnm:10,20", "--seed", "3"],
                 ["bench", "--workers", "2"],
                 ["verify", "--gen", "path:4", "--oracle", "none"],
                 ["trace", "--gen", "path:4"], ["gen"], ["gen", "--input", "g.txt"],
                 ["run"], ["run", "--input", "g.txt", "--gen", "path:4"]):
        with pytest.raises(SystemExit) as caught:
            cli.main(argv)
        assert caught.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as caught:
        cli.main(["run", "--help"])
    assert caught.value.code == 0


def test_zero_denominator_epsilon_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "path:4", "--epsilon", "1/0")
    assert code == 1
    assert_one_line_error(err, "error", "zero denominator")


def test_negative_vertex_count_exit_1(tmp_path, capsys):
    target = tmp_path / "negative.edgelist"
    target.write_text("-3 0\n")
    code, out, err = run_cli(capsys, "run", "--input", str(target))
    assert code == 1 and out == ""
    assert_one_line_error(err, "error", "negative vertex count -3")


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--input", "/nonexistent/file",
                           "--epsilon", "0.5")
    assert code == 1


def test_gen_writes_edgelist(tmp_path, capsys):
    target = tmp_path / "cycle3.edgelist"
    code, _, _ = run_cli(capsys, "gen", "--gen", "cycle:3", "--out", str(target))
    assert code == 0
    assert target.read_text() == "3 3\n0 1\n0 2\n1 2\n"


def test_gen_stdout_and_out_file_bytes_match(tmp_path, capsys):
    target = tmp_path / "gnm.edgelist"
    code, out, _ = run_cli(capsys, "gen", "--gen", "gnm:12,20,seed=3")
    assert code == 0
    code, _, _ = run_cli(capsys, "gen", "--gen", "gnm:12,20,seed=3", "--out", str(target))
    assert code == 0
    assert out.encode("ascii") == target.read_bytes()
    assert out.startswith("12 20\n")


def test_gen_seed_flag_changes_random_output(capsys):
    _, out_a, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20,seed=1")
    _, out_b, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20,seed=2")
    _, out_a2, _ = run_cli(capsys, "gen", "--gen", "gnm:10,20,seed=1")
    assert out_a != out_b
    assert out_a == out_a2


def test_trace_roundtrip_deterministic(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    code, traced, _ = run_cli(capsys, "trace", "--gen", "cycle:5", "--epsilon", "0.5",
                              "--out", str(first))
    assert code == 0
    run_cli(capsys, "trace", "--gen", "cycle:5", "--epsilon", "0.5",
            "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    # trace is run --trace: the same file and the same JSON report
    third = tmp_path / "c.jsonl"
    code, report, _ = run_cli(capsys, "run", "--gen", "cycle:5", "--epsilon", "0.5",
                              "--trace", str(third))
    assert code == 0
    assert third.read_bytes() == first.read_bytes()
    assert traced == report and json.loads(report)["matching_size"] == 2
    events = [json.loads(line) for line in first.read_text().splitlines()]
    assert {e["op"] for e in events} <= {
        "contract", "augment", "overtake", "backtrack", "hold"}


def test_bench_table(monkeypatch, capsys):
    rows = [{"spec": "path:4", "n": 4, "m": 3, "epsilon": "1/2",
             "matching_size": 2, "nu": 2, "guarantee_ok": True,
             "passes": 7, "seconds": 0.01}]
    monkeypatch.setattr(cli.bench, "run_corpus", lambda: rows)
    code, out, _ = run_cli(capsys, "bench")
    assert code == 0
    assert "path:4" in out and "matching_size" in out


def test_bench_row_checks_the_scale_end_bound(monkeypatch):
    # nu = 3 keeps the final guarantee on path:4 but not the scale-end
    # bound (see test_verify_guarantee_failure_exit_2); bench flags it too.
    monkeypatch.setattr(bench.oracle, "matching_size", lambda n, edges: 3)
    row = bench.run_one(GraphSpec("path", (4,)), Fraction(1, 2))
    assert row["matching_size"] == 2 and row["nu"] == 3
    assert row["guarantee_ok"] is False


def test_bench_prints_the_table_without_a_pool(monkeypatch, capsys):
    import multiprocessing
    import multiprocessing.pool

    def no_pool(*args, **kwargs):
        raise AssertionError("bench started a process pool")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    monkeypatch.setattr(bench, "acceptance_tasks",
                        lambda: [(GraphSpec("path", (4,)), Fraction(1)),
                                 (GraphSpec("cycle", (5,)), Fraction(1, 2))])
    code, out, _ = run_cli(capsys, "bench")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("spec")
    assert lines[1].startswith("path:4") and lines[2].startswith("cycle:5")


def test_file_input_is_validated_once(monkeypatch, capsys):
    calls = []

    def counting(n, edges):
        calls.append(n)
        _validate_simple(n, edges)
    monkeypatch.setattr("streammatch.stream._validate_simple", counting)
    code, out, _ = run_cli(capsys, "run", "--input", str(P4))
    assert code == 0 and json.loads(out)["matching_size"] == 2
    assert calls == [4]


def test_run_with_check_invariants(capsys):
    code, out, _ = run_cli(capsys, "run", "--gen", "gnm:14,25,seed=3",
                           "--epsilon", "0.25", "--check-invariants")
    assert code == 0
    assert json.loads(out)["passes"] == expected_pass_count(Fraction(1, 4))
