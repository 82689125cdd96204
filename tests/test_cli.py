import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pellkit import FactorizationIncompleteError, solve_pm_N
from pellkit.cli import main
from pellkit.families import reproduce_table


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cf_human(capsys):
    rc, out, _ = run_cli(capsys, "cf", "399")
    assert rc == 0
    assert out == "sqrt(399) = [19; 1, 38], period 2\n"


def test_cf_json_matches_documented_shape(capsys):
    rc, out, _ = run_cli(capsys, "cf", "2", "--format", "json")
    assert rc == 0
    assert out == '{"m":2,"a0":1,"period":[2],"period_length":1}\n'


def test_cf_rejects_square(capsys):
    rc, _, err = run_cli(capsys, "cf", "4")
    assert rc == 2
    assert "perfect square" in err


def test_solve_no_solution_message_and_exit(capsys):
    rc, out, _ = run_cli(capsys, "solve", "399", "5")
    assert rc == 1
    assert out == "no solution (complete scan, 4 convergents)\n"


def test_solve_coprime_note_is_computed_for_human_output_only(capsys, monkeypatch):
    rc, out, _ = run_cli(capsys, "solve", "399", "4")
    assert rc == 1
    assert out == "no solution (complete scan, 4 convergents) [coprime (x, y)]\n"

    def no_factorization(n):
        raise AssertionError("machine formats must not factorize |N|")
    monkeypatch.setattr("pellkit.cli.squarefree_core", no_factorization)
    for fmt in ("json", "csv", "markdown"):
        rc, out, _ = run_cli(capsys, "solve", "399", "4", "--format", fmt)
        assert rc == 1 and "scan_length" in out, fmt
    rc, out, _ = run_cli(capsys, "solve", "399", "4", "--format", "json")
    assert out == ('{"m":399,"N":4,"mode":"convergents","complete":true,'
                   '"scan_length":4,"solutions":[]}\n')


def test_solve_lmm_no_solution_message(capsys):
    rc, out, _ = run_cli(capsys, "solve", "10", "13")
    assert rc == 1
    assert out == "no solution (complete LMM search, 12 PQa steps)\n"
    rc, out, _ = run_cli(capsys, "solve", "109", "1000")  # no root of 109 mod 8
    assert rc == 1
    assert out == "no solution (complete LMM search, 0 PQa steps) [coprime (x, y)]\n"
    rc, out, _ = run_cli(capsys, "solve", "10", "13", "--format", "json")
    assert out == ('{"m":10,"N":13,"mode":"lmm","complete":true,'
                   '"scan_length":13,"solutions":[]}\n')


def test_solve_lmm_factors_a_large_semiprime_target(capsys):
    # |N| = 10000019 * 10000079 > 10^14: both primes are found by rho, and
    # 109 has no square root modulo |N|, so the search ends at the roots
    N = 10000019 * 10000079
    rc, out, _ = run_cli(capsys, "solve", "109", str(N), "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"m": 109, "N": N, "mode": "lmm", "complete": True,
                               "scan_length": 1, "solutions": []}
    assert solve_pm_N(109, N).scan_length == 1


def test_internal_limits_exit_4(capsys, monkeypatch):
    # 2^89 - 1 is prime but above the deterministic Miller-Rabin range
    N = 3 * (2**89 - 1)
    with pytest.raises(FactorizationIncompleteError):
        solve_pm_N(2, N)
    rc, out, err = run_cli(capsys, "solve", "2", str(N))
    assert rc == 4 and out == ""
    assert err.startswith("pellkit: ") and err.count("\n") == 1
    assert "cannot be certified prime" in err
    # D = 10000019 * 10000079 = 1 (mod 4): isqrt(D) is past the enumeration limit
    started = time.perf_counter()
    rc, out, err = run_cli(capsys, "classno", "100000980001501")
    assert time.perf_counter() - started < 1
    assert rc == 4 and out == ""
    assert err.startswith("pellkit: ") and "enumeration limit" in err

    def broken(m):
        raise ArithmeticError("class_number: odd narrow class number with a +1 unit")
    monkeypatch.setattr("pellkit.cli._class_number", broken)
    rc, out, err = run_cli(capsys, "classno", "399")
    assert rc == 4 and out == ""
    assert err == "pellkit: class_number: odd narrow class number with a +1 unit\n"


def test_solve_negative_target_both_spellings(capsys):
    rc, out, _ = run_cli(capsys, "solve", "7", "--", "-3")
    assert rc == 0
    assert out == "(2,1), (5,2)\n"
    rc, out2, _ = run_cli(capsys, "solve", "7", "--N=-3")
    assert rc == 0
    assert out2 == out


def test_solve_conflicting_targets(capsys):
    rc, _, err = run_cli(capsys, "solve", "7", "5", "--N=-3")
    assert rc == 2 and "conflicting" in err
    rc, _, err = run_cli(capsys, "solve", "7")
    assert rc == 2 and "provide N" in err


def test_solve_brute_force_mode(capsys):
    rc, out, _ = run_cli(capsys, "solve", "10", "7", "--ymax", "100")
    assert rc == 1
    assert out == "no solutions with y <= 100 (incomplete search)\n"
    rc, out, _ = run_cli(capsys, "solve", "7", "--N=-3", "--ymax", "20")
    assert rc == 0
    assert "not a completeness proof" in out


def test_classno_human(capsys):
    rc, out, _ = run_cli(capsys, "classno", "399")
    assert rc == 0
    assert out == "h=8 (h_narrow=16, unit norm +1, D=1596)\n"


def test_classno_core_annotation(capsys):
    rc, out, _ = run_cli(capsys, "classno", "7227")
    assert rc == 0
    assert out.splitlines() == [
        "7227 = 3^2*803; h computed for 803",
        "h=2 (h_narrow=4, unit norm +1, D=3212)",
    ]


def test_core_note_is_computed_for_human_output_only(capsys, monkeypatch):
    import pellkit.cli
    real = pellkit.cli.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(pellkit.cli, "factorize", counting)
    for command in ("classno", "unit"):
        for fmt in ("json", "csv", "markdown"):
            rc, out, _ = run_cli(capsys, command, "7227", "--format", fmt)
            assert rc == 0 and "803" in out, (command, fmt)
    assert calls == []
    for command, noun in (("classno", "h"), ("unit", "unit")):
        rc, out, _ = run_cli(capsys, command, "7227")
        assert rc == 0
        assert out.splitlines()[0] == f"7227 = 3^2*803; {noun} computed for 803"
    assert calls == [9, 9]


def test_classno_factorizes_m_once(capsys, monkeypatch):
    import pellkit.intkit
    real = pellkit.intkit.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(pellkit.intkit, "factorize", counting)
    for m in (399, 443, 4849845):
        calls.clear()
        rc, out, _ = run_cli(capsys, "classno", str(m), "--format", "json")
        assert rc == 0 and json.loads(out)["core"] == m
        assert calls == [m]


def test_unit_factorizes_m_once(capsys, monkeypatch):
    import pellkit.intkit
    real = pellkit.intkit.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(pellkit.intkit, "factorize", counting)
    for m, core in ((1596, 399), (399, 399), (443, 443)):
        calls.clear()
        rc, out, _ = run_cli(capsys, "unit", str(m), "--format", "json")
        assert rc == 0 and json.loads(out)["core"] == core
        assert calls == [m]


def test_classno_trivial_and_errors(capsys):
    rc, out, _ = run_cli(capsys, "classno", "2")
    assert rc == 0 and out.startswith("h=1 ")
    assert run_cli(capsys, "classno", "1")[0] == 2
    assert run_cli(capsys, "classno", "4")[0] == 2


def test_unit_command(capsys):
    rc, out, _ = run_cli(capsys, "unit", "399")
    assert rc == 0
    assert out == "fundamental unit of Q(sqrt(399)) = 20 + sqrt(399), norm +1\n"
    rc, out, _ = run_cli(capsys, "unit", "5", "--format", "json")
    assert json.loads(out) == {"m": 5, "core": 5, "a": 1, "b": 1, "denom": 2, "norm": -1}


def test_solve_json_renders_solutions_past_the_int_str_digit_limit(capsys):
    rc, out, err = run_cli(capsys, "solve", "5062201", "--N=3", "--format", "json")
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["solutions"]
    assert all(x * x - 5062201 * y * y == 3 for x, y in data["solutions"])


def test_unit_json_renders_a_unit_past_the_int_str_digit_limit(capsys):
    rc, out, err = run_cli(capsys, "unit", "1000000007", "--format", "json")
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["a"] ** 2 - 1000000007 * data["b"] ** 2 == data["norm"] in (1, -1)


def test_verify_clean_family(capsys):
    rc, out, err = run_cli(capsys, "verify", "F1", "--pmax", "20", "--nmax", "5")
    assert rc == 0
    assert "violations=0" in err
    assert "upheld" in out.splitlines()[0]


def test_verify_reports_counterexamples_with_exit_3(capsys):
    # F2 at p = 3 genuinely violates the claimed -p non-solvability
    rc, _, err = run_cli(capsys, "verify", "F2", "--pmax", "5", "--nmax", "9")
    assert rc == 3
    assert "violations=3" in err


def test_verify_f2_only_multiples_of_three(capsys):
    rc, out, _ = run_cli(capsys, "verify", "F2", "--pmax", "5", "--nmax", "9",
                         "--format", "csv")
    rows = out.strip().splitlines()[1:]
    assert rows and all(int(r.split(",")[2]) in (3, 6, 9) for r in rows)


def test_verify_exception_row_present(capsys):
    rc, out, _ = run_cli(capsys, "verify", "F4", "--allow-n0", "--pmax", "3",
                         "--nmax", "1", "--format", "csv")
    assert rc == 0
    exception_rows = [r for r in out.splitlines() if "2:1;5:2" in r]
    assert len(exception_rows) == 1 and ",7," in exception_rows[0]


def test_verify_expands_each_period_once_per_member(capsys, monkeypatch):
    # 140 members, 109 of them square-free: one expansion of sqrt(m) decides
    # +p and -p, and the class number reads the unit norm off its walks
    import pellkit.cfrac
    import pellkit.pell
    calls = []
    for module in (pellkit.cfrac, pellkit.pell):
        def counting(*args, real=module._pqa_period):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "_pqa_period", counting)
    rc, _, _ = run_cli(capsys, "verify", "F3", "--pmax", "50", "--nmax", "10")
    assert rc == 0
    assert len(calls) == 140


def test_verify_computes_each_class_number_once_per_run(capsys, monkeypatch):
    # d = (2n+1)p repeats across (p, n): F3 at these bounds has 109
    # square-free members but 91 distinct m.  A second run computes them
    # all again, so nothing outlives the call
    import pellkit.families
    real = pellkit.families._class_number
    calls = []

    def counting(m):
        calls.append(m)
        return real(m)
    monkeypatch.setattr(pellkit.families, "_class_number", counting)
    argv = ("verify", "F3", "--pmax", "50", "--nmax", "10", "--format", "json")
    rc, first, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert len(calls) == len(set(calls)) == 91
    rows = json.loads(first)["rows"]
    assert sum(row["h"] is not None for row in rows) == 109
    assert all(row["h"] == real(row["m"]).h_wide for row in rows if row["h"])
    rc, second, _ = run_cli(capsys, *argv)
    assert second == first and len(calls) == 2 * 91


def test_tables_exit_codes_follow_the_audit(capsys):
    for t in (1, 2, 3, 4):
        rows = reproduce_table(t)
        expected = 0 if all(r.match_h for r in rows if r.match_m) else 1
        rc, out, _ = run_cli(capsys, "tables", str(t), "--format", "csv")
        assert rc == expected, t
        assert len(out.strip().splitlines()) == len(rows) + 1  # header


def test_tables_flags_are_visible(capsys):
    _, out, _ = run_cli(capsys, "tables", "2", "--format", "csv")
    flagged = [l for l in out.splitlines() if "SUSPECTED-TYPO" in l]
    assert len(flagged) == 2
    _, out, _ = run_cli(capsys, "tables", "3", "--format", "markdown")
    assert any("starred" in l for l in out.splitlines())


def test_seed_tables(capsys):
    rc, out, _ = run_cli(capsys, "--seed-tables", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,p,n,m,h,starred"
    assert len(lines) == 1 + 24 + 30 + 32 + 32
    assert sum("true" in l for l in lines) == 1  # the single starred entry


def test_json_round_trips_to_identical_bytes(capsys):
    for argv in (["cf", "399"], ["solve", "7", "--N=-3"], ["classno", "443"],
                 ["verify", "F1", "--pmax", "10", "--nmax", "2"],
                 ["tables", "4"]):
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        reparsed = json.dumps(json.loads(out), separators=(",", ":")) + "\n"
        assert reparsed == out, argv


def test_output_is_deterministic(capsys):
    for argv in (["tables", "2", "--format", "csv"],
                 ["verify", "F3", "--pmax", "10", "--nmax", "2", "--format", "markdown"]):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_format_contents_agree_across_renderings(capsys):
    _, json_out, _ = run_cli(capsys, "tables", "1", "--format", "json")
    _, csv_out, _ = run_cli(capsys, "tables", "1", "--format", "csv")
    rows = json.loads(json_out)["rows"]
    header = csv_out.splitlines()[0].split(",")
    assert header == list(rows[0].keys())
    assert len(csv_out.strip().splitlines()) == len(rows) + 1


def test_renderer_edge_bytes(capsys):
    # a row command with no rows, and a one-row object with a square part
    empty = {"human": "", "csv": "\n", "json": '{"rows":[]}\n', "markdown": ""}
    for fmt, expected in empty.items():
        rc, out, err = run_cli(capsys, "verify", "F1", "--pmax", "1", "--format", fmt)
        assert (rc, out) == (0, expected), fmt
        assert err == "members=0 upheld=0 exceptions=0 violations=0 class_skipped=0\n"
    one_row = {
        "csv": "m,core,D,h,h_narrow,unit_norm\n7227,803,3212,2,4,1\n",
        "markdown": ("| m | core | D | h | h_narrow | unit_norm |\n"
                     "| --- | --- | --- | --- | --- | --- |\n"
                     "| 7227 | 803 | 3212 | 2 | 4 | 1 |\n"),
        "human": ("7227 = 3^2*803; h computed for 803\n"
                  "h=2 (h_narrow=4, unit norm +1, D=3212)\n"),
    }
    for fmt, expected in one_row.items():
        assert run_cli(capsys, "classno", "7227", "--format", fmt) == (0, expected, ""), fmt


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_timing_goes_to_stderr(capsys):
    rc, out, err = run_cli(capsys, "cf", "2", "--timing")
    assert rc == 0
    assert "elapsed:" in err and "elapsed:" not in out


def test_global_flags_go_before_or_after_the_command(capsys):
    _, after, _ = run_cli(capsys, "cf", "2", "--format", "json")
    rc, before, _ = run_cli(capsys, "--format", "json", "cf", "2")
    assert rc == 0 and before == after
    rc, out, _ = run_cli(capsys, "--format", "json", "cf", "2", "--format", "csv")
    assert rc == 0 and out == "m,a0,period,period_length\n2,1,2,1\n"
    rc, out, err = run_cli(capsys, "--timing", "cf", "2")
    assert rc == 0 and out == "sqrt(2) = [1; 2], period 1\n"
    assert err.startswith("elapsed:") and err.count("\n") == 1


def test_main_keeps_no_state_between_calls(capsys, monkeypatch):
    run_cli(capsys, "verify", "F4", "--allow-n0", "--pmax", "3", "--nmax", "1")
    rc, out, _ = run_cli(capsys, "verify", "F4", "--pmax", "3", "--nmax", "1",
                         "--format", "csv")
    assert rc == 0 and [row.split(",")[2] for row in out.splitlines()[1:]] == ["1"]
    assert run_cli(capsys, "solve", "7", "--N=-3")[0] == 0
    rc, _, err = run_cli(capsys, "solve", "7", "5")
    assert rc == 1 and err == ""
    run_cli(capsys, "cf", "2", "--format", "json")
    assert run_cli(capsys, "cf", "2")[1] == "sqrt(2) = [1; 2], period 1\n"
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = (["cf", "2"], ["solve", "7", "--N=-3"], ["--format", "csv", "classno", "399"],
             ["nonsense"], ["unit", "5", "--timing"])
    for i in range(20):
        main(list(argvs[i % len(argvs)]))
    capsys.readouterr()
    assert built == []


def test_module_entry_point():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pellkit", "cf", "2"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout == "sqrt(2) = [1; 2], period 1\n"
