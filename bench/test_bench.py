"""Tests of the benchmark itself: python3 -m pytest bench"""

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import tables  # noqa: E402
import workloads  # noqa: E402
from pellkit import cli  # noqa: E402

SEEDED = ("classno", "solve-small", "solve-large")


def _op_bytes(name: str, seed: int) -> bytes:
    w = workloads.Workload(name, seed)
    return json.dumps([[op.argv for op in ops] for ops in w.op_lists()]).encode()


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_op_list(name):
    assert _op_bytes(name, 7) == _op_bytes(name, 7)
    assert _op_bytes(name, 7) != _op_bytes(name, 8)


@pytest.mark.parametrize("kind", list(workloads.DRAW))
def test_quantile_tables_are_current(kind):
    assert workloads.reference_quantiles(kind) == tables.QUANTILES[kind]


def test_trial_divisions_match_a_plain_trial_division():
    def plain(n):
        while n % 2 == 0:
            n //= 2
        d, tried = 3, 0
        while d * d <= n:
            tried += 1
            while n % d == 0:
                n //= d
            d += 2
        return tried
    for n in [*range(1, 2000), 3**7 * 5, 49 * 11, 9 * 49 * 10007, 999983 * 999979, 2**40]:
        assert workloads.trial_divisions(n) == plain(n), n


def test_op_lists_respect_the_input_ranges():
    for op in workloads.Workload("solve-small", 3).op_lists()[0]:
        assert 10**5 <= op.arg <= 10**7 and op.N * op.N < op.arg
    for op in workloads.Workload("solve-large", 3).op_lists()[0]:
        assert op.N * op.N >= op.arg and abs(op.N) <= 10**12
        if op.witness:
            x0, y0 = op.witness
            assert x0 * x0 - op.arg * y0 * y0 == op.N


def _run(argv):
    op = next(o for o in _all_ops() if o.argv == tuple(argv))
    return op, run.run_op(cli, op)


def _all_ops():
    return workloads.audit_ops() + [
        workloads.solve_op(7, -3, (5, 2)),
        workloads.solve_op(7, 3),
        workloads.Op(("classno", "10", "--format", "json"), "classno", 10),
        workloads.Op(("classno", "79", "--format", "json"), "classno", 79),
    ]


def _tally(op, record):
    tally = run.Tally()
    tally.add(op, record[1], run.verdict(op, record))
    return tally


def test_right_answers_pass():
    for argv in (("solve", "7", "--N=-3", "--format", "json"),
                 ("solve", "7", "--N=3", "--format", "json"),
                 ("classno", "79", "--format", "json"),
                 ("tables", "1", "--format", "json")):
        op, record = _run(argv)
        assert _tally(op, record).failed == 0


def test_dropped_solution_class_fails():
    op, (t, rc, out, err) = _run(("solve", "7", "--N=-3", "--format", "json"))
    data = json.loads(out)
    assert data["solutions"] == [[2, 1], [5, 2]]
    data["solutions"] = [[2, 1]]
    tally = _tally(op, (t, rc, json.dumps(data), err))
    assert (tally.failed, tally.wrong) == (1, 1)
    assert "missing" in tally.reasons[0]


def test_h_off_by_one_fails():
    for m in ("10", "79"):
        op, (t, rc, out, err) = _run(("classno", m, "--format", "json"))
        data = json.loads(out)
        data["h"] += 1
        assert _tally(op, (t, rc, json.dumps(data), err)).wrong == 1


def test_wrong_audit_exit_code_fails():
    op, (t, rc, out, err) = _run(("tables", "1", "--format", "json"))
    assert rc == 1
    assert _tally(op, (t, 0, out, err)).wrong == 1


def test_exit_2_is_a_failure_but_not_a_wrong_answer():
    op, (t, rc, out, err) = _run(("solve", "7", "--N=3", "--format", "json"))
    tally = _tally(op, (t, 2, "", "pellkit: Exceeds the limit (4300 digits)\n"))
    assert (tally.failed, tally.wrong) == (1, 0)


@pytest.mark.parametrize("name", SEEDED)
def test_a_run_has_at_least_100_ops(name):
    assert sum(map(len, workloads.Workload(name, 1).op_lists())) >= 100


class _ReplayCli:
    """Prints the given outputs in turn, with exit code 0."""

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def main(self, argv):
        sys.stdout.write(next(self.outputs))
        return 0


def _rounds_replayed(first_round, second_round):
    ops = [_run(("classno", m, "--format", "json"))[0] for m in ("10", "79")]
    tally = run.Tally()
    times, rounds, _kernel = run.run_rounds(ops, 0, _ReplayCli(first_round + second_round), tally)
    assert rounds == run.MIN_ROUNDS == 2 and len(times[False]) == 2
    return tally


def test_repeated_runs_of_a_right_answer_pass():
    outs = [_run(("classno", m, "--format", "json"))[1][2] for m in ("10", "79")]
    tally = _rounds_replayed(outs, outs)
    assert (tally.attempted, tally.failed) == (4, 0)


def test_a_later_run_with_other_output_fails():
    outs = [_run(("classno", m, "--format", "json"))[1][2] for m in ("10", "79")]
    data = json.loads(outs[1])
    data["h"] += 1
    tally = _rounds_replayed(outs, [outs[0], json.dumps(data)])
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 1, 1)
    assert "differs from its first run" in tally.reasons[0]


def test_wall_s_sums_the_interquartile_mean_of_each_stratum():
    w = workloads.Workload("solve-large", 1)
    n_lists, n_items = workloads.LISTS["solve-large"], w.list_items
    # op (k, j, o): op o of item j in list k takes (k + 1) * (j + 1) ms.
    times = [(k + 1) * (j + 1) / 1000 for k in range(n_lists) for j in range(n_items) for _o in (0, 1)]
    median_k = statistics.median(range(1, n_lists + 1))
    expected = sum(2 * median_k * (j + 1) for j in range(n_items)) / 1000
    assert run.end_to_end(w, times)["wall_s"][0] == pytest.approx(expected)
    audit = workloads.Workload("audit", 1)
    assert run.end_to_end(audit, [0.5] * 8)["wall_s"][0] == pytest.approx(4.0)
    assert run.interquartile_mean([1, 2, 3, 4, 5, 6, 7, 100]) == pytest.approx(4.5)


def test_percentiles_are_harrell_davis_estimates():
    assert run.percentile_ms([0.002] * 50, 90) == pytest.approx(2.0)
    grid = [i / 1000 for i in range(1001)]  # 0 .. 1 s
    assert run.percentile_ms(grid, 50) == pytest.approx(500, abs=1)
    assert run.percentile_ms(grid, 90) == pytest.approx(900, abs=1)
    skewed = [0.001] * 90 + [1.0] * 10
    assert 1 < run.percentile_ms(skewed, 90) < 1000


def test_tracing_leaves_output_bytes_unchanged():
    ops = (_all_ops()[:1] + _all_ops()[-4:] + workloads.Workload("solve-small", 1).op_lists()[0][:2]
           + workloads.Workload("solve-large", 1).op_lists()[0][:4])
    plain = [run.run_op(cli, op)[1:] for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run.run_op(cli, op)[1:] for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "pell.solve.convergents", "pell.solve.bounded",
            "classgroup.reduced_forms", "cfrac.iter_convergents"} <= names
    assert not names & {"intkit.isqrt", "intkit.gcd", "classgroup.rho"}


def test_uninstall_restores_every_binding():
    import pellkit.classgroup
    import pellkit.families
    before = pellkit.families.class_number
    tracer = spans.Tracer()
    tracer.install()
    assert pellkit.families.class_number is not before
    assert pellkit.families.class_number is pellkit.classgroup.class_number
    tracer.uninstall()
    assert pellkit.families.class_number is before


def test_self_times_add_up_to_top_level_spans():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", "F2", "--pmax", "7", "--format", "json"])
    finally:
        tracer.uninstall()
    top = sum(s[2] - s[1] for s in tracer.spans if s[4] == -1)
    assert sum(s[3] for s in tracer.spans) == pytest.approx(top, rel=1e-9)
    assert all(s[3] >= 0 for s in tracer.spans)
