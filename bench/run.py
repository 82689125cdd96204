"""pellkit benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload classno --seed 1 --seconds 30 --trace 0

One client works in a closed loop: each op is one in-process
`pellkit.cli.main(argv)` call with stdout and stderr captured, and the next
op starts when it returns.  A run's ops (the workload's op lists for the
seed) run in rounds, every op once per round, until the next round would
end after `--seconds`.  Every op's time is scaled to a reference speed
(`speed.py`) and is its median over the rounds.  Every output is checked
outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (per traced op list) and the
tracing overhead; spans go to bench/out/.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
`failed` counts op runs that exited 2, raised, or gave a wrong answer;
`correct` is false when any answer was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

from checks import check
from spans import PER_LAYER, Tracer
from speed import REFERENCE_S, kernel_s
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 2
KERNEL_WINDOW = 16
KERNEL_EVERY = 0.05
HD_STEPS = 64
SETUP_RUNS = 9
_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import pellkit, pellkit.cli; print(time.perf_counter() - t)")


def measure_setup() -> float:
    """Median time to import pellkit and its CLI, each in a fresh interpreter,
    scaled to the reference speed with the kernel timed around it."""
    times = []
    before = kernel_s()
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        after = kernel_s()
        times.append(float(proc.stdout) * REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(times)


def import_cli():
    sys.path.insert(0, str(SRC))
    import pellkit
    import pellkit.cli
    if SRC.resolve() not in Path(pellkit.__file__).resolve().parents:
        raise ImportError(f"pellkit imported from {pellkit.__file__}, not {SRC}")
    return pellkit.cli


def run_op(cli, op):
    """(seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return perf_counter() - t0, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class Tally:
    """Attempted, failed and wrong ops, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons: list[str] = []

    def add(self, op, rc, reason) -> None:
        """Count one run of op; reason is None when its output was right."""
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if rc not in (None, 2):
            self.wrong += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{' '.join(op.argv)}: {reason}")


def verdict(op, record) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    _t, rc, out, err = record
    return err if rc is None else check(op, rc, out, err)


def percentile_ms(latencies: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile, in ms: the mean of all
    order statistics weighted by a Beta((n + 1)p, (n + 1)(1 - p)) density.
    It is much steadier than the one or two order statistics a plain
    percentile reads, which matters in the sparse upper tail."""
    xs = sorted(latencies)
    n, p = len(xs), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)

    def density(t: float) -> float:  # up to a constant factor
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # weight of order statistic i: the density's mass on [i/n, (i+1)/n]
    # by the midpoint rule with HD_STEPS points
    weights = [sum(density((i + (k + 0.5) / HD_STEPS) / n) for k in range(HD_STEPS))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights) * 1000


def run_rounds(ops, seconds: float, cli, tally: Tally, tracer: Tracer | None = None):
    """Run every op once per round until the next round would end after
    `seconds` (at least MIN_ROUNDS rounds); return {traced: per-op times},
    the number of rounds and the last median kernel time.

    Each op's time is scaled to the reference speed (`speed.py`) with the
    median of the last KERNEL_WINDOW kernel times, taken between ops, one
    per KERNEL_EVERY seconds of op time.  It is the median over the rounds
    (with a tracer: over the untraced rounds, and separately over the
    traced ones, which alternate with them).  The first run of each op is checked in
    full; a later run must print the same bytes and exit code, as the CLI's
    output is byte-identical for the same input, and inherits that verdict.
    """
    scaled = {False: [[] for _ in ops], True: [[] for _ in ops]}
    first: list = [None] * len(ops)
    rounds = 0
    t_start = perf_counter()
    last = 0.0
    kernels = deque((kernel_s() for _ in range(KERNEL_WINDOW)), maxlen=KERNEL_WINDOW)
    since_kernel = 0.0
    while rounds < MIN_ROUNDS or perf_counter() - t_start + last <= seconds:
        t_round = perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        records = []
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                record = run_op(cli, op)
                # A kernel sample per KERNEL_EVERY of op time: the drift is slow.
                since_kernel += record[0]
                if since_kernel >= KERNEL_EVERY:
                    samples = min(KERNEL_WINDOW // 2, round(since_kernel / KERNEL_EVERY))
                    kernels.extend(kernel_s() for _ in range(samples))
                    since_kernel = 0.0
                scaled[traced][i].append(record[0] * REFERENCE_S / statistics.median(kernels))
                records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        for i, (op, record) in enumerate(zip(ops, records)):
            if first[i] is None:
                first[i] = (record[1:], verdict(op, record))
                reason = first[i][1]
            else:
                reason = first[i][1] if record[1:] == first[i][0] else "output differs from its first run"
            tally.add(op, record[1], reason)
            if traced:
                tracer.counters["cli.bytes_out"] += len(record[2].encode())
        rounds += 1
        last = perf_counter() - t_round
    times = {k: [statistics.median(v) for v in vs] for k, vs in scaled.items() if vs and vs[0]}
    return times, rounds, statistics.median(kernels)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: the lowest and highest quarter dropped."""
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def end_to_end(workload: Workload, times: list[float]) -> dict:
    """wall_s: the time of a typical op list, the sum over the op lists'
    strata of the interquartile mean time of the stratum's items
    (`workloads.py`); the op latency percentiles are over every op of the run."""
    lists = workload.op_lists()
    bands: list[list[float]] = [[] for _ in range(workload.list_items)]
    pos = 0
    for ops in lists:
        per = len(ops) // len(bands)
        for j, band in enumerate(bands):
            band.append(sum(times[pos + j * per:pos + (j + 1) * per]))
        pos += len(ops)
    return {
        "wall_s": (sum(map(interquartile_mean, bands)), "s"),
        "op_p50_ms": (percentile_ms(times, 50), "ms"),
        "op_p90_ms": (percentile_ms(times, 90), "ms"),
    }


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pellkit" / "cli.py").is_file():
        print(f"bench: no pellkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        setup_s = None if args.trace else measure_setup()
        cli = import_cli()
    except (OSError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: cannot set up pellkit: {exc}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed)
    ops = [op for ops in workload.op_lists() for op in ops]
    tally = Tally()
    tracer = Tracer() if args.trace else None
    times, rounds, kernel = run_rounds(ops, args.seconds, cli, tally, tracer)
    info = {"ops": len(ops), "rounds": rounds, "ops_s": round(sum(times[False]), 4),
            "kernel_ms": round(kernel * 1000, 3)}
    if tracer:
        agg = tracer.aggregate(per=(rounds // 2) * len(workload.op_lists()))
        metrics = {name: (fn(agg), unit) for name, (unit, fn) in PER_LAYER.items()}
        metrics["trace.overhead"] = (sum(times[True]) / sum(times[False]) - 1, "ratio")
        info["top_self_s"] = [(n, round(s, 4)) for n, s in agg.top(5)]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {**end_to_end(workload, times[False]), "setup_s": (setup_s, "s")}

    # Reported but not gated: error_rate is 0 on most runs and peak RSS is set
    # by the single largest op of a run.
    extra = {"error_rate": (tally.failed / tally.attempted, "ratio"),
             "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")}
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} info {json.dumps(info)}")
    for reason in tally.reasons:
        print(f"{args.workload} failed {reason}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
