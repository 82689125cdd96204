"""Same-process A/B timer for two versions of pellkit's classgroup.py.

    python3 tools/ab_class_number.py BASE [HEAD] [--rounds 15] [--seeds 1 2 3]
                                     [--large]

BASE and HEAD are each a path to a classgroup.py or a git revision, read as
REV:src/pellkit/classgroup.py; HEAD defaults to the working tree's file.
Both are loaded into one interpreter as modules of the installed pellkit
(from src/), so they share intkit and everything else, and must agree with
it.  Each round times _class_number over two lists of m, once per version,
alternating which version goes first:

* audit: every m the benchmark's audit workload (tables 1-4, verify F1-F4
  at --pmax 50 --nmax 10) passes to _class_number, in call order;
* classno: the square-free cores of the benchmark's classno ops for the
  given seeds;
* large, with --large only: m = 10**12 + 39, next to the enumeration limit
  (isqrt(D) = 2*10^6), and m = 10**11 + 3: about 2 s a round for both

Before round 1, each version runs each list once, untimed: that checks
that both return the same class data for every m, and it grows the prime
table of intkit that the versions share (intkit._prime_table) to the
largest seed bound of the list, so that no timed round pays to build it.
Prints, per list, the median HEAD/BASE time ratio and its interquartile
range over the rounds.  Timing both versions in one process, interleaved,
removes the machine's drift between separate runs, which can exceed the
effect being measured; it is no substitute for bench/run.py's end-to-end
runs.  Only classgroup.py differs between the two: a change to intkit,
such as to how the prime table is built or grown, is invisible here and
needs alternating bench/run.py pairs of the two commits.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pellkit.cli  # noqa: E402
import pellkit.families  # noqa: E402
from pellkit import squarefree_core  # noqa: E402
from workloads import Workload, audit_ops  # noqa: E402

RELATIVE = "src/pellkit/classgroup.py"
LARGE = [10**12 + 39, 10**11 + 3]


def load(spec: str, name: str):
    """The classgroup module in the file or at the git revision spec."""
    path = Path(spec)
    if path.is_file():
        source = path.read_text()
    else:
        source = subprocess.run(["git", "show", f"{spec}:{RELATIVE}"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(f"pellkit._ab_{name}", loader=None))
    module.__package__ = "pellkit"
    # older revisions build ClassData with @dataclass, which looks its module
    # up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(source, f"{spec} ({name})", "exec"), module.__dict__)
    return module


def audit_ms() -> list[int]:
    """The m of every _class_number call of one audit round, in order."""
    calls = []
    real = pellkit.families._class_number

    def recording(m):
        calls.append(m)
        return real(m)
    for module in (pellkit.cli, pellkit.families):
        module._class_number = recording
    try:
        for op in audit_ops():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                pellkit.cli.main(list(op.argv))
    finally:
        for module in (pellkit.cli, pellkit.families):
            module._class_number = real
    return calls


def classno_ms(seeds: list[int]) -> list[int]:
    return [squarefree_core(op.arg)[0]
            for seed in seeds for ops in Workload("classno", seed).op_lists()
            for op in ops]


def run(module, ms: list[int]) -> tuple[float, list[tuple]]:
    number = module._class_number
    start = perf_counter()
    data = [number(m) for m in ms]
    return perf_counter() - start, [(d.m, d.D, d.h_narrow, d.h_wide, d.unit_norm)
                                    for d in data]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default=str(ROOT / RELATIVE))
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--large", action="store_true",
                        help="also time the limit case")
    args = parser.parse_args()
    versions = (load(args.base, "base"), load(args.head, "head"))
    lists = {"audit": audit_ms(), "classno": classno_ms(args.seeds)}
    if args.large:
        lists["large"] = LARGE
    ratios = {name: [] for name in lists}
    for name, ms in lists.items():  # untimed: check, and grow the prime table
        base, head = (run(v, ms)[1] for v in versions)
        mismatch = next((b for b, h in zip(base, head) if b != h), None)
        if mismatch:
            raise SystemExit(f"{name}: class data differ at m = {mismatch[0]}")
    for r in range(args.rounds):
        for name, ms in lists.items():
            order = versions if r % 2 == 0 else versions[::-1]
            times = {v: run(v, ms)[0] for v in order}
            ratios[name].append(times[versions[1]] / times[versions[0]])
    for name, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: {len(lists[name])} class numbers, {args.rounds} rounds, "
              f"head/base median {median:.3f}, IQR {q3 - q1:.3f} ({q1:.3f}-{q3:.3f})")


if __name__ == "__main__":
    main()
