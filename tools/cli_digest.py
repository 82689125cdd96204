"""Digest of the CLI's bytes on every renderer path, in all four formats.

    python3 tools/cli_digest.py

Runs `pellkit.cli.main` in process, each command under `--format` human,
csv, json and markdown:

- the paper's audit: `tables 1` to `tables 4`, `verify F1` to
  `verify F4 --pmax 50 --nmax 10` with each of the four combinations of
  `--congruence` and `--allow-n0`, and `--seed-tables`;
- `cf`, on a period of two terms and on a refused square;
- `solve`: a convergent hit, a convergent miss with and without the coprime
  note, two LMM hits (one at a negative `N`), an LMM miss with and without
  the coprime note, and `--ymax` with and without a solution;
- `unit` and `classno` on a square-free `m`, on `m` with a square part
  (the core note) and on two refused `m`, and `classno 100000980001501`
  (past the enumeration limit, exit 4);
- the empty `verify F1 --pmax 1`.

That is 168 runs.  Prints the sha256 of the lines
repr((argv, exit code, stdout, stderr)), in that order.  Each line ends in
"\\n".  It takes about 1 s on a 2-vCPU VM under CPython 3.11.  A change that
must keep every CLI byte prints the same digest before and after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellkit import cli  # noqa: E402

VERIFY_BOUNDS = ["--pmax", "50", "--nmax", "10"]
VERIFY_FLAGS = ([], ["--congruence"], ["--allow-n0"], ["--congruence", "--allow-n0"])
PROBES = (
    ["cf", "399"], ["cf", "4"],
    ["solve", "7", "2"], ["solve", "399", "4"], ["solve", "399", "5"],
    ["solve", "7", "9"], ["solve", "7", "--N=-3"], ["solve", "10", "13"], ["solve", "109", "1000"],
    ["solve", "7", "--N=-3", "--ymax", "20"], ["solve", "10", "7", "--ymax", "100"],
    *([command, m] for command in ("unit", "classno") for m in ("399", "7227", "1", "4")),
    ["classno", "100000980001501"],
    ["verify", "F1", "--pmax", "1"],
)


def commands() -> list[list[str]]:
    runs = [["tables", str(t)] for t in (1, 2, 3, 4)]
    runs += [["verify", f"F{i}", *VERIFY_BOUNDS, *flags]
             for i in (1, 2, 3, 4) for flags in VERIFY_FLAGS]
    runs.append(["--seed-tables"])
    runs += PROBES
    return [["--format", fmt, *argv] for fmt in cli.FORMATS for argv in runs]


def main() -> None:
    digest = hashlib.sha256()
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        digest.update(f"{(argv, rc, out.getvalue(), err.getvalue())!r}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
