"""Digest of the CLI's bytes on the paper's audit, in all four formats.

    python3 tools/cli_digest.py

Runs `pellkit.cli.main` in process on `tables 1` to `tables 4`, on
`verify F1` to `verify F4 --pmax 50 --nmax 10` with each of the four
combinations of `--congruence` and `--allow-n0`, and on `--seed-tables`,
each under `--format` human, csv, json and markdown (84 runs).  Prints the
sha256 of the lines repr((argv, exit code, stdout, stderr)), in that order.
Each line ends in "\\n".  It takes about 2 s on a 2-vCPU VM under CPython
3.11.  A change that must keep every CLI byte prints the same digest before
and after it.
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


def commands() -> list[list[str]]:
    runs = [["tables", str(t)] for t in (1, 2, 3, 4)]
    runs += [["verify", f"F{i}", *VERIFY_BOUNDS, *flags]
             for i in (1, 2, 3, 4) for flags in VERIFY_FLAGS]
    runs.append(["--seed-tables"])
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
