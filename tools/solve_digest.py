"""Digest of the Pell-type certificates of every nonsquare m below 2000.

    python3 tools/solve_digest.py

Prints the sha256 of the lines f"{m} {N} {method} {scan_length} {solutions}"
of c = solve_pm_N(m, N) over the nonsquare m with 2 <= m < 2000, in order,
and for each m over N = n, -n with n = 1, 2, ..., isqrt(m) + 5: every N
with N^2 < m (115,280 certificates from the convergent scan) and then the
five least |N| with N^2 >= m, which go through the Lagrange-Matthews-Mollin
path and its unit read (19,550 more).  `solutions` is the tuple of (x, y)
pairs as Python prints it.  Each line ends in "\\n".  It takes about 1.5 s on a
2-vCPU VM under CPython 3.11.  A change that must keep every certificate
prints the same digest before and after it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellkit import isqrt, solve_pm_N  # noqa: E402

LIMIT = 2_000
PAST_ROOT = 5


def main() -> None:
    digest = hashlib.sha256()
    for m in range(2, LIMIT):
        root, square = isqrt(m)
        if square:
            continue
        for n in range(1, root + PAST_ROOT + 1):
            for N in (n, -n):
                c = solve_pm_N(m, N)
                line = f"{m} {N} {c.method} {c.scan_length} {c.solutions}"
                digest.update(f"{line}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
