"""Digest of the Pell solutions and units of every nonsquare m below 20000.

    python3 tools/unit_digest.py

Prints the sha256 of the lines f"{m} {x} {y} {nx} {ny}" over the nonsquare
m with 2 <= m < 20000, in order, where (x, y) = pell_fundamental(m) and
(nx, ny) = neg_pell(m), or "- -" when x^2 - m*y^2 = -1 has no solution.
For square-free m the line continues with f" {u.a} {u.b} {u.denom} {n}",
u = fundamental_unit(m) and n = unit_norm(m).  Each line ends in "\\n".
It takes about 1 s on a 2-vCPU VM under CPython 3.11.  A change that must
keep every unit prints the same digest before and after it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellkit import (fundamental_unit, isqrt, neg_pell,  # noqa: E402
                     pell_fundamental, squarefree_core, unit_norm)

LIMIT = 20_000


def main() -> None:
    digest = hashlib.sha256()
    for m in range(2, LIMIT):
        if isqrt(m)[1]:
            continue
        x, y = pell_fundamental(m)
        neg = neg_pell(m)
        nx, ny = neg if neg else ("-", "-")
        line = f"{m} {x} {y} {nx} {ny}"
        if squarefree_core(m)[1]:
            u = fundamental_unit(m)
            line += f" {u.a} {u.b} {u.denom} {unit_norm(m)}"
        digest.update(f"{line}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
