"""Digest of the class data of every square-free m below 200000.

    python3 tools/class_digest.py

Prints the sha256 of the lines f"{m} {h_narrow} {h_wide} {unit_norm}\\n" of
class_number(m) over the square-free m with 2 <= m < 200000, in order; it
takes about 20 s on a 2-vCPU VM under CPython 3.11.  A change that must
keep every class number prints the same digest before and after it.  The
tests check the same lines for m < 30000 only (tests/test_classgroup.py).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellkit import class_number, squarefree_core  # noqa: E402

LIMIT = 200_000


def main() -> None:
    digest = hashlib.sha256()
    for m in range(2, LIMIT):
        if squarefree_core(m)[1]:
            c = class_number(m)
            digest.update(f"{m} {c.h_narrow} {c.h_wide} {c.unit_norm}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
