"""Output checks for benchmark ops.

`check(op, rc, out, err)` returns None when the CLI's answer is right and a
one-line reason otherwise.  The checks use only the integer helpers in
`workloads`, never `pellkit`, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import TABLE_FAMILY, Op, discriminant, prime_factors, squarefree_core

BRUTE_FORCE_Y = 1000

# Audit facts fixed by the paper's data (exit codes 1 and 3 are results: the
# printed h(4623) = 16 is really 12, and (d, 1) solves the F2 -3 equation).
TABLE_ROWS = {1: 24, 2: 30, 3: 32, 4: 32}
TABLE_EXIT = {1: 1, 2: 0, 3: 0, 4: 0}
FAMILY_MEMBERS = {"F1": 150, "F2": 45, "F3": 140, "F4": 140}
FAMILY_EXIT = {"F1": 0, "F2": 3, "F3": 0, "F4": 0}
FAMILY_R = {"F1": -1, "F2": 3, "F3": 2, "F4": -2}
# The CLI's output is byte-identical for the same input; these are the
# SHA-256 digests of the audit's stdout.
AUDIT_SHA256 = {
    "1": "b5875d459d4cadeebcd24790703ea497489ef530a2492e446ae2e450a2a233f2",
    "2": "7f78ce63cc1c14a9da1a498af1c44f35f0396e0b6ed8d18bf88ea123b4bb060d",
    "3": "1dc10611ccda6a7b3d889db49272a53704d44e9b2f893f1345c3c93c0013e303",
    "4": "55f39074820b7d2c13e1f3037ee0800ce13ef89aeaaa97096f527577ccba050a",
    "F1": "ff9d7fc6d2594ee7a82fa907881d78791516b765361f564ac618793b3ccbfff1",
    "F2": "0f689361c05c604f411cb3d7691a5d598b47495b5bf7b12e97e35736a2ce826f",
    "F3": "e2bdeca5014cefbc970ff73a53964a7e4812d99529cd831e1087ca4ec876240b",
    "F4": "eab7a5d49ed9a375e66367cc095de28565dfd192664c344dd623e1ee6f7a072e",
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _same_class(s, t, m: int, N: int) -> bool:
    # (x1 + y1 sqrt m) / (x2 + y2 sqrt m) is a unit of Z[sqrt m] exactly when
    # both coordinates of (x1 + y1 sqrt m)(x2 - y2 sqrt m) are divisible by N.
    (x1, y1), (x2, y2) = s, t
    return (x1 * x2 - m * y1 * y2) % N == 0 and (x1 * y2 - y1 * x2) % N == 0


def _check_pairs(pairs, m: int, N: int) -> list[tuple[int, int]]:
    out = []
    for pair in pairs:
        _require(isinstance(pair, list) and len(pair) == 2, f"malformed solution {pair!r}")
        x, y = pair
        _require(x > 0 and y > 0, f"({x},{y}) is not positive")
        _require(math.gcd(x, y) == 1, f"({x},{y}) is not coprime")
        _require(x * x - m * y * y == N, f"({x},{y}) does not solve x^2 - {m}y^2 = {N}")
        out.append((x, y))
    return out


def _check_solve(op: Op, rc: int, data: dict) -> None:
    m, N = op.arg, op.N
    _require(data.get("m") == m and data.get("N") == N, "m or N not echoed")
    _require(data.get("complete") is True, "certificate not complete")
    _require(isinstance(data.get("scan_length"), int) and data["scan_length"] >= 1,
             "bad scan_length")
    sols = _check_pairs(data.get("solutions", []), m, N)
    _require(rc == (0 if sols else 1), f"exit {rc} with {len(sols)} solutions")
    for i, s in enumerate(sols):
        for t in sols[:i]:
            _require(not _same_class(s, t, m, N), f"{s} and {t} are in one class")
    found = [op.witness] if op.witness else []
    for y in range(1, BRUTE_FORCE_Y + 1):
        t = m * y * y + N
        x = math.isqrt(t) if t >= 0 else -1
        if x >= 0 and x * x == t and math.gcd(x, y) == 1:
            found.append((x, y))
    for s in found:
        _require(any(_same_class(s, t, m, N) for t in sols),
                 f"class of solution {s} missing from the certificate")


def _check_classno(op: Op, rc: int, data: dict) -> None:
    _require(rc == 0, f"exit {rc}")
    m = op.arg
    core = squarefree_core(m)
    D = discriminant(core)
    _require(data.get("m") == m and data.get("core") == core and data.get("D") == D,
             "m, core or D wrong")
    h, hn, norm = data.get("h"), data.get("h_narrow"), data.get("unit_norm")
    _require(norm in (1, -1), "unit_norm not +-1")
    _require(isinstance(h, int) and h >= 1, "h < 1")
    _require(hn == h * (2 if norm == 1 else 1), "h_narrow/h/unit_norm relation violated")
    primes = prime_factors(D)
    # genus theory: 2^(t-1) divides h+ for t prime discriminant factors
    _require(hn % 2 ** (len(primes) - 1) == 0, "h_narrow not divisible by the genus count")
    if norm == -1:
        _require(all(p % 4 != 3 for p in primes), "norm -1 unit with a prime 3 mod 4 in D")


def _check_tables(op: Op, rc: int, data: dict) -> None:
    t = op.arg
    r = FAMILY_R[TABLE_FAMILY[t]]
    rows = data.get("rows", [])
    _require(len(rows) == TABLE_ROWS[t], f"{len(rows)} rows, expected {TABLE_ROWS[t]}")
    _require(rc == TABLE_EXIT[t], f"exit {rc}, expected {TABLE_EXIT[t]}")
    for row in rows:
        d = 2 * row["n"] * row["p"] if r in (-1, 3) else (2 * row["n"] + 1) * row["p"]
        m = d * d + r
        _require(row["table"] == t and row["m_recomputed"] == m, f"row {row} m wrong")
        _require(row["match_m"] == (row["m_printed"] == m), f"row {row} match_m wrong")
        _require((row["h_printed_m"] is None) == row["match_m"], f"row {row} h_printed_m")
        _require(row["squarefree"] == (squarefree_core(m) == m), f"row {row} squarefree")
        _require(row["match_h"] == (row["match_m"] and row["h_printed"] == row["h_computed"]),
                 f"row {row} match_h wrong")
    _require(rc == (0 if all(r["match_h"] for r in rows if r["match_m"]) else 1),
             "exit code disagrees with the rows")


def _check_verify(op: Op, rc: int, data: dict, err: str) -> None:
    f = op.arg
    r = FAMILY_R[f]
    rows = data.get("rows", [])
    _require(len(rows) == FAMILY_MEMBERS[f], f"{len(rows)} members, expected {FAMILY_MEMBERS[f]}")
    _require(rc == FAMILY_EXIT[f], f"exit {rc}, expected {FAMILY_EXIT[f]}")
    violations = 0
    for row in rows:
        m = row["d"] * row["d"] + r
        _require(row["family"] == f and row["m"] == m, f"row {row} m wrong")
        plus = _check_pairs(row["plus"], m, row["p"])
        minus = _check_pairs(row["minus"], m, -row["p"])
        _require(row["upheld"] == (not plus and not minus), f"row {row} upheld wrong")
        violations += not row["upheld"]
        _require(row["squarefree"] == (squarefree_core(m) == m), f"row {row} squarefree")
        _require((row["h"] is None) == (not row["squarefree"]), f"row {row} h presence")
        if row["h"] is not None:
            _require(row["h_gt_1"] == (row["h"] > 1), f"row {row} h_gt_1 wrong")
    _require(rc == (3 if violations else 0), "exit code disagrees with the rows")
    _require(f"members={len(rows)} " in err and f"violations={violations} " in err,
             "stderr summary disagrees with the rows")


def check(op: Op, rc: int, out: str, err: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    if rc == 2:
        return f"exit 2: {err.strip().splitlines()[0] if err.strip() else 'no message'}"
    try:
        data = json.loads(out)
        _require(isinstance(data, dict), "output is not a JSON object")
        if op.kind == "solve":
            _check_solve(op, rc, data)
        elif op.kind == "classno":
            _check_classno(op, rc, data)
        else:
            if op.kind == "tables":
                _check_tables(op, rc, data)
            else:
                _check_verify(op, rc, data, err)
            digest = hashlib.sha256(out.encode()).hexdigest()
            _require(digest == AUDIT_SHA256[op.argv[1]], "audit output bytes changed")
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
