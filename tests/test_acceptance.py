"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1 and 3 are implemented exactly as stated and are EXPECTED TO FAIL,
because the published source data they mirror contains two genuine defects
(both independently cross-verified inside this suite):

  * criterion 1 - the audited Table 1 row (p=17, n=2, m=4623) prints h = 16,
    but h(4623) = 12: the cycle count and the analytic class number formula
    agree, and every other matching row of all four tables reproduces.

  * criterion 3 - the claimed non-solvability of x^2 - m y^2 = -p fails
    structurally for the d^2 + 3 family at p = 3: m - d^2 = 3 makes (d, 1) a
    solution of x^2 - m y^2 = -3 for every member, e.g. 18^2 - 327 = -3.
    The brute-force oracle confirms each reported counterexample.

Everything else passes at zero tolerance.
"""

import pytest

from pellkit import (FAMILY_IDS, check_yamaguchi_hypothesis, class_conclusion,
                     class_number, discriminant_of, family_spec,
                     fundamental_unit, gcd, gen_members, isqrt, jacobi,
                     neg_pell, rd_unit, reproduce_table,
                     solve_pm_N, squarefree_core, unit_norm)

from oracle_utils import (analytic_class_number, orbit_closure, period_length,
                          primitive_brute_force, reference_narrow_class_number)

DESK_P_MAX = 100
DESK_N_MAX = 20
DESK_M_MAX = 10**6
BF_Y_MAX = 2000


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def audit_rows():
    return {t: reproduce_table(t) for t in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def desk_members():
    members = []
    for fid in FAMILY_IDS:
        members += [m for m in gen_members(fid, DESK_P_MAX, DESK_N_MAX)
                    if m.m <= DESK_M_MAX]
    return members


def test_criterion_01_table_reproduction(audit_rows):
    anchors = {399: 8, 1155: 8, 11235: 24, 327: 2, 903: 4,
               443: 3, 2603: 4, 1087: 7, 7223: 4}
    failures = []
    checked = 0
    for t, rows in audit_rows.items():
        for r in rows:
            if not r.match_m:
                continue
            checked += 1
            if r.m_recomputed in anchors:
                assert r.h_printed == anchors.pop(r.m_recomputed)
            if r.h_computed != r.h_printed:
                failures.append(
                    f"table {t} ({r.p},{r.n}) m={r.m_recomputed}: printed "
                    f"h={r.h_printed}, computed h={r.h_computed}, analytic "
                    f"h={analytic_class_number(r.core):.4f}")
    assert not anchors, f"anchor rows missing from the tables: {anchors}"
    _report(1, not failures,
            f"{checked} matching rows checked; disputed: {failures or 'none'}")


def test_criterion_02_typo_audit(audit_rows):
    flagged_t2 = [r for r in audit_rows[2] if not r.match_m]
    silently_matched = [
        (t, r.p, r.n) for t, rows in audit_rows.items()
        for r in rows if not r.match_m and r.match_h
    ]
    ok = bool(flagged_t2) and not silently_matched
    _report(2, ok,
            f"table 2 flags {[(r.p, r.n) for r in flagged_t2]}; "
            f"silently matched: {silently_matched or 'none'}")


def test_criterion_03_theorem_verification(desk_members):
    violations = []
    oracle_breaks = []
    checked = 0
    for mem in desk_members:
        if not mem.m_is_squarefree:
            continue
        checked += 1
        for target in (mem.p, -mem.p):
            cert = solve_pm_N(mem.m, target)
            oracle = primitive_brute_force(mem.m, target, BF_Y_MAX)
            if orbit_closure(cert.solutions, mem.m, BF_Y_MAX) != oracle:
                oracle_breaks.append((mem.family, mem.p, mem.n, target))
            if cert.has_solutions:
                violations.append(
                    f"{mem.family} p={mem.p} n={mem.n} m={mem.m} N={target}: "
                    f"{list(cert.solutions)}")
    assert not oracle_breaks, f"certificate/brute-force disagreement: {oracle_breaks}"
    _report(3, not violations,
            f"{checked} square-free members swept (both signs, brute-force "
            f"cross-checked to y={BF_Y_MAX}); violating members: {violations or 'none'}")


def test_criterion_04_exceptional_solutions():
    cert = solve_pm_N(7, -3)
    exact = cert.solutions == ((2, 1), (5, 2))
    stray = []
    for mem in gen_members("F4", DESK_P_MAX, DESK_N_MAX):
        if mem.m > DESK_M_MAX:
            continue
        for target in (mem.p, -mem.p):
            if solve_pm_N(mem.m, target).has_solutions:
                stray.append((mem.p, mem.n, target))
    _report(4, exact and not stray,
            f"solve_pm_N(7,-3) = {list(cert.solutions)}; "
            f"other instances with solutions: {stray or 'none'}")


def test_criterion_05_unit_closed_forms(desk_members):
    bad = []
    for mem in desk_members:
        rd = rd_unit(family_spec(mem.family).rd_family, mem.d)
        if rd.norm != 1 or period_length(mem.m) % 2:
            bad.append((mem.family, mem.p, mem.n, "norm/period"))
            continue
        if mem.m_is_squarefree:
            if fundamental_unit(mem.m) != rd or unit_norm(mem.m) != 1:
                bad.append((mem.family, mem.p, mem.n, "fundamental unit"))
    _report(5, not bad,
            f"{len(desk_members)} members: closed-form unit matches, norm +1, "
            f"even period; failures: {bad or 'none'}")


def test_criterion_06_negative_pell_criterion():
    bad = []
    for m in range(2, 2001):
        if isqrt(m)[1]:
            continue
        sol = neg_pell(m)
        odd = period_length(m) % 2 == 1
        if (sol is not None) != odd:
            bad.append(m)
        elif sol is not None and sol[0] ** 2 - m * sol[1] ** 2 != -1:
            bad.append(m)
    _report(6, not bad, f"m <= 2000 swept; mismatches: {bad or 'none'}")


def test_criterion_07_oracle_equivalence():
    # Fundamental representatives can sit at y ~ 10^8 for m with a huge unit
    # (m = 181, 211, ...), far beyond any feasible brute-force window, so the
    # equivalence is checked as orbit-closure equality below a fixed cap plus
    # exact substitution of every certificate solution above it.
    bad = []
    pairs = 0
    for m in range(2, 301):
        if isqrt(m)[1]:
            continue
        bound = isqrt(m - 1)[0]
        for n in range(-bound, bound + 1):
            if n == 0:
                continue
            pairs += 1
            cert = solve_pm_N(m, n)
            if any(x * x - m * y * y != n for x, y in cert.solutions):
                bad.append((m, n))
                continue
            if orbit_closure(cert.solutions, m, BF_Y_MAX) != primitive_brute_force(m, n, BF_Y_MAX):
                bad.append((m, n))
    _report(7, not bad, f"{pairs} (m, N) instances compared; disagreements: {bad or 'none'}")


def test_criterion_08_narrow_wide_relation():
    bad = []
    count = 0
    for m in range(2, 501):
        if not squarefree_core(m)[1]:
            continue
        count += 1
        h_narrow = reference_narrow_class_number(discriminant_of(m))  # cycle count alone
        data = class_number(m)
        factor = 2 if unit_norm(m) == 1 else 1
        if h_narrow != factor * data.h_wide or h_narrow != data.h_narrow:
            bad.append(m)
    _report(8, not bad, f"{count} square-free m checked; failures: {bad or 'none'}")


def test_criterion_09_splitting_check():
    members = [m for m in gen_members("F1", DESK_P_MAX, DESK_N_MAX,
                                      require_congruence=True)
               if m.m <= DESK_M_MAX]
    bad = [(mem.p, mem.n) for mem in members if jacobi(mem.m, mem.p) != 1]
    _report(9, bool(members) and not bad,
            f"{len(members)} F1 members with p = 1 (mod 4); "
            f"non-split: {bad or 'none'}")


def test_criterion_10_yamaguchi_gate(audit_rows):
    bad = []
    checked = 0
    for rows in audit_rows.values():
        for r in rows:
            if not r.m_is_squarefree:
                continue
            checked += 1
            if class_conclusion(r.m_recomputed) != (True, True):
                bad.append(r.m_recomputed)
    withheld = class_conclusion(5)[1] is False and not check_yamaguchi_hypothesis(5)
    _report(10, withheld and not bad,
            f"{checked} square-free table rows imply the conclusion; "
            f"withheld at m=5: {withheld}; failures: {bad or 'none'}")
