import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pellkit import (QuadraticInteger, brute_force_solve, family_spec,
                     fundamental_unit, gcd, isqrt, neg_pell, pell_fundamental,
                     rd_unit, solve_pm_N, squarefree_core, unit_norm)
from pellkit.cfrac import _pqa_period
from pellkit.pell import PellCertificate, _least_unit, _solve_by_convergents

from oracle_utils import (_same_class, _unit_times, orbit_closure, period_length,
                          primitive_brute_force, reference_bounded_search,
                          reference_convergent_scan, reference_least_unit,
                          reference_pqa_to_unit, surd_expansion)

BF_Y_MAX = 2000  # the brute-force cap of acceptance criterion 7


def test_pell_fundamental_examples():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(399) == (20, 1)
    assert pell_fundamental(7) == (8, 3)
    assert pell_fundamental(10) == (19, 6)
    with pytest.raises(ValueError):
        pell_fundamental(9)


def test_neg_pell_examples():
    assert neg_pell(2) == (1, 1)
    assert neg_pell(13) == (18, 5)
    assert neg_pell(399) is None
    assert neg_pell(10) == (3, 1)


def test_neg_pell_iff_odd_period():
    for m in range(2, 600):
        if isqrt(m)[1]:
            continue
        sol = neg_pell(m)
        assert (sol is not None) == (period_length(m) % 2 == 1), m
        if sol is not None:
            x, y = sol
            assert x * x - m * y * y == -1
            if y <= 1500:  # solutions can sit at y ~ 10^9; sweep only small ones
                assert brute_force_solve(m, -1, y)[0] == sol  # least solution
        else:
            x1, y1 = pell_fundamental(m)
            assert brute_force_solve(m, -1, min(y1, 1500)) == []


def test_fundamental_unit_examples():
    assert fundamental_unit(2) == QuadraticInteger(1, 1, 2)
    assert fundamental_unit(2).norm == -1
    assert fundamental_unit(399) == QuadraticInteger(20, 1, 399)
    assert fundamental_unit(399).norm == 1
    assert fundamental_unit(5) == QuadraticInteger(1, 1, 5, 2)
    assert fundamental_unit(5).norm == -1
    assert fundamental_unit(13) == QuadraticInteger(3, 1, 13, 2)
    assert fundamental_unit(21) == QuadraticInteger(5, 1, 21, 2)
    assert fundamental_unit(33) == QuadraticInteger(23, 4, 33)  # integral case
    assert fundamental_unit(205) == QuadraticInteger(43, 3, 205, 2)


def test_fundamental_unit_rejects_non_squarefree():
    for bad in (12, 18, 1, 0, 4):
        with pytest.raises(ValueError):
            fundamental_unit(bad)


def test_half_integral_units_against_pm4_scan():
    # independent oracle: for m = 1 (mod 4) the fundamental unit is the least
    # b with m*b^2 -+ 4 a perfect square, as (a + b*sqrt(m))/2
    for m in range(5, 302, 4):
        if not squarefree_core(m)[1]:
            continue
        unit = fundamental_unit(m)
        for b in range(1, 10**4):
            hits = []
            for sign in (-4, 4):
                a, exact = isqrt(m * b * b + sign)
                if exact:
                    hits.append(a)
            if hits:
                expected = QuadraticInteger.make(min(hits), b, m, 2)
                assert unit == expected, m
                break
        else:
            # unit too large for the scan; it must at least be a unit > 1
            assert abs(unit.norm) == 1 and unit.a > 0 and unit.b > 10**4 // 2


def test_rd_unit_examples():
    assert rd_unit("D2MINUS1", 20) == QuadraticInteger(20, 1, 399)
    assert rd_unit("D2PLUS3", 18) == QuadraticInteger(217, 12, 327)
    assert rd_unit("D2MINUS2", 3) == QuadraticInteger(8, 3, 7)
    assert rd_unit("D2PLUS2", 21) == QuadraticInteger(442, 21, 443)
    for fam, d in [("D2MINUS1", 20), ("D2PLUS3", 18), ("D2MINUS2", 3), ("D2PLUS2", 21)]:
        assert rd_unit(fam, d).norm == 1


def test_rd_unit_rejects_family_mismatch():
    with pytest.raises(ValueError, match="^rd_unit: D2MINUS1 requires even d >= 2$"):
        rd_unit("D2MINUS1", 3)  # odd d
    with pytest.raises(ValueError, match="^rd_unit: D2PLUS3 requires d divisible by 3$"):
        rd_unit("D2PLUS3", 4)  # 3 does not divide d
    with pytest.raises(ValueError, match="^rd_unit: D2PLUS3 requires d divisible by 3$"):
        rd_unit("D2PLUS3", 0)  # 3 divides d, but d < 3
    with pytest.raises(ValueError, match="^rd_unit: D2PLUS2 requires odd d >= 3$"):
        rd_unit("D2PLUS2", 4)  # even d
    with pytest.raises(ValueError, match="^rd_unit: D2MINUS2 requires odd d >= 3$"):
        rd_unit("D2MINUS2", 1)  # too small
    with pytest.raises(ValueError, match="^rd_unit: unknown family 'D2PLUS5'$"):
        rd_unit("D2PLUS5", 3)  # no such family


def test_rd_unit_is_the_least_plus_one_solution():
    # the closed form against the PQa read of sqrt(m), for every admitted
    # d < 3000; every other d in [-2, 3000) is refused
    admitted = {"F1": range(2, 3000, 2), "F2": range(3, 3000, 3),
                "F3": range(3, 3000, 2), "F4": range(3, 3000, 2)}
    assert sum(map(len, admitted.values())) == 5496
    for family, ds in admitted.items():
        spec = family_spec(family)
        for d in range(-2, 3000):
            if d not in ds:
                with pytest.raises(ValueError):
                    rd_unit(spec.rd_family, d)
                continue
            u = rd_unit(spec.rd_family, d)
            assert u.m == d * d + spec.r and u.denom == 1
            assert (u.a, u.b) == pell_fundamental(u.m), (family, d)


def test_unit_norm_examples():
    assert unit_norm(2) == -1
    assert unit_norm(399) == 1
    assert unit_norm(443) == 1
    assert unit_norm(10) == -1


def test_solve_pm_N_examples():
    cert = solve_pm_N(399, 5)
    assert not cert.has_solutions
    assert cert.scan_length == 4 and cert.method == "convergents"

    cert = solve_pm_N(7, -3)
    assert cert.solutions == ((2, 1), (5, 2))

    assert solve_pm_N(2, 1).solutions == ((3, 2),)
    assert solve_pm_N(13, 3).solutions == ((4, 1), (256, 71))  # two classes
    assert solve_pm_N(6, -2).solutions == ((2, 1),)

    # coprime-only semantics: x^2 - 17 y^2 = 4 has only imprimitive solutions
    assert not solve_pm_N(17, 4).has_solutions

    with pytest.raises(ValueError):
        solve_pm_N(7, 0)
    with pytest.raises(ValueError):
        solve_pm_N(16, 3)


def test_solve_pm_N_bounded_path_classes():
    # N^2 >= m goes through the LMM search; x^2 - 10 y^2 = 6 splits into
    # the classes of (4, 1) and (16, 5)
    cert = solve_pm_N(10, 6)
    assert cert.method == "lmm"
    assert cert.solutions == ((4, 1), (16, 5))
    cert = solve_pm_N(7, -7)
    assert cert.solutions == ((21, 8),)


def test_brute_force_examples():
    assert brute_force_solve(7, -3, 10) == [(2, 1), (5, 2)]
    assert brute_force_solve(399, 5, 1000) == []
    assert brute_force_solve(10, -1, 5) == [(3, 1)]
    with pytest.raises(ValueError):
        brute_force_solve(10, -1, 0)
    with pytest.raises(ValueError):
        brute_force_solve(10, 0, 5)


def test_certificates_verify_and_match_oracle():
    rng = random.Random(4)
    for _ in range(120):
        m = rng.randrange(2, 400)
        if isqrt(m)[1]:
            continue
        bound = isqrt(m - 1)[0]
        N = rng.choice([n for n in range(-bound, bound + 1) if n])
        cert = solve_pm_N(m, N)
        for x, y in cert.solutions:
            assert x * x - m * y * y == N
        oracle = primitive_brute_force(m, N, 600)
        if not cert.has_solutions:
            assert oracle == []
        elif oracle:
            least = min(cert.solutions, key=lambda s: s[1])
            assert oracle[0] == least  # least positive representative


def test_quadratic_integer_validation():
    with pytest.raises(ValueError):
        QuadraticInteger(1, 1, 4)  # square radicand
    with pytest.raises(ValueError):
        QuadraticInteger(1, 1, 7, 2)  # m != 1 (mod 4)
    with pytest.raises(ValueError):
        QuadraticInteger(1, 2, 5, 2)  # parity mismatch
    with pytest.raises(ValueError):
        QuadraticInteger(2, 2, 5, 2)  # not in lowest terms
    assert QuadraticInteger.make(46, 8, 33, 2) == QuadraticInteger(23, 4, 33)


def test_quadratic_integer_arithmetic():
    assert str(QuadraticInteger(1, 1, 5, 2)) == "(1 + sqrt(5))/2"
    assert str(QuadraticInteger(217, 12, 327)) == "217 + 12*sqrt(327)"


def test_certificate_rejects_wrong_solution():
    with pytest.raises(ValueError):
        PellCertificate(7, -3, ((2, 2),), 8, "convergents")


def _reference_convergent_scans(m, targets):
    # Full two-period scan over the oracle's convergents, dropping +1-unit
    # multiples of earlier hits: the certificate the Q-sequence scan must match.
    ell, convs = surd_expansion(m)
    u, v = convs[ell - 1] if ell % 2 == 0 else convs[2 * ell - 1]
    assert u * u - m * v * v == 1
    out = {}
    for N in targets:
        found = []
        for sol in convs:
            if sol[0] ** 2 - m * sol[1] ** 2 != N:
                continue
            if any((x * u + y * v * m, x * v + y * u) == sol for x, y in found):
                continue
            found.append(sol)
        out[N] = PellCertificate(m, N, tuple(found), 2 * ell, "convergents")
    return out


def _small_targets(m):
    bound = isqrt(m - 1)[0]
    return [N for N in range(-bound, bound + 1) if N]


def test_q_sequence_scan_matches_full_convergent_scan():
    for m in range(2, 600):
        if isqrt(m)[1]:
            continue
        targets = _small_targets(m)
        reference = _reference_convergent_scans(m, targets)
        for N in targets:
            assert solve_pm_N(m, N) == reference[N], (m, N)


@pytest.mark.parametrize("m, odd", [(100021, True), (100049, True), (100057, True),
                                    (100001, False), (100003, False)])
def test_q_sequence_scan_matches_near_1e5(m, odd):
    assert (period_length(m) % 2 == 1) == odd
    targets = _small_targets(m)
    reference = _reference_convergent_scans(m, targets)
    assert any(reference[N].has_solutions for N in targets)
    for N in targets:
        assert solve_pm_N(m, N) == reference[N], (m, N)


def test_unit_norm_is_the_fundamental_unit_norm():
    for m in range(2, 5000):
        if squarefree_core(m)[1]:
            assert unit_norm(m) == fundamental_unit(m).norm, m


def test_unit_norm_rejects_non_squarefree():
    for bad in (1, 8, 12, 18, 49):
        with pytest.raises(ValueError):
            unit_norm(bad)


def test_half_unit_scan_always_meets_q_equal_2():
    for m in range(5, 5000, 4):
        if not squarefree_core(m)[1]:
            continue
        unit = fundamental_unit(m)
        assert isinstance(unit, QuadraticInteger) and abs(unit.norm) == 1, m


def test_classical_index_matches_surd_state_oracle():
    # the convergent at l-1 is the least solution of norm (-1)^l, and the
    # least +1 solution sits at 2l-1 for odd l
    for m in range(2, 3000):
        if isqrt(m)[1]:
            continue
        ell, convs = surd_expansion(m)
        least = convs[ell - 1]
        assert pell_fundamental(m) == (least if ell % 2 == 0 else convs[2 * ell - 1]), m
        assert neg_pell(m) == (least if ell % 2 else None), m
        if not squarefree_core(m)[1]:
            continue
        unit = fundamental_unit(m)
        order_unit = QuadraticInteger(*least, m)
        if m % 4 == 1:  # index 1 or 3 in the unit group of the maximal order
            a, b, k = unit.a, unit.b, unit.denom ** 3
            cube = _unit_times(*_unit_times(a, b, m, a, b), m, a, b)
            assert unit == order_unit or cube == (k * least[0], k * least[1]), m
        else:
            assert unit == order_unit, m


def test_fundamental_unit_expands_sqrt_m_once(monkeypatch):
    import pellkit.pell
    real = pellkit.pell._pqa_period
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(pellkit.pell, "_pqa_period", counting)
    for m in (399, 7, 2, 10):  # even and odd periods, m != 1 (mod 4)
        calls.clear()
        fundamental_unit(m)
        assert calls == [(m, 0, 1)]
    for m in (5, 13):  # the half-integral unit, from (1 + sqrt(m))/2
        calls.clear()
        fundamental_unit(m)
        assert calls == [(m, 1, 2)]


@pytest.mark.parametrize("m", [7, 13])  # q0 = 1 and q0 = 2
@pytest.mark.parametrize("breakage, message", [("no return", "closed without Q"),
                                               ("wrong pair", "is not a unit")])
def test_a_broken_unit_read_raises(monkeypatch, capsys, m, breakage, message):
    import pellkit.pell
    from pellkit.cli import main
    real = pellkit.pell._pqa_period

    def broken(m, p0, q0):
        a0, period, qs = real(m, p0, q0)
        if breakage == "no return":
            return a0, period, [q for q in qs if q != q0]
        return a0 + 1, period, qs
    monkeypatch.setattr(pellkit.pell, "_pqa_period", broken)
    with pytest.raises(ArithmeticError, match=message):
        fundamental_unit(m)
    assert main(["unit", str(m)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("pellkit: ") and err.count("\n") == 1


def test_the_centre_unit_read_matches_the_sequential_read():
    # both starts: sqrt(m) for every nonsquare m < 5000, (1 + sqrt(m))/2 for
    # every odd one; the reference builds every pair up to qs.index(q0)
    for m in range(2, 5000):
        if isqrt(m)[1]:
            continue
        assert _least_unit(m) == reference_least_unit(m), m
        if m % 2:
            assert _least_unit(m, 1, 2) == reference_least_unit(m, 1, 2), m


def test_the_half_period_scan_matches_the_full_span_scan():
    # every nonsquare m < 1500 and every N with N^2 < m, one target at a time
    # and all of them off one expansion
    for m in range(2, 1500):
        root, square = isqrt(m)
        if square:
            continue
        targets = [N for N in range(-root, root + 1) if N]
        reference = tuple(reference_convergent_scan(m, N) for N in targets)
        assert _solve_by_convergents(m, *targets) == reference, m
        assert tuple(solve_pm_N(m, N) for N in targets) == reference, m


def test_lmm_matches_bounded_search():
    # every nonsquare m < 200 and N^2 >= m, |N| <= 100, whose sweep covers at
    # most 10^4 values of y
    compared = 0
    for m in range(2, 200):
        if isqrt(m)[1]:
            continue
        u, v = pell_fundamental(m)
        for N in range(-100, 101):
            if N == 0 or N * N < m:
                continue
            denom = 2 * (u - 1) if N < 0 else 2 * (u + 1)
            if isqrt(v * v * abs(N) // denom)[0] + 2 > 10**4:
                continue
            cert = solve_pm_N(m, N)
            assert cert.method == "lmm" and cert.scan_length >= 1
            assert cert.solutions == reference_bounded_search(m, N).solutions, (m, N)
            compared += 1
    assert compared > 10**4


@pytest.mark.parametrize("m, N", [(109, 1000), (109, -1000), (181, 10**4), (181, -10**4),
                                  (109, 791), (181, 871)])
def test_lmm_large_units(m, N):
    # the bounded sweep would cover up to ~10^9 values of y here
    started = time.perf_counter()
    cert = solve_pm_N(m, N)
    assert time.perf_counter() - started < 1
    for i, (x, y) in enumerate(cert.solutions):
        assert x > 0 and y > 0 and x * x - m * y * y == N
        assert gcd(x, y) == 1
        assert not any(_same_class((x, y), t, m, N) for t in cert.solutions[:i])
    assert orbit_closure(cert.solutions, m, BF_Y_MAX) == primitive_brute_force(m, N, BF_Y_MAX)
    assert cert.has_solutions == (N in (791, 871))


@settings(derandomize=True, deadline=None, database=None)
@given(m=st.integers(2, 10**4), x0=st.integers(0, 10**4), y0=st.integers(1, 10**4))
def test_lmm_certificate_contains_the_class_of_a_constructed_solution(m, x0, y0):
    assume(not isqrt(m)[1] and gcd(x0, y0) == 1)
    N = x0 * x0 - m * y0 * y0
    assume(N * N >= m)
    cert = solve_pm_N(m, N)
    assert cert.method == "lmm"
    assert any(_same_class((x0, y0), s, m, N) for s in cert.solutions)


def test_pqa_period_from_lmm_starts_matches_reference_stepper():
    # every nonsquare m < 300, n <= 150 with n^2 >= m, and every centred root
    # z of m modulo n: the first Q = +-1 of the one PQa loop sits where the
    # reference stepper stops, and without one both cover the same quotients
    compared = 0
    for m in range(2, 300):
        root = isqrt(m)[0]
        if root * root == m:
            continue
        for n in range(2, 151):
            if n * n < m:
                continue
            total = 0
            for z in range(n):
                if (z * z - m) % n:
                    continue
                if 2 * z > n:
                    z -= n
                ref_quotients, ref_hit = reference_pqa_to_unit(m, root, z, n)
                total += len(ref_quotients)
                a0, rest, qs = _pqa_period(m, z, n)
                assert len(rest) == len(qs)
                hit = next((i for i, q in enumerate(qs) if q in (1, -1)), None)
                assert (hit is not None) == ref_hit, (m, n, z)
                if ref_hit:
                    assert [a0, *rest[:hit]] == ref_quotients, (m, n, z)
                else:
                    assert [a0, *rest] == ref_quotients, (m, n, z)
                compared += 1
            for N in (n, -n):
                assert solve_pm_N(m, N).scan_length == 1 + total, (m, N)
    assert compared > 10**4


@pytest.mark.parametrize("m", [2, 7, 13, 399, 1000000007])
def test_units_build_no_convergent(m):
    x, y = pell_fundamental(m)
    assert x * x - m * y * y == 1
    minus = neg_pell(m)
    assert minus is None or minus[0] ** 2 - m * minus[1] ** 2 == -1
    assert abs(fundamental_unit(m).norm) == 1


def test_lmm_builds_no_convergent():
    # the last two have solutions, so the unit multiply runs too
    certs = [solve_pm_N(m, N) for m, N in ((109, 1000), (109, -1000), (109, 791), (181, 871))]
    assert [c.method for c in certs] == ["lmm"] * 4
    assert [c.has_solutions for c in certs] == [False, False, True, True]


def test_fundamental_unit_of_a_long_period_is_fast():
    # period 71,938: l bare additions on numbers the size of the unit
    m = 10**11 + 3
    started = time.perf_counter()
    unit = fundamental_unit(m)
    assert time.perf_counter() - started < 30
    assert unit.denom == 1 and unit.a * unit.a - m * unit.b * unit.b in (1, -1)
