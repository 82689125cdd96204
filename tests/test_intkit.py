import random
import time

import pytest

from pellkit import intkit
from pellkit import (Factorization, FactorizationIncompleteError, factorize, gcd,
                     is_prime, isqrt, jacobi, squarefree_core)
from pellkit.intkit import (MR_VALID_BELOW, _sqrt_mod, _sqrt_mod_prime,
                            _sqrt_mod_prime_power)

from oracle_utils import euler_phi, reference_factorize, reference_least_prime_factors


def test_isqrt_examples():
    assert isqrt(0) == (0, True)
    assert isqrt(399) == (19, False)  # 19^2 = 361 < 399 < 400
    assert isqrt(421201) == (649, True)  # 649 * 649
    assert isqrt(1) == (1, True)


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_bracketing_exhaustive():
    for n in range(10**6 + 1):
        r, exact = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
        assert exact == (r * r == n)


def test_gcd_examples():
    assert gcd(0, 7) == 7
    assert gcd(20, 399) == 1
    assert gcd(84, 198) == 6
    assert gcd(0, 0) == 0
    assert gcd(-12, 18) == 6


@pytest.mark.parametrize("n,expected", [
    (0, False), (1, False), (2, True), (3, True), (4, False),
    (53, True), (7227, False), (2**31 - 1, True), (10**9 + 7, True),
    (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
])
def test_is_prime(n, expected):
    assert is_prime(n) == expected


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(399).factors == ((3, 1), (7, 1), (19, 1))
    assert factorize(7227).factors == ((3, 2), (11, 1), (73, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_recomposes_and_certifies():
    for n in range(1, 10**5 + 1):
        fac = factorize(n)
        assert fac.value == n
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_incomplete_is_an_error():
    # 2^89 - 1 is a Mersenne prime above the deterministic Miller-Rabin range:
    # the unresolved factor cannot be certified, alone or after rho splits
    # off 1031 (the least prime above the trial-division primes)
    big = 2**89 - 1
    assert big >= MR_VALID_BELOW
    for n in (3 * big, 1031 * big, big):
        with pytest.raises(FactorizationIncompleteError):
            factorize(n)
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_factorize_certifies_large_prime_cofactor():
    # cofactor above the trial-division primes but certified by is_prime
    n = 3 * (10**9 + 7)
    assert factorize(n).factors == ((3, 1), (10**9 + 7, 1))


def test_factorize_matches_trial_division_exhaustive():
    for n in range(1, 10**6 + 1):
        assert factorize(n).factors == reference_factorize(n).factors, n


def test_factorize_matches_trial_division_random():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randrange(1, 10**14)
        assert factorize(n).factors == reference_factorize(n).factors, n


def _assert_prime_table_is_the_reference(n):
    spf, primes = intkit._PRIME_TABLE
    assert len(spf) > n
    reference = reference_least_prime_factors(len(spf) - 1)
    assert spf == reference
    assert primes == [k for k in range(3, len(spf), 2) if reference[k] == 0]


@pytest.mark.parametrize("asks", [
    [(3000, 10**6), (70000, 10**6)],  # small, then large
    [(70000, 10**6), (3000, 10**6)],  # large, then small: no growth
    [(1500, 10**6), (2100, 10**6), (2300, 10**6)],  # doubling past the asks
    [(1500, 1800), (1900, 1800)],  # doubling stops at most, unless n is past it
    [(99991, 10**6)],  # no power of 2
])
def test_the_prime_table_grows_to_the_reference(asks, monkeypatch):
    monkeypatch.setattr(intkit, "_PRIME_TABLE",
                        intkit._least_prime_factors(intkit._TRIAL_LIMIT))
    _assert_prime_table_is_the_reference(intkit._TRIAL_LIMIT - 1)
    for n, most in asks:
        size = len(intkit._PRIME_TABLE[0])
        table = intkit._prime_table(n, most)
        assert table is intkit._PRIME_TABLE
        grown = max(n + 1, min(2 * size, most + 1)) if size <= n else size
        assert len(table[0]) == grown, (n, most, size)
        _assert_prime_table_is_the_reference(n)


def test_the_small_primes_are_the_primes_below_the_trial_limit():
    reference = reference_least_prime_factors(1023)
    assert intkit._TRIAL_LIMIT == 1024
    assert intkit._SMALL_PRIMES == tuple(k for k in range(2, 1024) if reference[k] == 0)


def _assert_certified(n, fac):
    assert fac.value == n
    prod = 1
    for p, e in fac.factors:
        assert is_prime(p), (n, p)
        prod *= p**e
    assert prod == n


def _random_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def test_factorize_hard_composites():
    rng = random.Random(17)
    for _ in range(40):
        p, q = _random_prime(rng, 10**6, 10**8), _random_prime(rng, 10**6, 10**8)
        fac = factorize(p * q)
        _assert_certified(p * q, fac)
        assert fac.factors == (((p, 2),) if p == q else ((min(p, q), 1), (max(p, q), 1)))
    for _ in range(10):
        p = _random_prime(rng, 10**7, 10**9)
        assert factorize(p * p).factors == ((p, 2),)
        assert factorize(p**3).factors == ((p, 3),)
        assert factorize(7 * p**3).factors == ((7, 1), (p, 3))
    # a prime power beyond the Miller-Rabin range is split by rho, not refused
    assert factorize((10**6 + 3) ** 5 * 1031**7).factors == ((1031, 7), (10**6 + 3, 5))
    # Carmichael numbers: the Fermat test mistakes them for primes
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    k = 1
    # Chernick's (6k+1)(12k+1)(18k+1); k > 200 puts every factor above the
    # trial-division primes, so rho has to split them
    while len(carmichael) < 25:
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if k > 200 and all(is_prime(p) for p in ps):
            carmichael.append(ps[0] * ps[1] * ps[2])
            assert factorize(carmichael[-1]).factors == tuple((p, 1) for p in ps)
        k += 1
    for n in carmichael:
        _assert_certified(n, factorize(n))


def test_squarefree_core_of_a_large_semiprime():
    n = 10000019 * 10000079
    assert squarefree_core(n) == (n, True)


def test_factorize_twelve_digit_semiprime_is_fast():
    p, q = 10**12 + 39, 10**12 + 61
    started = time.perf_counter()
    fac = factorize(p * q)
    assert time.perf_counter() - started < 30
    assert fac.factors == ((p, 1), (q, 1))


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(7, ((3, 1),))  # wrong product


def test_squarefree_core_examples():
    assert squarefree_core(399) == (399, True)
    assert squarefree_core(7227) == (803, False)
    assert squarefree_core(4) == (1, False)
    assert squarefree_core(8) == (2, False)
    assert squarefree_core(1) == (1, True)
    assert squarefree_core(18495) == (2055, False)  # 3^3 * 5 * 137


def test_jacobi_examples():
    assert jacobi(399, 5) == 1
    assert jacobi(-1, 5) == 1
    assert jacobi(2, 3) == -1
    assert jacobi(0, 9) == 0
    assert jacobi(15, 9) == 0
    assert jacobi(4, 1) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_multiplicative():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(1, 2000) * 2 + 1
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_is_legendre_on_primes():
    rng = random.Random(2)
    odd_primes = [p for p in range(3, 10**4) if is_prime(p)]
    for _ in range(500):
        q = rng.choice(odd_primes)
        a = rng.randrange(-10**4, 10**4)
        euler = pow(a % q, (q - 1) // 2, q)
        assert jacobi(a, q) == (euler if euler <= 1 else -1)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(399) == 216
    for p in (2, 3, 5, 53, 997):
        assert euler_phi(p) == p - 1


def test_euler_phi_matches_count():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_sqrt_mod_matches_brute_force():
    # even m, odd m, p | m, and p^2 | n with p | m (12 = 2^2*3, 45 = 3^2*5,
    # 72 = 2^3*3^2, 2^6 = 64) all occur for n <= 3000
    for n in range(1, 3001):
        by_square: dict[int, list[int]] = {}
        for z in range(n):
            by_square.setdefault(z * z % n, []).append(z)
        for m in (1, 2, 7, 12, 45, 64, 72, 109):
            assert _sqrt_mod(m, n) == by_square.get(m % n, []), (m, n)


def test_sqrt_mod_large_prime_powers():
    for p, e in ((10**6 + 3, 3), (3, 25), (2, 70), (10_007, 4)):
        n = p**e
        for m in (2, 3 * 10**9 + 1, 17, 1, -1):
            roots = _sqrt_mod(m, n)
            assert all((z * z - m) % n == 0 for z in roots)
            assert len(roots) in (0, 1, 2, 4)
    assert len(_sqrt_mod(-1, 5**20)) == 2  # 5 = 1 (mod 4)
    assert len(_sqrt_mod(17, 2**70)) == 4  # 17 = 1 (mod 8)


def test_sqrt_mod_residue_is_a_root_exactly_for_the_residues():
    # without Euler's criterion: a root for a residue, None otherwise, over
    # primes p = 3 (mod 4) and p = 1 (mod 2^e) up to e = 8
    for p in (3, 5, 7, 13, 17, 41, 97, 193, 257, 449):
        squares = {z * z % p for z in range(1, p)}
        for n in range(1, p):
            r = _sqrt_mod_prime(n, p)
            if n in squares:
                assert r is not None and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)


def test_sqrt_mod_prime_power_matches_brute_force_exhaustively():
    # every a modulo every prime power up to 2048: p | a, odd valuations,
    # a = 0 and every residue modulo 2^e
    cases = 0
    for p in (p for p in range(2, 2049) if euler_phi(p) == p - 1):
        q, e = p, 1
        while q <= 2048:
            by_square: dict[int, list[int]] = {}
            for z in range(q):
                by_square.setdefault(z * z % q, []).append(z)
            for a in range(q):
                assert _sqrt_mod_prime_power(a, p, e) == by_square.get(a, []), (a, p, e)
            cases += q
            q, e = q * p, e + 1
    assert cases == 305_025
