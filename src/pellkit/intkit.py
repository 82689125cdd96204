"""Exact integer primitives: square root, gcd, primality, factorization,
square-free core, Jacobi symbol, square roots modulo n, and the two checks
on m (nonsquare, square-free) that pell, cfrac and classgroup share.

Everything is arbitrary-precision and deterministic.  Nothing here returns a
probabilistic answer: primality uses a fixed Miller-Rabin witness set that is
a proven deterministic test below MR_VALID_BELOW, and factorization (trial
division by small primes, then Brent's rho with fixed starts) certifies every
prime factor that way.  It completes exactly for every n whose prime factors
lie below MR_VALID_BELOW, and raises for any other.

The process has one prime table: the least prime factor of every n below
its size, and the odd primes in order.  It is built at import to
_TRIAL_LIMIT, whose primes are factorize's trial divisors, and it grows on
demand through _prime_table, at least doubling up to a cap the caller
gives, to cover the rows of the class-number enumeration in classgroup.
Nothing in it depends on a discriminant, so every class number in the
process shares it.

Square roots modulo n have one layer: _sqrt_mod_prime (Tonelli-Shanks) under
_sqrt_mod_prime_power (Newton's iteration), under _sqrt_mod (CRT).  LMM in
pell takes its roots from _sqrt_mod, and the class-number enumeration in
classgroup from _sqrt_mod_prime_power.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import not_

from ._records import record

# Witness set of Sorenson & Webster: Miller-Rabin with these 12 bases is a
# deterministic primality test for every n below this bound.
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


class FactorizationIncompleteError(ValueError):
    """A factor is a strong probable prime at or above MR_VALID_BELOW, so it
    cannot be certified prime."""


def isqrt(n: int) -> tuple[int, bool]:
    """Floor square root of n with an exactness flag: (r, r*r == n)."""
    if n < 0:
        raise ValueError("isqrt: negative input")
    r = math.isqrt(n)
    return r, r * r == n


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor; gcd(0, 0) == 0."""
    return math.gcd(a, b)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < MR_VALID_BELOW."""
    if n < 2:
        return False
    for p in MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= MR_VALID_BELOW:
        raise ValueError("is_prime: n exceeds the deterministic witness range")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in MR_WITNESSES, for odd n > 37.  False
    proves n composite at any size; True proves n prime below MR_VALID_BELOW."""
    d = n - 1
    s = (d & -d).bit_length() - 1  # n-1 = d * 2^s with d odd
    d >>= s
    for a in MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(record("Factorization", "value factors")):
    """Complete prime factorization of `value` as (prime, exponent) pairs,
    primes strictly increasing."""

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        recomposed = 1
        prev = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError("Factorization: primes must increase, exponents >= 1")
            prev = p
            recomposed *= p**e
        if recomposed != value:
            raise ValueError("Factorization: factors do not recompose value")
        return super().__new__(cls, value, factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def _least_prime_factors(size: int) -> tuple[list[int], list[int]]:
    """(spf, primes) below size: spf[n] is the least prime factor of a
    composite n and 0 otherwise, and primes lists the odd primes in order."""
    spf = [0] * size
    for p in range(math.isqrt(size - 1), 1, -1):  # the least prime factor writes last
        spf[p * p::p] = [p] * len(range(p * p, size, p))
    return spf, list(compress(range(3, size, 2), map(not_, spf[3::2])))


# Trial division runs over the primes below _TRIAL_LIMIT; a factor below
# _TRIAL_LIMIT^2 with none of them as a divisor is a prime.
_TRIAL_LIMIT = 1 << 10
# The process's one prime table, (spf, primes) of _least_prime_factors.
# _prime_table replaces it with one assignment and nothing changes it in
# place, so a reader holds a whole table that stays valid after a growth.
_PRIME_TABLE = _least_prime_factors(_TRIAL_LIMIT)
_SMALL_PRIMES = (2, *_PRIME_TABLE[1])


def _prime_table(n: int, most: int) -> tuple[list[int], list[int]]:
    """The prime table, (spf, primes) of _least_prime_factors, covering
    0 <= a <= n.  A table too small for n is rebuilt first, at least twice
    as large, but past most only as far as n.  Neither list may be changed:
    every caller shares them."""
    global _PRIME_TABLE
    table = _PRIME_TABLE
    size = len(table[0])
    if size <= n:
        table = _PRIME_TABLE = _least_prime_factors(max(n + 1, min(2 * size, most + 1)))
    return table


_RHO_BATCH = 128  # rho differences multiplied together per gcd


def _rho_split(n: int) -> int:
    """A proper divisor of the odd composite n, which is not a perfect
    square, by Brent's variant of Pollard's rho.  The map y -> y^2 + c
    starts at y = 2 with c = 1 and moves to the next c when a run meets n
    itself; differences are batched into one product per gcd, and a batch
    that overshoots to n is replayed one step at a time."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1.

    Trial division by the primes below _TRIAL_LIMIT leaves a cofactor that
    is 1, a prime, or has every prime factor above _TRIAL_LIMIT.  Every larger
    factor is certified by is_prime, and a composite one is split as a
    square or by Brent's rho (_rho_split) until all parts are certified.
    Nothing is random: the rho starts are fixed.  The work beyond trial
    division grows as the square root of the second-largest prime factor.
    A factor that is a strong probable prime at or above MR_VALID_BELOW
    cannot be certified, and raises FactorizationIncompleteError instead of
    guessing.
    """
    if n < 1:
        raise ValueError("factorize: n must be >= 1")
    value = n
    factors = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    large = []
    pending = [n] if n > 1 else []
    while pending:
        f = pending.pop()
        if f < _TRIAL_LIMIT * _TRIAL_LIMIT or f < MR_VALID_BELOW and is_prime(f):
            large.append(f)
        elif f >= MR_VALID_BELOW and _strong_probable_prime(f):
            raise FactorizationIncompleteError(
                f"factorize: factor {f} cannot be certified prime at or above "
                f"{MR_VALID_BELOW}"
            )
        else:
            r, square = isqrt(f)
            d = r if square else _rho_split(f)
            pending += (d, f // d)
    for p in sorted(large):
        if factors and factors[-1][0] == p:
            factors[-1] = (p, factors[-1][1] + 1)
        else:
            factors.append((p, 1))
    return Factorization(value, tuple(factors))


def squarefree_core(n: int) -> tuple[int, bool]:
    """Remove every square factor of n: returns (core, core == n)."""
    fac = factorize(n)
    core = 1
    for p, e in fac.factors:
        if e % 2:
            core *= p
    return core, core == n


def _require_nonsquare(m: int, who: str) -> None:
    if m < 2 or isqrt(m)[1]:
        raise ValueError(f"{who}: m must be >= 2 and not a perfect square (got {m})")


def _require_squarefree(m: int, who: str) -> None:
    if m < 2 or not squarefree_core(m)[1]:
        raise ValueError(f"{who}: m must be square-free and >= 2 "
                         "(pass the square-free core)")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; the Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi: n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A root of x^2 = n (mod p) for an odd prime p not dividing n, by
    Tonelli-Shanks; None when n is a non-residue.  Euler's criterion is not
    tested first: the candidate is checked instead, which costs a product
    where the criterion costs a modular power."""
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
        while t != 1:  # r*r = n*t (mod p) throughout
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            if i == e:  # t has order 2^e, so n is a non-residue
                return None
            b = pow(c, 1 << (e - i - 1), p)
            e, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return r if r * r % p == n % p else None


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> list[int]:
    """Every x in [0, p^e) with x^2 = a (mod p^e), for a prime p and e >= 1,
    ascending: Tonelli-Shanks modulo p, then Newton's iteration up to p^e
    (Cohen, A Course in Computational Algebraic Number Theory (1993), 1.5)."""
    q = p**e
    a %= q
    if a % p and p > 2:
        r = _sqrt_mod_prime(a % p, p)
        if r is None:
            return []
        mod = p
        while mod < q:  # Newton's iteration doubles the p-adic precision
            mod = min(mod * mod, q)
            r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
        return sorted((r, q - r))
    if a % p:  # p = 2: an odd square is 1 modulo 8, and modulo 4 when e = 2
        if e == 1:
            return [1]
        if a % min(q, 8) != 1:
            return []
        if e == 2:
            return [1, 3]
        r = 1  # a root modulo 8, lifted one bit at a time
        for j in range(3, e):
            if (r * r - a) % (2 << j):
                r += 1 << (j - 1)
        half = q >> 1
        return sorted((r, q - r, (r + half) % q, (q - r + half) % q))
    if a == 0:  # x = 0 (mod p^ceil(e/2))
        step = p ** ((e + 1) // 2)
        return list(range(0, q, step))
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    if t % 2:
        return []
    # x = p^(t/2) * w with w^2 = a (mod p^k), p not dividing a; w is only
    # fixed modulo p^k, and x modulo p^e lets it range modulo p^(k + t/2)
    k = e - t
    pk, scale = p**k, p ** (t // 2)
    return sorted(scale * (w + j * pk) % q
                  for w in _sqrt_mod_prime_power(a, p, k) for j in range(scale))


def _sqrt_mod(a: int, n: int) -> list[int]:
    """Every x in [0, n) with x^2 = a (mod n), for n >= 1, ascending: the
    roots modulo each prime power of n combined by CRT.  Factorizes n, so
    it raises FactorizationIncompleteError where factorize does."""
    roots, mod = [0], 1
    for p, e in factorize(n).factors:
        q = p**e
        found = _sqrt_mod_prime_power(a, p, e)
        if not found:
            return []
        inv = pow(mod, -1, q)
        roots = [x + mod * ((y - x) * inv % q) for x in roots for y in found]
        mod *= q
    return sorted(roots)
