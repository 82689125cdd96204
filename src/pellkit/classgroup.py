"""Class numbers of real quadratic fields by exact enumeration of reduced
primitive indefinite binary quadratic forms and their rho-cycles.

The reduced forms of discriminant D are (+-a, b, -+c) with 0 < b < sqrt(D),
|sqrt(D) - 2a| < b and b^2 - 4ac = D, so b is a square root of D modulo 4a.
They are enumerated from those roots: for each a up to a bound, factored by
a smallest-prime-factor sieve, the roots modulo each prime power of 4a
(Tonelli-Shanks, then Hensel lifting one digit at a time) are combined by
CRT into the roots modulo 2a, and each root class meets the reduction
window at most once.  An a with a rootless prime power is skipped before it
is factored, so the work follows the number of roots, not D.

The rho-cycles of discriminant D are the narrow classes.  The mirror
sigma: (L, b, C) -> (-L, b, -C) commutes with the rho step, so it maps
cycles onto cycles, and its orbits are the wide classes (Buchmann and
Vollmer, Binary Quadratic Forms (2007), ch. 6; Cohen, A Course in
Computational Algebraic Number Theory (1993), 5.6).  With a unit of norm
-1 every cycle is its own mirror; with norm +1 none is.  So each sigma-orbit
is walked once, over half of its reduced forms, and h_wide is the number of
walks: h = h+ when the norm is -1, h+ = 2h when it is +1.  The walks start
only from the seeds, the positive reduced forms with a <= _seed_bound(D).
Let m(f) be the least |f(x, y)| of a form f of discriminant D over integer
(x, y) != (0, 0); it is taken at a primitive (x, y).  By Markov's theorem
(A. Markoff, Math. Ann. 15 (1879) and 17 (1880); Cusick and Flahive, The
Markoff and Lagrange Spectra (1989), ch. 2), m(f) > sqrt(D)/3 only when f
is equivalent to a multiple of the Markov form f_mu of a Markov number mu,
of discriminant 9*mu^2 - 4.  The content g of f_mu divides mu and
9*mu^2 - 4, hence 4, and g^2 divides 9*mu^2 - 4, which rules out g = 4
(4 | mu leaves 9*mu^2 - 4 = 12 mod 16); so a primitive f forces
D*g^2 = 9*mu^2 - 4 with g = 1 or 2.  Unless D + 4 or 4*D + 4 is nine times
a square, every form of discriminant D therefore primitively represents
some v with 0 < |v| <= sqrt(D)/3 < sqrt(D)/2, and Lagrange's lemma makes v
the leading coefficient of a reduced form in the same cycle (Buchmann and
Vollmer, ch. 6).  So every cycle holds a seed or the mirror of one, at
about 0.33*sqrt(D) instead of sqrt(D) values of a.  The D where D + 4 or
4*D + 4 is nine times a square keep the bound sqrt(D/5) of Korkine and
Zolotarev, which holds for every form.  This does not ask whether mu is
a Markov number, so a few D such as 77 and 140 keep it needlessly;
D = 5, 8, 221, 1517, ... need it, since each has a cycle whose least |a|
exceeds sqrt(D)/3.
Each walk steps rho on bare ints and strikes the seed of every form it
passes and of its mirror.  All sqrt(D) comparisons are done on squares in
integer arithmetic: a float at the reduction-window boundary can silently
merge or split cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Iterator

from .intkit import _sqrt_mod_prime, isqrt, squarefree_core
from .pell import _unit_norm

# Largest isqrt(D) whose class number is computed.  The sieve and the root
# table hold _seed_bound(D) entries, isqrt(D // 9) for all but a few D, and
# the seed set grows with them: at the limit (D near 4*10^12) a class number
# took 2.8-3.1 s and 132 MiB of peak memory on a 2-vCPU VM under CPython
# 3.11, and anything larger is refused before either is allocated and before
# the unit norm's period is expanded.
MAX_ROOT_D = 2_000_000


def _reduced_triples(D: int, s: int, amax: int) -> Iterator[tuple[int, int, int]]:
    """Every (a, b, c) with 0 < a <= amax and c > 0 such that (a, b, -c) and
    (-a, b, c) are reduced primitive forms of discriminant D = b^2 + 4ac,
    s = isqrt(D), amax <= s; in order of a.

    b^2 = D (mod 4a) depends on b modulo 2a only, so the roots are taken as
    classes modulo 2a: the CRT product of the classes for the 2-part of a
    and the roots modulo each odd prime power of a.  The window
    max(1, s+1-2a, 2a-s) <= b <= s is at most 2a long, so each class gives at
    most one b.  An a with a rootless prime power is never visited.  The
    sieve and the root table stop at amax.
    """
    spf = list(range(amax + 1))  # smallest prime factor
    for p in range(2, isqrt(amax)[0] + 1):
        if spf[p] == p:
            for j in range(p * p, amax + 1, p):
                if spf[j] == j:
                    spf[j] = p

    # roots[q] for q = 1 and each prime power q = p^k <= amax: the classes
    # modulo w*q of the roots of x^2 = D (mod w*w*q), w = 2 when p = 2 and
    # w = 1 when p is odd.  Each level is Hensel-lifted from the one below by
    # one p-adic digit.  good[a] = 0 once a prime power of a has no roots.
    roots = {1: [D & 1]}
    good = bytearray(b"\x01") * (amax + 1)
    good[0] = 0
    for p in range(2, amax + 1):
        if spf[p] != p:
            continue
        if p == 2:
            w, q, found = 2, 1, roots[1]
        elif D % p == 0:
            w, q, found = 1, p, [0]
        else:
            r = _sqrt_mod_prime(D % p, p)
            w, q, found = 1, p, [] if r is None else [r, p - r]
        roots[q] = found
        while found and q * p <= amax:
            step, q = w * q, q * p
            found = [x for r in found for x in range(r, w * q, step)
                     if (x * x - D) % (w * w * q) == 0]
            roots[q] = found
        if not found:
            good[q::q] = bytes(len(range(q, amax + 1, q)))

    for a in compress(range(amax + 1), good):
        q = a & -a
        n, classes, mod = a // q, roots[q], 2 * q
        while n > 1:
            p = q = spf[n]
            n //= p
            while n % p == 0:
                n //= p
                q *= p
            inv = pow(mod, -1, q)
            classes = [x + mod * ((y - x) * inv % q) for x in classes for y in roots[q]]
            mod *= q
        lo = max(1, s + 1 - 2 * a, 2 * a - s)
        for r in classes:
            b = lo + (r - lo) % mod
            if b <= s:
                c = (D - b * b) // (4 * a)
                if gcd(a, b, c) == 1:
                    yield a, b, c


def _seed_bound(D: int) -> int:
    """Largest seed a of the cycle walk: isqrt(D // 5) when D + 4 or
    4*D + 4 is nine times a square, so that D may be a Markov discriminant,
    and isqrt(D // 9) otherwise (see the module docstring)."""
    for n in (D + 4, 4 * D + 4):
        if n % 9 == 0 and isqrt(n // 9)[1]:
            return isqrt(D // 5)[0]
    return isqrt(D // 9)[0]


def is_fundamental_discriminant(D: int) -> bool:
    if D <= 0 or isqrt(D)[1]:
        return False
    if D % 4 == 1:
        return squarefree_core(D)[1]
    if D % 4 != 0:
        return False
    q = D // 4
    return q % 4 in (2, 3) and squarefree_core(q)[1]


def narrow_class_number(D: int) -> int:
    """Number of rho-cycles partitioning the reduced forms of the fundamental
    discriminant D (non-fundamental discriminants are a different object and
    are rejected)."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"narrow_class_number: {D} is not a fundamental discriminant")
    return _class_number(D if D % 4 == 1 else D // 4).h_narrow


def _discriminant_of(m: int) -> int:
    return m if m % 4 == 1 else 4 * m


def discriminant_of(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(m)): m when m = 1 (mod 4), else 4m."""
    if m < 2 or not squarefree_core(m)[1]:
        raise ValueError("discriminant_of: m must be square-free and >= 2")
    return _discriminant_of(m)


@dataclass(frozen=True)
class ClassData:
    """Narrow and wide class numbers of Q(sqrt(m)) with the unit-norm
    correction tying them together."""

    m: int
    D: int
    h_narrow: int
    h_wide: int
    unit_norm: int

    def __post_init__(self):
        if self.unit_norm not in (1, -1):
            raise ValueError("ClassData: unit_norm must be +-1")
        expected = self.h_wide * (2 if self.unit_norm == 1 else 1)
        if self.h_wide < 1 or expected != self.h_narrow:
            raise ValueError("ClassData: narrow/wide relation violated")


def class_number(m: int) -> ClassData:
    """Exact class data of Q(sqrt(m)) for square-free m >= 2.

    h_wide is the number of sigma-orbits of the rho-cycles, one walk each;
    h_narrow doubles it exactly when the fundamental unit has norm +1, since
    then no cycle is its own mirror.  m is factorized once,
    here; _class_number and the helpers below trust it.
    """
    if m < 2 or not squarefree_core(m)[1]:
        raise ValueError("class_number: m must be square-free and >= 2 "
                         "(pass the square-free core)")
    return _class_number(m)


def _class_number(m: int) -> ClassData:
    # m is square-free and >= 2: callers that hold m from squarefree_core
    # come here directly instead of factorizing it again.
    #
    # A form (L, b), 0 < b <= s, is the int key L*k + b, k = s + 1.  The
    # seeds are the keys of the positive forms with L <= A = _seed_bound(D),
    # and a walked form strikes the key of (|L|, b): its own or its
    # mirror's.  The successor of a reduced (L, b, C) is (C, b', *) with
    # b' = -b (mod 2|C|) in the window (s - 2|C|, s], so only L and b are
    # carried.  With norm -1, sigma is rho to the half length and a walk
    # stops at the mirror b - a*k of its seed (a, b); with norm +1 it comes
    # back to the seed.  A norm that disagrees with the cycles walks onto
    # the popped seed's key, which raises instead of looping.
    D = _discriminant_of(m)
    s = isqrt(D)[0]
    if s > MAX_ROOT_D:
        raise OverflowError(f"class_number: isqrt(D) = {s} for D = {D} "
                            f"exceeds the enumeration limit {MAX_ROOT_D}")
    norm = _unit_norm(m)
    A = _seed_bound(D)
    k = s + 1
    seeds = {a * k + b for a, b, _ in _reduced_triples(D, s, A)}
    walks = 0
    while seeds:
        start = seeds.pop()
        L, b = divmod(start, k)
        stop = b - L * k if norm == -1 else start
        walks += 1
        while True:
            L = (b * b - D) // (4 * L)
            b = s - (s + b) % (2 * abs(L))
            key = L * k + b
            if key == stop:
                break
            if -A <= L <= A:
                try:
                    seeds.remove(key if L > 0 else b - L * k)
                except KeyError:
                    raise ArithmeticError("class_number: the rho-cycles disagree "
                                          "with the unit norm or leave the "
                                          "reduced forms") from None
    return ClassData(m, D, walks if norm == -1 else 2 * walks, walks, norm)
