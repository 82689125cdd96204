"""Class numbers of real quadratic fields by exact enumeration of reduced
primitive indefinite binary quadratic forms and their rho-cycles.

The reduced forms of discriminant D are (+-a, b, -+c) with 0 < b < sqrt(D),
|sqrt(D) - 2a| < b and b^2 - 4ac = D, so b is a square root of D modulo 4a.
They are enumerated from those roots: for each a up to a bound, factored by
a smallest-prime-factor sieve, the roots modulo each prime power of 4a
are combined by CRT into the roots modulo 2a, and each root class meets
the reduction window at most once.  Every prime-power root comes from
intkit._sqrt_mod_prime_power, the one modular square-root routine that
LMM (pell._solve_by_lmm) uses too.  An a with a rootless prime power is
skipped before it is factored, so the work follows the number of roots, not
D.  The sieve reads off which prime powers have roots from one Euler power
D^((p-1)/2) mod p per odd prime p: 1 when p splits, p - 1 when it is inert,
0 when it divides D.  The roots modulo p^e of an odd p not dividing D are
taken only when the first a divisible by exactly p^e is reached.

The rho-cycles of discriminant D are the narrow classes.  The mirror
sigma: (L, b, C) -> (-L, b, -C) commutes with the rho step, so it maps
cycles onto cycles, and its orbits are the wide classes (Buchmann and
Vollmer, Binary Quadratic Forms (2007), ch. 6; Cohen, A Course in
Computational Algebraic Number Theory (1993), 5.6).  With a unit of norm
-1 every cycle is its own mirror; with norm +1 none is.  So h_wide is the
number of sigma-orbits: h = h+ when the norm is -1, h+ = 2h when it is
+1.  The walks also tell which case holds (see below), so the period of
sqrt(m) is never expanded here.  The walks start only from the seeds, the
positive reduced forms with a <= _seed_bound(D).
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

A walk is the reduced phase of the PQa recurrence of cfrac._pqa_period.
The reduced form (L, b, C) is the surd (b + sqrt(D))/q with q = 2|L|, and
rho takes it to the form (C, b', *) of the next surd: the state
(b, q, q') = (b, 2|L|, 2|C|) steps by t = (s + b) // q', b' = t*q' - b and
(q, q') = (q', q + t*(b - b')), with no division by q and no sign, since
b^2 + q*q' = D is kept.  A form and its mirror have the same state, so
the states of a sigma-orbit make one cycle, of n states, and the unsigned
key q*k + b, k = s + 1, names a form and its mirror.  The sign of L
alternates on every step, so n is odd exactly when the cycle is its own
mirror, when the unit norm is -1.  A walk strikes the key of every state
with q <= 2*_seed_bound(D) that it meets.

The reversal R: (L, b, C) -> (C, b, L), on states (b, q, q') ->
(b, q', q), keeps a form reduced, takes its class to the inverse class and
reverses the rho step, R rho = rho^-1 R (Buchmann and Vollmer, ch. 6).  So
it maps the cycle of a wide class onto the cycle of the inverse class, run
backwards.  The reversal of a state and the next state share q', so a walk
strikes both with one test of q' against the bound, and each step strikes
two states.  A walk from a seed ends at the first of two events.  If the
seed's key returns, after n steps, the class is not its own inverse, and
the walk has struck the seeds of both: two wide classes.  If not,
R reflects the cycle onto itself, as it does for the classes of order at
most 2, the ambiguous classes.  The reflection fixes two points of the
cycle, each a state with q = q' or a step with b' = b, and the walk meets
one of them first.  It then restarts at the reversal of its seed and runs
forward to the other, so it strikes the cycle in about n/2 steps.  The
points are of different kinds exactly when n is odd, when the norm is -1.
Either way a wide class costs about n/2 steps, half of a walk round its
cycle.  By genus theory the ambiguous classes are 2^r, r the 2-rank of
the wide class group, so their count is a power of 2 that divides h_wide
(Buchmann and Vollmer, ch. 6; r = t - 1 or t - 2 for the t primes
dividing D, t - 2 when one of them is 3 mod 4).

The seeds are enumerated in order of a, and the enumeration stops as soon
as every seed is struck, since every sigma-orbit has then been struck.
That needs the exact number of seeds up front.  Let rho(a) be the number
of root classes modulo 2a of x^2 = D (mod 4a).  For a <= s/2, s = isqrt(D),
the window (s - 2a, s] is exactly 2a long, so each class meets it once;
_seed_bound(D) <= s/2 for every D.  For a fundamental D every form is
primitive, since a content g > 1 would make D/g^2 a discriminant, so the
gcd filter never fires, and there are exactly S = sum_{a <= A} rho(a)
seeds.  rho is multiplicative, and an odd prime p not dividing D has
1 + (D/p) classes modulo every power of p, so the sieve gives the row
seeds[a] = rho(a) of every a <= A, and their sum S, with no root except
those of 2 and of the primes dividing D.  The walks count the seeds off S;
the enumeration ends at the largest least seed a* of a sigma-orbit, and
a*/A is about 0.46 in the median over the audit's class numbers.
The count is also kept per row: the rho(a) seeds of row a are owed, and
each strike of a key with q = 2a takes one off, since that key is the seed
(a, b, c) of a and no other.  A row with none owed is skipped before it is
factored or its roots are taken, as each of its seeds would meet a struck
key; in one audit round that skips about half of the rows the enumeration
reaches.  Every strike pays for the count, also where it cannot pay back:
for a large D with small h the enumeration stops after a row or two, and
at the limit the count is about a tenth of the time.  A key struck twice,
walks that disagree on the unit norm, seeds still owed once the
enumeration runs out, a row owed more or fewer strikes than it got once S
is used up, or an ambiguous count that is no power of 2 dividing h_wide
raise ArithmeticError instead of giving a wrong count.

All sqrt(D) comparisons are done on squares in integer arithmetic: a float
at the reduction-window boundary can silently merge or split cycles.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress, cycle
from math import gcd
from operator import not_

from ._records import record
from .intkit import _require_squarefree, _sqrt_mod_prime_power, isqrt, squarefree_core

# Largest isqrt(D) whose class number is computed.  The sieve holds
# _seed_bound(D) entries, isqrt(D // 9) for all but a few D, and the struck
# seeds grow with it: at the limit (D near 4*10^12) a class number took
# 0.7-0.9 s and 101 MiB of peak memory on a 2-vCPU VM under CPython 3.11,
# and anything larger is refused before either is allocated.
MAX_ROOT_D = 2_000_000


# Doubles a row of _residue_sieve.  A seed a <= MAX_ROOT_D / 2 <
# 2*3*5*7*11*13*17*19 has at most 7 prime factors, so rho(a) <= 2^7 for a
# fundamental D; for any other D the row saturates at 255 and never reads 0.
_DOUBLE = bytes(min(2 * n, 255) for n in range(256))


def _residue_sieve(D: int, amax: int) -> tuple[list[int], list[int],
                                               dict[int, list[int]]]:
    """(spf, seeds, roots) for 0 <= a <= amax.  spf[a] is the least prime
    factor of a composite a and 0 otherwise.  seeds[a] is rho(a), the number
    of root classes modulo 2a of x^2 = D (mod 4a), for a fundamental D; for
    any D it is 0 exactly when there is no root, and seeds[0] = 0.  For 2
    and for each prime p dividing D, roots holds the levels q = p^e <= amax,
    e >= 0 for 2 and e >= 1 otherwise, up to the first without classes:
    the roots of x^2 = D modulo q when p is odd, and when p = 2 the classes
    modulo 2q of the roots modulo 4q.  Each level comes from
    intkit._sqrt_mod_prime_power.  seeds[a] doubles, over the primes p of a,
    at each level up to a's power of p at which the number of classes
    rises, and is 0 when one level has no classes.  An odd p not dividing D
    has 1 + (D/p) classes at every level, so seeds needs only its Legendre
    symbol, and its roots are left to _reduced_triples."""
    spf = [0] * (amax + 1)
    for p in range(isqrt(amax)[0], 1, -1):  # the least prime factor writes last
        spf[p * p::p] = [p] * len(range(p * p, amax + 1, p))
    seeds = bytearray(b"\x00" + b"\x01" * amax)
    roots = {}
    primes = list(compress(range(3, amax + 1, 2), map(not_, spf[3::2])))
    # Euler's criterion, one power per prime: 1 split, p - 1 inert, 0 ramified
    for p, euler in chain(((2, 0),), zip(primes, [pow(D, p >> 1, p) for p in primes])):
        if euler == 0:
            # level q: the classes modulo w*q of the roots modulo w*w*q = p^e,
            # which repeat modulo w*q, so the first 1/w of them
            w, q, e = (2, 1, 2) if p == 2 else (1, p, 1)
            below = 1
            while q <= amax:
                found = _sqrt_mod_prime_power(D, p, e)
                found = roots[q] = found[:len(found) // w]
                if not found:
                    seeds[q::q] = bytes(amax // q)
                    break
                if len(found) > below:
                    seeds[q::q] = seeds[q::q].translate(_DOUBLE)
                below = len(found)
                q, e = q * p, e + 1
        else:
            seeds[p::p] = seeds[p::p].translate(_DOUBLE) if euler == 1 else bytes(amax // p)
    return spf, list(seeds), roots


def _reduced_triples(D: int, s: int, spf: list[int], left: list[int],
                     roots: dict[int, list[int]]) -> Iterator[tuple[int, int, int]]:
    """Every (a, b, c) with 0 < a < len(left), left[a] != 0 and c > 0 such
    that (a, b, -c) and (-a, b, c) are reduced primitive forms of
    discriminant D = b^2 + 4ac, s = isqrt(D), len(left) <= s + 1; in order
    of a.  spf and roots are those of _residue_sieve, whose seeds a caller
    that wants every triple passes as left:
    _reduced_triples(D, s, *_residue_sieve(D, amax)).

    b^2 = D (mod 4a) depends on b modulo 2a only, so the roots are taken as
    classes modulo 2a: the CRT product of the classes for the 2-part of a
    and the roots modulo each odd prime power of a, all from
    intkit._sqrt_mod_prime_power.  The window max(1, s+1-2a, 2a-s) <= b <= s
    is at most 2a long, so each class gives at most one b.  The roots modulo
    p^e for an odd prime p not dividing D are taken the first time an a
    divisible by exactly p^e is reached, so a caller that stops early never
    pays for the rest.  The sieve has decided that they exist, so an empty
    answer raises ArithmeticError.  left[a] is read only when the
    enumeration reaches a, so a row that _class_number has used up by then,
    with no seed left unstruck, is skipped before it is factored.
    """
    for a in compress(range(len(left)), left):
        q = a & -a
        n, classes, mod = a // q, roots[q], 2 * q
        while n > 1:
            p = q = spf[n] or n
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                q *= p
                e += 1
            if q not in roots:
                roots[q] = _sqrt_mod_prime_power(D, p, e)
                if not roots[q]:
                    raise ArithmeticError(f"class_number: {D} is not a square "
                                          f"modulo {p}")
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
    _require_squarefree(m, "discriminant_of")
    return _discriminant_of(m)


class ClassData(record("ClassData", "m D h_narrow h_wide unit_norm")):
    """Narrow and wide class numbers of Q(sqrt(m)) with the unit-norm
    correction tying them together."""

    __slots__ = ()

    def __new__(cls, m: int, D: int, h_narrow: int, h_wide: int, unit_norm: int):
        if unit_norm not in (1, -1):
            raise ValueError("ClassData: unit_norm must be +-1")
        expected = h_wide * (2 if unit_norm == 1 else 1)
        if h_wide < 1 or expected != h_narrow:
            raise ValueError("ClassData: narrow/wide relation violated")
        return super().__new__(cls, m, D, h_narrow, h_wide, unit_norm)


def class_number(m: int) -> ClassData:
    """Exact class data of Q(sqrt(m)) for square-free m >= 2.

    h_wide is the number of sigma-orbits of the rho-cycles; a walk covers
    an orbit and the orbit of the inverse class.  h_narrow doubles h_wide
    exactly when the fundamental unit has norm +1, since then no cycle is
    its own mirror.  That norm is read off the walks: it is -1 when an
    orbit's cycle of states has odd length.
    m is factorized once, here; _class_number and the helpers below trust
    it.
    """
    _require_squarefree(m, "class_number")
    return _class_number(m)


def _class_number(m: int) -> ClassData:
    # m is square-free and >= 2: callers that hold m from squarefree_core
    # come here directly instead of factorizing it again.
    return _class_walks(m)[0]


def _class_walks(m: int) -> tuple[ClassData, int]:
    """The class data of Q(sqrt(m)), m square-free and >= 2, and the number
    2^r of its ambiguous wide classes, those of order at most 2."""
    # A reduced form (L, b, C) is the PQa state (b, q, q_next) =
    # (b, 2|L|, 2|C|), and its unsigned key is q*k + b, k = s + 1, which
    # its mirror shares.  The seeds are the positive forms with
    # L <= A = _seed_bound(D), taken in order of L.  From each seed whose
    # key is not struck, _walk strikes the keys with q <= 2A of its
    # sigma-orbit and of the inverse orbit, and says whether the two are one
    # (an ambiguous class, one wide class) or two, and the unit norm.  The
    # sieve's left[a] = rho(a) are the seeds owed at each row a.  Each
    # strike counts one off their sum and one off left[q/2]; the
    # enumeration skips the rows with none owed and stops when no seed is
    # left.  A seed with b^2 + 4ac != D, a key struck twice (as by a walk
    # from a state outside the reduction window, which never meets its
    # seed's key or a symmetry point where it should), walks that disagree
    # on the norm, seeds still owed when the enumeration runs out, rows
    # still owed or overstruck when it stops, and an ambiguous count that
    # is no power of 2 dividing h_wide mean a wrong seed, count or walk;
    # each raises instead of looping or miscounting.
    D = _discriminant_of(m)
    s = isqrt(D)[0]
    if s > MAX_ROOT_D:
        raise OverflowError(f"class_number: isqrt(D) = {s} for D = {D} "
                            f"exceeds the enumeration limit {MAX_ROOT_D}")
    A = _seed_bound(D)
    k, top = s + 1, 2 * A
    spf, left, roots = _residue_sieve(D, A)
    seeds = sum(left)
    struck = set()
    norm = walks = ambiguous = 0
    for a, b, c in _reduced_triples(D, s, spf, left, roots):
        if 2 * a * k + b in struck:
            continue
        if b * b + 4 * a * c != D:
            raise ArithmeticError(f"class_number: the seed ({a}, {b}, {c}) is "
                                  f"not of discriminant {D}")
        walk_norm, own_inverse = _walk(s, k, top, struck, left, b, 2 * a, 2 * c)
        if walk_norm != norm:
            if norm:
                raise ArithmeticError("class_number: the walks disagree on "
                                      "the unit norm")
            norm = walk_norm
        walks += 1 if own_inverse else 2
        ambiguous += own_inverse
        if len(struck) == seeds:
            break
    else:
        raise ArithmeticError(f"class_number: the walks struck {len(struck)} "
                              f"keys, not the {seeds} seeds counted")
    if any(left):
        raise ArithmeticError("class_number: the walks struck a row's seeds "
                              "more or fewer times than the row has")
    if ambiguous < 1 or ambiguous & (ambiguous - 1) or walks % ambiguous:
        raise ArithmeticError(f"class_number: {ambiguous} of the {walks} wide "
                              f"classes are ambiguous, not a power of 2 "
                              f"dividing {walks}")
    return ClassData(m, D, walks if norm == -1 else 2 * walks, walks, norm), ambiguous


def _walk(s: int, k: int, top: int, struck: set[int], left: list[int],
          b: int, q: int, q_next: int) -> tuple[int, bool]:
    """(unit norm, ambiguous) from the walk of the seed (b, q, q_next) of
    _class_walks, which strikes the keys of its sigma-orbit and of the
    inverse orbit into struck and counts them off left."""
    # The reversal (b, q, q') -> (b, q', q) of each state and the next state
    # share q', so each step strikes both under one test of q' <= top; at a
    # step with b' = b they are one state.  The seed's key is struck when a
    # step reaches it or leaves its reversal.  If the seed's key returns,
    # after n steps, the cycle is not its own reversal: two wide classes,
    # and the norm is -1 when n is odd.  A state with q = q' or a step with
    # b' = b is a symmetry point of a cycle that is its own reversal.  At
    # the first, the walk restarts at the seed's reversal, whose reversal is
    # the seed, and runs forward to the second; the norm is -1 when the two
    # points are of different kinds.  A seed with q = q' is the first point
    # itself and its own reversal.
    start = q * k + b
    restart = b, q_next, q
    turns = [False] if q == q_next else []  # True at a step with b' = b
    for walk_norm in cycle((-1, 1)):  # -1 after an odd number of steps
        t = (s + b) // q_next
        b, b_prev = t * q_next - b, b
        q, q_next = q_next, q + t * (b_prev - b)
        if q <= top:
            key = q * k + b
            if key in struck:
                raise ArithmeticError("class_number: a walk struck a key twice")
            struck.add(key)
            if b == b_prev:
                left[q >> 1] -= 1
            else:
                reversal = key + b_prev - b
                if reversal in struck:
                    raise ArithmeticError("class_number: a walk struck a key "
                                          "twice")
                struck.add(reversal)
                left[q >> 1] -= 2
                if key == start:
                    return walk_norm, False
        if b == b_prev or q == q_next:
            turns.append(b == b_prev)
            if len(turns) == 2:
                return -1 if turns[0] != turns[1] else 1, True
            b, q, q_next = restart
