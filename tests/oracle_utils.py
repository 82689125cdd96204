"""Shared oracle helpers: everything here is independent of the machinery it
is used to check."""

import math
from dataclasses import dataclass
from itertools import cycle
from math import gcd, isqrt

from pellkit import (Factorization, FactorizationIncompleteError, PellCertificate,
                     brute_force_solve, cf_sqrt, discriminant_of, factorize,
                     fundamental_unit, is_prime, pell_fundamental)
from pellkit.intkit import MR_VALID_BELOW


@dataclass(frozen=True)
class SurdState:
    """Quadratic surd (P + sqrt(D)) / Q; Q must divide D - P^2 (the PQa
    well-formedness condition, preserved by step())."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("SurdState: Q must be nonzero")
        if self.D <= 0 or isqrt(self.D) ** 2 == self.D:
            raise ValueError("SurdState: D must be a positive nonsquare")
        if (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError("SurdState: Q must divide D - P^2")

    def floor(self) -> int:
        # floor((P + sqrt(D))/Q) in pure integers; sqrt(D) is irrational, so
        # for Q < 0 an exactly divisible P + isqrt(D) must round down once more.
        num = self.P + isqrt(self.D)
        a = num // self.Q
        if self.Q < 0 and num % self.Q == 0:
            a -= 1
        return a

    def step(self) -> tuple[int, "SurdState"]:
        """One PQa step: returns (partial quotient, successor state)."""
        a = self.floor()
        p = a * self.Q - self.P
        q = (self.D - p * p) // self.Q
        return a, SurdState(p, q, self.D)


def surd_expansion(m: int) -> tuple[int, list[tuple[int, int]]]:
    """(l, [(p_0, q_0), ..., (p_(2l-1), q_(2l-1))]) for nonsquare m: the
    period l of sqrt(m) is the first return of the SurdState after one step,
    and the convergents of its first 2l partial quotients come from a
    recurrence written here.  Shares no code with pellkit.cfrac."""
    a, first = SurdState(0, 1, m).step()
    quotients, state = [a], first
    while True:
        a, state = state.step()
        quotients.append(a)
        if state == first:
            break
    ell = len(quotients) - 1
    quotients += quotients[1:]
    p_prev, p, q_prev, q = 0, 1, 1, 0  # p_-2, p_-1, q_-2, q_-1
    convs = []
    for a in quotients[:2 * ell]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        convs.append((p, q))
    return ell, convs


def reference_pqa_period(m: int, p0: int = 0, q0: int = 1) -> tuple[int, list[int], list[int]]:
    """(a_0, [a_1, ..., a_l], [Q_1, ..., Q_l]) of (p0 + sqrt(m))/q0 by the
    SurdState stepper, for a start whose first successor is reduced
    ((0, 1), and (1, 2) for odd m): every step up to the first return of
    that successor.  Shares no code with pellkit.cfrac."""
    a0, state = SurdState(p0, q0, m).step()
    first, quotients, qs = state, [], []
    while True:
        qs.append(state.Q)
        a, state = state.step()
        quotients.append(a)
        if state == first:
            return a0, quotients, qs


def reference_least_unit(m: int, p0: int = 0, q0: int = 1) -> tuple[int, int, int]:
    """(G_i, B_i, (-1)^(i+1)) at the first return of Q to q0, i = qs.index(q0),
    read sequentially over the reference_pqa_period expansion: every pair
    from index 0 to i, G_k = a_k*G_(k-1) + G_(k-2) from G_-2 = -p0,
    G_-1 = q0, and B_k likewise from B_-2 = 1, B_-1 = 0."""
    a0, quotients, qs = reference_pqa_period(m, p0, q0)
    i = qs.index(q0)
    g_prev, g, b_prev, b = -p0, q0, 1, 0
    for a in [a0, *quotients[:i]]:
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
    return g, b, 1 if i % 2 else -1


def reference_convergent_scan(m: int, N: int) -> PellCertificate:
    """Certificate of x^2 - m*y^2 = N for N^2 < m by the full-span scan: every
    convergent p_k/q_k of sqrt(m) for k below the value period (l for even
    l, 2l for odd l), from surd_expansion, kept where p_k^2 - m*q_k^2 = N.
    The certificate records the classical 2l."""
    ell, convs = surd_expansion(m)
    span = ell if ell % 2 == 0 else 2 * ell
    found = [(p, q) for p, q in convs[:span] if p * p - m * q * q == N]
    return PellCertificate(m, N, tuple(found), 2 * ell, "convergents")


def period_length(m: int) -> int:
    """Length of the minimal period of the continued fraction of sqrt(m)."""
    return cf_sqrt(m).period_length


def euler_phi(n: int) -> int:
    """Euler totient, computed from the exact factorization."""
    phi = n
    for p, _ in factorize(n).factors:
        phi //= p
        phi *= p - 1
    return phi


# Gaps between the numbers prime to 30, from 7 on: 7, 11, 13, ..., 29, 31, 37
_WHEEL_30 = (4, 2, 4, 2, 4, 6, 2, 6)


def reference_factorize(n: int, trial_bound: int = 10_000_000) -> Factorization:
    """Exact factorization by trial division up to `trial_bound`, with the
    cofactor certified prime by is_prime.  Raises
    FactorizationIncompleteError instead of guessing.  For n < 10^14 the
    default bound is never reached, so this is trial division to sqrt(n).
    After 2, 3 and 5 the trial divisors are the numbers prime to 30.
    """
    if n < 1:
        raise ValueError("factorize: n must be >= 1")
    bound = trial_bound
    value = n
    factors = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    d, gaps = 7, cycle(_WHEEL_30)
    while d * d <= n and d <= bound:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += next(gaps)
    if n > 1:
        if d * d > n:
            factors.append((n, 1))  # no factor <= sqrt(n): prime
        elif n < MR_VALID_BELOW and is_prime(n):
            factors.append((n, 1))
        else:
            raise FactorizationIncompleteError(
                f"factorize: cofactor {n} not resolved with trial bound {bound}"
            )
    return Factorization(value, tuple(factors))


def primitive_brute_force(m: int, N: int, y_max: int) -> list[tuple[int, int]]:
    """Coprime solutions found by direct perfect-square testing."""
    return [s for s in brute_force_solve(m, N, y_max) if gcd(s[0], s[1]) == 1]


def orbit_closure(solutions, m: int, y_max: int) -> list[tuple[int, int]]:
    """Expand class representatives by repeated multiplication with the +1
    unit, keeping y <= y_max.  Sorted by (y, x)."""
    u, v = pell_fundamental(m)
    out = set()
    for x, y in solutions:
        while y <= y_max:
            out.add((x, y))
            x, y = x * u + y * v * m, x * v + y * u
    return sorted(out, key=lambda s: (s[1], s[0]))


def _unit_times(x: int, y: int, m: int, u: int, v: int) -> tuple[int, int]:
    # (x + y sqrt(m)) * (u + v sqrt(m))
    return x * u + y * v * m, x * v + y * u


def _same_class(s: tuple[int, int], t: tuple[int, int], m: int, N: int) -> bool:
    # Classical criterion: (x1 x2 - m y1 y2)/N and (x1 y2 - y1 x2)/N integral.
    x1, y1 = s
    x2, y2 = t
    return (x1 * x2 - m * y1 * y2) % N == 0 and (x1 * y2 - y1 * x2) % N == 0


def _is_negative(x: int, y: int, m: int) -> bool:
    # sign of x + y*sqrt(m), exactly
    if x >= 0 and y >= 0:
        return False
    if x <= 0 and y <= 0:
        return True
    if x > 0:  # y < 0
        return x * x < m * y * y
    return m * y * y < x * x  # x < 0, y > 0


def _least_positive(x: int, y: int, m: int, u: int, v: int) -> tuple[int, int]:
    # Least member of the class of x + y*sqrt(m) with both coordinates positive.
    if _is_negative(x, y, m):
        x, y = -x, -y
    steps = 0
    while x <= 0 or y <= 0:
        x, y = _unit_times(x, y, m, u, v)
        steps += 1
        if steps > 64:
            raise ArithmeticError("solve_pm_N: positivity normalization diverged")
    return x, y


def reference_bounded_search(m: int, N: int) -> PellCertificate:
    """Decide x^2 - m*y^2 = N over coprime solutions by sweeping every y up
    to the classical bound; the sweep grows with the +1 unit, so it is a
    reference for small units only."""
    # For N^2 >= m the convergent theorem no longer covers the search space.
    # Every solution class still contains a representative (x, y) with
    # 0 <= y <= v*sqrt(|N|) / sqrt(2(u -+ 1)), (u, v) the least +1 solution,
    # so a bounded sweep over y is complete for all solutions.
    u, v = pell_fundamental(m)
    denom = 2 * (u - 1) if N < 0 else 2 * (u + 1)
    y_bound = isqrt((v * v * abs(N)) // denom) + 1
    reps: list[tuple[int, int]] = []
    for y in range(0, y_bound + 1):
        t = m * y * y + N
        if t < 0:
            continue
        x = isqrt(t)
        if x * x != t:
            continue
        candidates = [(x, y)]
        if x > 0 and y > 0:
            candidates.append((-x, y))
        for cand in candidates:
            if gcd(cand[0], cand[1]) != 1:
                continue  # certificates cover coprime solutions
            if any(_same_class(cand, r, m, N) for r in reps):
                continue
            reps.append(cand)
    sols = sorted(_least_positive(x, y, m, u, v) for x, y in reps)
    return PellCertificate(m, N, tuple(sols), y_bound + 1, "bounded-search")


def reference_pqa_to_unit(m: int, root: int, p: int, q: int) -> tuple[list[int], bool]:
    """PQa on (p + sqrt(m))/q, q > 0 dividing m - p^2, root = isqrt(m): the
    partial quotients a_0, ..., a_(i-1) up to the first Q_i = +-1 (i >= 1)
    and True, or the quotients of one full period of the reduced cycle the
    expansion falls into, without such a Q, and False.

    The start need not be reduced and early Q can be negative, so each
    partial quotient is floored exactly for either sign of Q, and the
    period is timed from the first reduced state (P, Q): Q > 0, P <= root,
    P + Q > root and Q <= P + root.  An independent reference for
    `cfrac._pqa_period` from LMM starts: it shares no code with that loop.
    """
    quotients = []
    first = None
    while True:
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        quotients.append(a)
        p = a * q - p
        q = (m - p * p) // q
        if q == 1 or q == -1:
            return quotients, True
        if first is None:
            if 0 < q <= p + root and p <= root < p + q:
                first = (p, q)
        elif (p, q) == first:
            return quotients, False


def _kronecker(D: int, n: int) -> int:
    if n == 0:
        return 0
    result = 1
    a = D
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    a %= n
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


def analytic_class_number(m: int) -> float:
    """Wide class number by the finite Dirichlet formula
    h = -sum_a chi(a) log sin(pi a / D) / (2 log eps); float, but lands
    within 1e-4 of the true integer at this scale.  Independent of the
    form-cycle machinery."""
    D = discriminant_of(m)
    u = fundamental_unit(m)
    eps = (u.a + u.b * math.sqrt(m)) / u.denom
    total = 0.0
    for a in range(1, D):
        chi = _kronecker(D, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / D))
    return total / (2 * math.log(eps))


def reference_reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Coefficients (a, b, c) of every reduced primitive form of the valid
    nonsquare discriminant D, by trial division: b runs over
    0 < b < sqrt(D), b = D (mod 2), and every a in the reduction window
    that divides (D - b^2)/4 gives (a, b, -c) and then (-a, b, c).  Theta(D)
    work; sorted by b, then a."""
    s = isqrt(D)
    forms = []
    for b in range(2 - D % 2, s + 1, 2):
        K = (D - b * b) // 4
        for a in range(max(1, (s + 2 - b) // 2), (s + b) // 2 + 1):
            if K % a == 0 and gcd(a, b, K // a) == 1:
                forms += [(a, b, -(K // a)), (-a, b, K // a)]
    return forms


def _is_reduced(a: int, b: int, c: int, D: int) -> bool:
    """b^2 - 4ac = D and |sqrt(D) - 2|a|| < b < sqrt(D), decided on squares
    (D is a nonsquare, so no comparison with sqrt(D) is an equality)."""
    lo, hi = 2 * abs(a) - b, 2 * abs(a) + b
    return (b * b - 4 * a * c == D and b > 0 and b * b < D
            and (lo < 0 or lo * lo < D) and hi * hi > D)


def reference_rho_cycles(D: int) -> list[list[tuple[int, int, int]]]:
    """The rho-cycles of reference_reduced_forms(D), each as its list of
    forms in walk order.  The successor of a reduced (a, b, c) is the one
    reduced form (c, b', c') with b' = -b (mod 2|c|), found by testing every
    such 0 < b' < sqrt(D) against the reduction conditions.  Every successor
    must be a reference form not yet walked, and every walk must come back
    to the form it started from."""
    unseen = set(reference_reduced_forms(D))
    cycles = []
    while unseen:
        start = f = min(unseen)
        unseen.remove(start)
        cycle = [start]
        while True:
            a, b, c = f
            step = 2 * abs(c)
            succ = [(c, b2, (b2 * b2 - D) // (4 * c))
                    for b2 in range(-b % step or step, isqrt(D) + 1, step)
                    if (b2 * b2 - D) % (4 * c) == 0
                    and _is_reduced(c, b2, (b2 * b2 - D) // (4 * c), D)]
            assert len(succ) == 1, (D, f, succ)
            f = succ[0]
            if f == start:
                break
            assert f in unseen, (D, f, "left the reduced forms or closed early")
            unseen.remove(f)
            cycle.append(f)
        cycles.append(cycle)
    return cycles


def reference_narrow_class_number(D: int) -> int:
    """Number of rho-cycles on reference_reduced_forms(D)."""
    return len(reference_rho_cycles(D))
