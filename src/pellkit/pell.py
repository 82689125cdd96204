"""Fundamental solutions of x^2 - m*y^2 = +-1, fundamental units of real
quadratic fields, closed-form units for the four d^2 + r families
(r in {-1, +3, +2, -2}), and a complete decision procedure for
x^2 - m*y^2 = N.

Every unit is one read, `_least_unit`: the first return of Q to q0 in the
PQa expansion of (p0 + sqrt(m))/q0.  From sqrt(m) it is the convergent at
index l-1, l the period, the least solution of norm (-1)^l (for odd l its
square is the least +1 solution); from (1 + sqrt(m))/2 the half-integral unit.
The period is a palindrome, so the read takes the pairs only up to its
centre and squares, or multiplies, the one or two pairs there.

Solvability certificates are about primitive solutions (coprime x, y); for
square-free |N| that is every solution.  An empty certificate is a proof.
For |N| < sqrt(m) it comes from a scan of the PQa Q sequence of sqrt(m)
over one period of Pell values, which reads
p_k^2 - m*q_k^2 = (-1)^(k+1) * Q_(k+1) as small integers for both signs of
N at once and builds the convergents (p_k, q_k) only up to the centre of
the palindromic period; the unit and every later hit follow from those.
For larger |N| it comes from the Lagrange-Matthews-Mollin method: one PQa
run on (z + sqrt(m))/|N| for each square root z of m modulo |N|, so the
cost follows the period and the factorization of |N|, not the size of the
fundamental unit.  Every path expands through the one PQa loop,
`cfrac._pqa_period`, and reads its hits off the Q sequence.
"""

from __future__ import annotations

from itertools import islice

from ._records import record
from .cfrac import _convergent_pairs, _pqa_period
from .intkit import _require_nonsquare, _require_squarefree, _sqrt_mod, isqrt

D2MINUS1 = "D2MINUS1"
D2PLUS3 = "D2PLUS3"
D2PLUS2 = "D2PLUS2"
D2MINUS2 = "D2MINUS2"

# family of m = d^2 + r -> (r, d_min, step, rule): rd_unit admits the
# d >= d_min with d = d_min (mod step)
_RD_RULES = {
    D2MINUS1: (-1, 2, 2, "even d >= 2"),
    D2PLUS3: (3, 3, 3, "d divisible by 3"),
    D2PLUS2: (2, 3, 2, "odd d >= 3"),
    D2MINUS2: (-2, 3, 2, "odd d >= 3"),
}

RD_FAMILIES = tuple(_RD_RULES)


class QuadraticInteger(record("QuadraticInteger", "a b m denom")):
    """(a + b*sqrt(m)) / denom with denom in {1, 2}; denom 2 requires
    m = 1 (mod 4) and a = b (mod 2), and is kept in lowest terms."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, m: int, denom: int = 1):
        _require_nonsquare(m, "QuadraticInteger")
        if denom == 2:
            if m % 4 != 1:
                raise ValueError("QuadraticInteger: denom 2 requires m = 1 (mod 4)")
            if (a - b) % 2 != 0:
                raise ValueError("QuadraticInteger: denom 2 requires a = b (mod 2)")
            if a % 2 == 0 and b % 2 == 0:
                raise ValueError("QuadraticInteger: not in lowest terms (use make)")
        elif denom != 1:
            raise ValueError("QuadraticInteger: denom must be 1 or 2")
        return super().__new__(cls, a, b, m, denom)

    @classmethod
    def make(cls, a: int, b: int, m: int, denom: int = 1) -> "QuadraticInteger":
        """Construct, reducing (even, even)/2 to lowest terms."""
        if denom == 2 and a % 2 == 0 and b % 2 == 0:
            a, b, denom = a // 2, b // 2, 1
        return cls(a, b, m, denom)

    @property
    def norm(self) -> int:
        num = self.a * self.a - self.m * self.b * self.b
        d2 = self.denom * self.denom
        if num % d2 != 0:
            raise ArithmeticError("QuadraticInteger: norm is not an integer")
        return num // d2

    def __str__(self):
        if self.b == 0:
            body = str(self.a)
        else:
            mag = f"sqrt({self.m})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.m})"
            body = f"{self.a} {'+' if self.b > 0 else '-'} {mag}"
        return f"({body})/2" if self.denom == 2 else body


class PellCertificate(record("PellCertificate", "m target solutions scan_length method")):
    """Outcome of deciding x^2 - m*y^2 = target over coprime positive (x, y).

    `solutions` lists one least-positive representative per solution class
    (empty means provably none exist); `method` names the scan and
    `scan_length` the length it is complete for.  For "convergents" that is
    the classical two-period length 2l (the scan reads only l Pell values
    when l is even, since the second period repeats the first).  For "lmm"
    it is 1 + the PQa steps taken over all square roots of m modulo |N|: the
    root search counts as one step, so it stays >= 1 when m has no root.
    """

    __slots__ = ()

    def __new__(cls, m: int, target: int, solutions: tuple[tuple[int, int], ...],
                scan_length: int, method: str):
        if scan_length < 1:
            raise ValueError("PellCertificate: scan_length must be >= 1")
        for x, y in solutions:
            if x * x - m * y * y != target:
                raise ValueError(f"PellCertificate: ({x},{y}) does not solve the equation")
        return super().__new__(cls, m, target, solutions, scan_length, method)

    @property
    def has_solutions(self) -> bool:
        return bool(self.solutions)


def _least_unit(m: int, p0: int = 0, q0: int = 1) -> tuple[int, int, int]:
    """PQa on (p0 + sqrt(m))/q0 up to the first return of Q to q0, at the end
    of the period l, qs[l-1] = Q_l: (G_(l-1), B_(l-1), sign) with
    G^2 - m*B^2 = sign * q0^2 and sign = (-1)^l (Jacobson and Williams,
    *Solving the Pell Equation*, 2009), read from the pairs up to the centre
    of the palindromic period.  The principal cycle always holds Q = q0, so
    a cycle that closes without it, or a pair of another norm, is a broken
    invariant."""
    a0, period, qs = _pqa_period(m, p0, q0)
    if q0 not in qs:
        raise ArithmeticError(f"pell: principal cycle closed without Q = {q0}")
    pairs = [(q0, 0), *islice(_convergent_pairs(a0, period, p0, q0), (len(qs) + 1) // 2)]
    return _centre_unit(m, q0, qs, pairs)


def _centre_unit(m: int, q0: int, qs: list[int],
                 pairs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """The unit (G_(l-1), B_(l-1), (-1)^l) of a palindromic period l = len(qs)
    from the pairs[j + 1] = (G_j, B_j), j = -1, ..., up to its centre k = l // 2:
    (G_(k-1) + B_(k-1)*sqrt(m))^2 / Q_k for even l, and
    (G_(k-1) + B_(k-1)*sqrt(m)) * (G_k + B_k*sqrt(m)) / Q_k for odd l."""
    ell = len(qs)
    k = ell // 2
    q_k = qs[k - 1]
    g, b = pairs[k]
    if ell % 2:
        g2, b2 = pairs[k + 1]
        x, y, sign = g * g2 + m * b * b2, g * b2 + g2 * b, -1
    else:
        x, y, sign = g * g + m * b * b, 2 * g * b, 1
    (x, rx), (y, ry) = divmod(x, q_k), divmod(y, q_k)
    if rx or ry or x * x - m * y * y != sign * q0 * q0:
        raise ArithmeticError(f"pell: the first return of Q = {q0} is not a unit")
    return x, y, sign


def pell_fundamental(m: int) -> tuple[int, int]:
    """Least positive solution of x^2 - m*y^2 = 1: the convergent at index
    l-1 when the period l is even, and its square when l is odd."""
    _require_nonsquare(m, "pell_fundamental")
    x, y, sign = _least_unit(m)
    if sign < 0:
        return x * x + m * y * y, 2 * x * y
    return x, y


def neg_pell(m: int) -> tuple[int, int] | None:
    """Least positive solution of x^2 - m*y^2 = -1, present exactly when the
    period l of sqrt(m) is odd; then it is the convergent at index l-1."""
    _require_nonsquare(m, "neg_pell")
    x, y, sign = _least_unit(m)
    return (x, y) if sign < 0 else None


def fundamental_unit(m: int) -> QuadraticInteger:
    """Fundamental unit (> 1) of the ring of integers of Q(sqrt(m)) for
    square-free m >= 2: the first return of Q to q0 in the expansion of
    (q0 - 1 + sqrt(m))/q0, with q0 = 2 for m = 1 (mod 4) and 1 otherwise."""
    _require_squarefree(m, "fundamental_unit")
    return _fundamental_unit(m)


def _fundamental_unit(m: int) -> QuadraticInteger:
    # m is square-free and >= 2: callers that hold m from squarefree_core
    # come here directly instead of factorizing it again.
    q0 = 2 if m % 4 == 1 else 1
    g, b, _ = _least_unit(m, q0 - 1, q0)
    return QuadraticInteger.make(g, b, m, q0)


def unit_norm(m: int) -> int:
    """Norm (+1 or -1) of the fundamental unit of Q(sqrt(m)) for square-free
    m >= 2: -1 exactly when the period of sqrt(m) is odd.  That is the norm
    of the fundamental unit of Z[sqrt(m)], whose unit group has index 1 or 3
    in that of the maximal order; an odd power keeps the norm."""
    _require_squarefree(m, "unit_norm")
    return -1 if len(_pqa_period(m)[1]) % 2 else 1


def rd_unit(family: str, d: int) -> QuadraticInteger:
    """Closed-form unit of norm +1 for m = d^2 + r:

      D2MINUS1 (r = -1, even d >= 2):  d + sqrt(m)
      D2PLUS3  (r = +3, 3 | d):        ((2d^2+3) + 2d*sqrt(m)) / 3, exactly integral
      D2PLUS2  (r = +2, odd d >= 3):   (d^2+1) + d*sqrt(m)
      D2MINUS2 (r = -2, odd d >= 3):   (d^2-1) + d*sqrt(m)

    The last three are Degert's (d + sqrt(m))^2 / |r| (H. Degert, 1958),
    integral since |r| divides 2d and 2d^2 + r for every admitted d.
    """
    rule = _RD_RULES.get(family)
    if rule is None:
        raise ValueError(f"rd_unit: unknown family {family!r}")
    r, d_min, step, text = rule
    if d < d_min or (d - d_min) % step:
        raise ValueError(f"rd_unit: {family} requires {text}")
    k = abs(r)
    a, b = (d, 1) if k == 1 else ((2 * d * d + r) // k, 2 * d // k)
    unit = QuadraticInteger(a, b, d * d + r)
    if unit.norm != 1:
        raise ArithmeticError("rd_unit: closed form is not a +1 unit")
    return unit


def brute_force_solve(m: int, N: int, y_max: int) -> list[tuple[int, int]]:
    """All (x, y) with 1 <= y <= y_max, x >= 0 and x^2 - m*y^2 = N, by testing
    m*y^2 + N for squareness.  Independent oracle; makes no completeness claim."""
    if m < 1:
        raise ValueError("brute_force_solve: m must be positive")
    if N == 0:
        raise ValueError("brute_force_solve: N must be nonzero")
    if y_max < 1:
        raise ValueError("brute_force_solve: y_max must be >= 1")
    out = []
    for y in range(1, y_max + 1):
        t = m * y * y + N
        if t < 0:
            continue
        x, exact = isqrt(t)
        if exact:
            out.append((x, y))
    return out


def _solve_by_convergents(m: int, *targets: int) -> tuple[PellCertificate, ...]:
    # Complete for coprime solutions when N^2 < m: every positive primitive
    # solution is a convergent, and p_k^2 - m*q_k^2 = (-1)^(k+1) * Q_(k+1).
    # The Pell values repeat with period l (l even) or 2l (l odd), and one
    # such period later each convergent is multiplied by the +1 unit, so a
    # single value period holds the least positive member of every class.
    # The period is a palindrome, so the convergents are built only up to
    # its centre: with eps = (p_(l-1), q_(l-1)), the convergent at k < l is
    # eps * conj(p_(l-2-k), q_(l-2-k)) up to sign, and at k >= l (odd l) it
    # is eps * (p_(k-l), q_(k-l)).  One expansion serves every target N.
    a0, period, qs = _pqa_period(m)
    ell = len(period)
    half = (ell + 1) // 2  # convergents 0, ..., half - 1 reach the centre
    values = qs * (1 + ell % 2)  # Q_(k+1) over one value period
    hits = []
    for N in targets:
        n = abs(N)
        hits.append([k for k in range(1 if N > 0 else 0, len(values), 2) if values[k] == n])
    if any(hits):
        pairs = [(1, 0), *islice(_convergent_pairs(a0, period), half)]
        u, v, _ = _centre_unit(m, 1, qs, pairs)
    certs = []
    for N, ks in zip(targets, hits):
        found: list[tuple[int, int]] = []
        for k in ks:
            j = k - ell if k >= ell else k
            if j < half:
                x, y = pairs[j + 1]
            else:
                g, b = pairs[ell - 1 - j]
                x, y = abs(u * g - m * v * b), abs(v * g - u * b)
            if k >= ell:
                x, y = u * x + m * v * y, v * x + u * y
            found.append((x, y))
        certs.append(PellCertificate(m, N, tuple(found), 2 * ell, "convergents"))
    return tuple(certs)


def _least_positive_member(x: int, y: int, m: int, N: int, u: int, v: int) -> tuple[int, int]:
    """The least member with x, y > 0 of the class +-(x + y*sqrt(m)) * eps^k
    of a solution of x^2 - m*y^2 = N, eps = u + v*sqrt(m) the +1 unit.

    x + y*sqrt(m) has the sign of x when N > 0 (|x| > |y|*sqrt(m)) and of y
    when N < 0, and a positive member gamma has x, y > 0 exactly when
    gamma^2 > |N|.  Up to sign, an LMM solution has the least |y| in its
    class (or is one times the -1 unit), which puts it at or below the
    least such member, so multiplying up by eps reaches it.
    """
    if (x if N > 0 else y) < 0:
        x, y = -x, -y
    while x <= 0 or y <= 0:
        x, y = x * u + m * y * v, x * v + y * u
    return x, y


def _solve_by_lmm(m: int, N: int) -> PellCertificate:
    # Lagrange-Matthews-Mollin for coprime solutions (K. Matthews,
    # Expositiones Math. 18 (2000)).  A coprime solution has gcd(y, N) = 1,
    # and z = x/y (mod |N|) is a square root of m modulo |N| that is the
    # same for the whole class +-(x + y*sqrt(m)) * eps^k and differs between
    # classes.  For each root z in (-|N|/2, |N|/2], the first Q_i = +-1 of
    # the PQa expansion of (z + sqrt(m))/|N| gives the class's solution of
    # norm N, or of norm -N to be multiplied by the -1 unit; if there is no
    # such Q_i, or the norm is -N and there is no -1 unit, z has no class.
    # qs[i] = Q_(i+1) pairs with (G_i, B_i), of norm (-1)^(i+1) * Q_(i+1) * |N|;
    # a root counts its steps up to the first Q = +-1, else all of them.
    n = abs(N)
    raw: list[tuple[int, int]] = []
    steps = 0
    for z in _sqrt_mod(m, n):
        if 2 * z > n:
            z -= n
        a0, rest, qs = _pqa_period(m, z, n)
        hit = next((i for i, q in enumerate(qs) if q == 1 or q == -1), None)
        if hit is None:
            steps += 1 + len(rest)
        else:
            steps += hit + 1
            raw.append(next(islice(_convergent_pairs(a0, rest, z, n), hit, None)))
    sols = []
    if raw:
        t, w, sign = _least_unit(m)
        u, v = (t * t + m * w * w, 2 * t * w) if sign < 0 else (t, w)
        for x, y in raw:
            if x * x - m * y * y != N:
                if sign > 0:
                    continue
                x, y = x * t + m * y * w, x * w + y * t
            sols.append(_least_positive_member(x, y, m, N, u, v))
    return PellCertificate(m, N, tuple(sorted(sols)), 1 + steps, "lmm")


def solve_pm_N(m: int, N: int) -> PellCertificate:
    """Decide x^2 - m*y^2 = N over coprime positive (x, y), completely.

    For N^2 < m: reads the Pell value (-1)^(k+1) * Q_(k+1) of every convergent
    off the PQa Q sequence over one value period (l terms for even l, 2l for
    odd l; the certificate records the classical 2l), which covers every
    primitive solution class; the returned solutions are the least positive
    representative of each class.  For N^2 >= m: runs the
    Lagrange-Matthews-Mollin PQa method over the square roots of m modulo
    |N|, which factorizes |N| (FactorizationIncompleteError where factorize
    gives up).  Either way, an empty certificate is a proof that no coprime
    solution exists.
    """
    _require_nonsquare(m, "solve_pm_N")
    if N == 0:
        raise ValueError("solve_pm_N: N must be nonzero")
    if N * N < m:
        return _solve_by_convergents(m, N)[0]
    return _solve_by_lmm(m, N)
