"""Periodic continued fractions through the integer-only PQa recurrence,
and their convergents on bare ints.

One bare-int PQa loop, `_pqa_period`, expands (P + sqrt(m))/Q from any
start and keeps the Q sequence: for sqrt(m) the convergents satisfy
p_k^2 - m*q_k^2 = (-1)^(k+1) * Q_(k+1), so `pell` reads Pell values off Q
as small integers and builds convergents only where it needs them.
The period l of sqrt(m), and of (1 + sqrt(m))/2 for odd m, is a palindrome:
a_k = a_(l-k), Q_k = Q_(l-k) and P_k = P_(l+1-k).  So the loop stops at its
centre, P_k = P_(k+1) (l = 2k) or Q_k = Q_(k+1) (l = 2k + 1), and mirrors
the rest; `pell` reads the unit and the convergents past the centre off the
first half too.
Convergents come from one lazy bare-int recurrence, `_convergent_pairs`,
which also builds the units and the LMM solutions of `pell`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, cycle

from ._records import record
from .intkit import isqrt


class CFExpansion(record("CFExpansion", "m a0 period period_length")):
    """sqrt(m) = [a0; period repeating], with the minimal period."""

    __slots__ = ()

    def __new__(cls, m: int, a0: int, period: tuple[int, ...], period_length: int):
        if not period or period_length != len(period):
            raise ValueError("CFExpansion: period_length must match the period")
        if a0 != isqrt(m)[0]:
            raise ValueError("CFExpansion: a0 must be floor(sqrt(m))")
        if period[-1] != 2 * a0:
            raise ValueError("CFExpansion: period must end with 2*a0")
        return super().__new__(cls, m, a0, period, period_length)


def _pqa_period(m: int, p0: int = 0, q0: int = 1) -> tuple[int, list[int], list[int]]:
    """PQa on (p0 + sqrt(m))/q0 for nonsquare m >= 2, on bare ints, from any
    start with q0 != 0 dividing m - p0^2 (sqrt(m) itself by default):
    (a_0, [a_1, ..., a_k], [Q_1, ..., Q_k]) up to one minimal period past the
    first reduced state r >= 1 (r = 1 for sqrt(m) and (1 + sqrt(m))/2).

    Before state r, Q can be negative, so a_j is floored exactly for either
    sign and Q_(j+1) = (m - P_(j+1)^2) / Q_j.  State r (0 < Q <= P + isqrt(m),
    P <= isqrt(m) < P + Q) is reduced, and from there the expansion is purely
    periodic with Q > 0, so Q_(j+1) = Q_(j-1) + a_j*(P_j - P_(j+1)) needs no
    division.  The period closes when the full state (P, Q) returns to
    (P_r, Q_r); partial-quotient runs can coincide transiently, states cannot.

    The two principal starts, (p0, q0) = (0, 1) and (1, 2), have palindromic
    periods (a_k = a_(l-k), Q_k = Q_(l-k), P_k = P_(l+1-k)), so their loop
    stops at the first P_k = P_(k+1), the centre of an even period l = 2k,
    or Q_k = Q_(k+1), the centre of an odd one, l = 2k + 1 (Q_1 = q0 is
    period 1), and reverses the first half; the last terms are
    a_l = (P_1 + isqrt(m)) // q0 and Q_l = q0.  Every other start, LMM's
    among them, runs the whole period.
    """
    root = isqrt(m)[0]
    a_first = (p0 + root) // q0 if q0 > 0 else (p0 + root + 1) // q0
    p = a_first * q0 - p0
    q, q_prev = (m - p * p) // q0, q0
    quotients, qs = [], []
    while not (0 < q <= p + root and p <= root < p + q):
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        quotients.append(a)
        qs.append(q)
        p_next = a * q - p
        q, q_prev = (m - p_next * p_next) // q, q
        p = p_next
    p_r, q_r = p, q
    mirror = (p0, q0) in ((0, 1), (1, 2))
    while not (mirror and q == q_prev):
        a = (p + root) // q
        quotients.append(a)
        qs.append(q)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        if mirror and p_next == p:  # P_k = P_(k+1): even period l = 2k
            quotients += quotients[-2::-1]
            qs += qs[-2::-1]
            break
        p = p_next
        if p == p_r and q == q_r:
            return a_first, quotients, qs
    else:  # Q_k = Q_(k+1): odd period l = 2k + 1 (k = 0 is period 1)
        quotients += quotients[::-1]
        qs += qs[::-1]
    quotients.append((p_r + root) // q0)
    qs.append(q0)
    return a_first, quotients, qs


def _convergent_pairs(a0: int, period: Sequence[int], p0: int = 0,
                      q0: int = 1) -> Iterator[tuple[int, int]]:
    """Lazily yield (G_k, B_k), k = 0, 1, ..., on bare ints, for the partial
    quotients a0, then `period` repeated forever, of the PQa expansion of
    (p0 + sqrt(m))/q0: G_k = a_k*G_(k-1) + G_(k-2), likewise B_k, seeded
    with G_-2 = -p0, G_-1 = q0, B_-2 = 1, B_-1 = 0.  For sqrt(m) itself the
    pairs are the convergents (p_k, q_k); in general
    G_k^2 - m*B_k^2 = (-1)^(k+1) * Q_(k+1) * q0 (Jacobson and Williams,
    *Solving the Pell Equation*)."""
    g_prev, g, b_prev, b = -p0, q0, 1, 0
    for a in chain((a0,), cycle(period)):
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
        yield g, b


def cf_sqrt(m: int) -> CFExpansion:
    """Minimal-period continued fraction of sqrt(m) for nonsquare m >= 2."""
    if m < 2 or isqrt(m)[1]:
        raise ValueError(f"cf_sqrt: m must be >= 2 and not a perfect square (got {m})")
    a0, period, _ = _pqa_period(m)
    return CFExpansion(m, a0, tuple(period), len(period))
