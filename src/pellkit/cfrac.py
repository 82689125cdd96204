"""Periodic continued fractions of sqrt(m) through the integer-only PQa
recurrence, plus convergents carrying their Pell values x^2 - m*y^2.

The period of sqrt(m) comes from one bare-int PQa loop that also keeps the
Q sequence: the convergents satisfy p_k^2 - m*q_k^2 = (-1)^(k+1) * Q_(k+1),
so `pell` reads Pell values off Q as small integers and builds convergents
only where it needs them.  `SurdState` is the validated form of one PQa
state (P + sqrt(D))/Q, for any D; `iter_convergents` yields validated
convergents with their Pell values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .intkit import gcd, isqrt


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
        if self.D <= 0 or isqrt(self.D)[1]:
            raise ValueError("SurdState: D must be a positive nonsquare")
        if (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError("SurdState: Q must divide D - P^2")

    def floor(self) -> int:
        # floor((P + sqrt(D))/Q) in pure integers; sqrt(D) is irrational, so
        # for Q < 0 an exactly divisible P + isqrt(D) must round down once more.
        num = self.P + isqrt(self.D)[0]
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


@dataclass(frozen=True)
class CFExpansion:
    """sqrt(m) = [a0; period repeating], with the minimal period."""

    m: int
    a0: int
    period: tuple[int, ...]
    period_length: int

    def __post_init__(self):
        if not self.period or self.period_length != len(self.period):
            raise ValueError("CFExpansion: period_length must match the period")
        if self.a0 != isqrt(self.m)[0]:
            raise ValueError("CFExpansion: a0 must be floor(sqrt(m))")
        if self.period[-1] != 2 * self.a0:
            raise ValueError("CFExpansion: period must end with 2*a0")


@dataclass(frozen=True)
class Convergent:
    """Truncation p_k/q_k of sqrt(m) with pell_value = p_k^2 - m*q_k^2."""

    index: int
    numerator: int
    denominator: int
    pell_value: int

    def __post_init__(self):
        if gcd(self.numerator, self.denominator) != 1:
            raise ValueError("Convergent: numerator and denominator must be coprime")


def _pqa_period(m: int, p0: int = 0, q0: int = 1) -> tuple[int, list[int], list[int]]:
    """PQa on (p0 + sqrt(m))/q0 for nonsquare m >= 2, on bare ints, with
    q0 > 0 dividing m - p0^2 and p0 < sqrt(m) (sqrt(m) itself by default):
    (a_0, [a_1, ..., a_l], [Q_1, ..., Q_l]) over one minimal period.

    The start has a negative conjugate, so state 1 is reduced and the
    expansion is purely periodic from there.  Every later Q_j is positive,
    so a_j = (P_j + isqrt(m)) // Q_j exactly, and
    Q_(j+1) = Q_(j-1) + a_j*(P_j - P_(j+1)) needs no division.  The period
    closes when the full state (P, Q) returns to (P_1, Q_1); partial-quotient
    runs can coincide transiently, states cannot.
    """
    root = isqrt(m)[0]
    a_first = (p0 + root) // q0
    p1 = a_first * q0 - p0
    q1 = (m - p1 * p1) // q0
    p, q, q_prev = p1, q1, q0
    quotients, qs = [], []
    while True:
        a = (p + root) // q
        quotients.append(a)
        qs.append(q)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
        if p == p1 and q == q1:
            return a_first, quotients, qs


def cf_sqrt(m: int) -> CFExpansion:
    """Minimal-period continued fraction of sqrt(m) for nonsquare m >= 2."""
    if m < 2 or isqrt(m)[1]:
        raise ValueError(f"cf_sqrt: m must be >= 2 and not a perfect square (got {m})")
    a0, period, _ = _pqa_period(m)
    return CFExpansion(m, a0, tuple(period), len(period))


def iter_convergents(exp: CFExpansion) -> Iterator[Convergent]:
    """Lazily yield convergents of sqrt(m); numerators grow exponentially, so
    callers slice rather than materialize."""
    m = exp.m
    p_prev, q_prev = 1, 0
    p, q = exp.a0, 1
    k = 0
    while True:
        yield Convergent(k, p, q, p * p - m * q * q)
        a = exp.period[k % exp.period_length]
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        k += 1


def convergents(exp: CFExpansion, count: int) -> list[Convergent]:
    """First `count` convergents of the expansion."""
    if count < 1:
        raise ValueError("convergents: count must be >= 1")
    return list(islice(iter_convergents(exp), count))


def period_length(m: int) -> int:
    """Length of the minimal period of the continued fraction of sqrt(m)."""
    return cf_sqrt(m).period_length
