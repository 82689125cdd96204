"""The machine's current speed, measured with a fixed reference kernel.

The baseline machine's speed drifts by up to ~1.6x over minutes (it shares
its host with other guests), and the drift moves every op of a run
together.  So the benchmark times the kernel between ops and reports each
op's time scaled to a fixed kernel time:

    scaled = op time * REFERENCE_S / (median of the recent kernel times)

The kernel does the kind of work pellkit's inner loops do, with the
benchmark's own code: small-integer reduced-form enumeration, big-integer
continued-fraction convergents and a y sweep of integer square roots.  A
change to pellkit moves the op times and not the kernel's, so scaled times
move with it as raw times would on a machine of constant speed.
"""

from __future__ import annotations

import math
from time import perf_counter

# About the kernel's time on the baseline machine (Python 3.11.7, 2 vCPUs).
REFERENCE_S = 0.005
FORMS_D = 4 * 30001
CF_M, CF_STEPS = 9999991, 650
SWEEP_M, SWEEP_N, SWEEP_Y = 999999999999, -123456789, 3000


def _reduced_forms(D: int) -> int:
    """Count (a, b) with b^2 = D mod 4a, |sqrt D - 2a| < b < sqrt D."""
    r = math.isqrt(D)
    count = 0
    for b in range(2 - D % 2 if D % 2 else 2, r + 1, 2):
        n = (D - b * b) // 4
        for a in range((r - b) // 2 + 1, (r + b) // 2 + 1):
            if n % a == 0:
                count += 1
    return count


def _convergent(m: int, steps: int) -> int:
    a0 = math.isqrt(m)
    p, q, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    for _ in range(steps):
        p = a * q - p
        q = (m - p * p) // q
        a = (a0 + p) // q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        math.gcd(h1, k1)
    return h1


def _isqrt_exact(n: int) -> tuple[int, bool]:
    r = math.isqrt(n)
    return r, r * r == n


def _sweep(m: int, N: int, ys: int) -> int:
    hits = 0
    for y in range(1, ys + 1):
        t = m * y * y + N
        if t >= 0 and _isqrt_exact(t)[1]:
            hits += 1
    return hits


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    t0 = perf_counter()
    _reduced_forms(FORMS_D)
    _convergent(CF_M, CF_STEPS)
    _sweep(SWEEP_M, SWEEP_N, SWEEP_Y)
    return perf_counter() - t0
