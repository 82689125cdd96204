"""Seeded op lists for the benchmark workloads.

Every op is one `pellkit` CLI argv with `--format json`.  The `audit`
workload is the paper's fixed job: one op list of eight commands.  The
other three draw a run's LISTS op lists from the seed:

* a pool of POOL_SIZE items is drawn from the workload's input distribution,
  for `solve-large` one pool for random N and one for constructed N;
* each item has a cost key, the input property its running time follows
  (the discriminant for `classno`, the period length of sqrt(m) for
  `solve-small`, the y-sweep length for `solve-large`, plus for random N
  the trial divisions that factor |N|);
* op list k takes LIST_ITEMS items from each pool, one per
  equal-probability stratum of that key: item j is the pool item whose key
  is nearest the (j + u_k)/LIST_ITEMS quantile of the key's reference
  distribution (`tables.QUANTILES`);
* the offsets u_k are (k + s)/LISTS for k < LISTS/2 and their mirrors
  1 - u_k, with s uniform in [0, 1) from the seed: evenly spaced, and in
  antithetic pairs, so the run's cost profile hardly depends on s.

Every quantile is equally likely, so each op is still a draw from the
stated input distribution, tail included, while every run has the same
cost profile.  Without this, one rare op with a long period can cost more
than the rest of a run, and run-to-run spread swamps any regression.

Everything here is independent of `pellkit`: keys and check data are
computed with the few integer loops below.
"""

from __future__ import annotations

import bisect
import math
import random
import textwrap
from dataclasses import dataclass

WORKLOADS = ("audit", "classno", "solve-small", "solve-large")
# Op lists per run (even) and items per op list and pool: the seeded
# workloads run at least 100 distinct ops, so op_p90_ms has ten beyond it.
LISTS = {"classno": 8, "solve-small": 16, "solve-large": 10}
LIST_ITEMS = {"classno": 14, "solve-small": 4, "solve-large": 7}
POOL_SIZE = 2048
REFERENCE_SEED = "reference"
REFERENCE_SIZE = 32768
QUANTILE_POINTS = 256

CLASSNO_RANGE = (10**4, 10**7)
SMALL_RANGE = (10**5, 10**7)
LARGE_D_RANGE = (10**2, 10**6)
LARGE_N_MAX = 10**12
# One y of the bounded sweep costs about as much as four trial divisions
# (0.6-0.7 us against 0.17 us on the baseline machine).
TRIAL_DIVISIONS_PER_Y = 4
SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))

# m = d^2 + r with the d-condition and the least solution (u, v) of
# u^2 - m v^2 = 1 in closed form; u and v are exact integer expressions.
LARGE_FAMILIES = (
    (-1, lambda d: d % 2 == 0, lambda d: (d, 1)),
    (3, lambda d: d % 3 == 0, lambda d: ((2 * d * d + 3) // 3, 2 * d // 3)),
    (2, lambda d: d % 2 == 1, lambda d: (d * d + 1, d)),
    (-2, lambda d: d % 2 == 1, lambda d: (d * d - 1, d)),
)

TABLE_FAMILY = {1: "F1", 2: "F2", 3: "F3", 4: "F4"}
AUDIT_BOUNDS = ("--pmax", "50", "--nmax", "10")


@dataclass(frozen=True)
class Op:
    """One CLI call plus what its check needs to know about the input."""

    argv: tuple[str, ...]
    kind: str                        # "classno", "solve", "tables", "verify"
    arg: int | str                   # m, or the table / family id
    N: int | None = None
    witness: tuple[int, int] | None = None  # (x0, y0) known to solve it


@dataclass(frozen=True)
class Item:
    key: int
    ops: tuple[Op, ...]


# ------------------------------------------------------------ number theory

def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def prime_factors(n: int) -> dict[int, int]:
    """Trial division; the benchmark only factors n <= 4e7 with it."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_core(n: int) -> int:
    core = 1
    for p, e in prime_factors(n).items():
        if e % 2:
            core *= p
    return core


def discriminant(core: int) -> int:
    return core if core % 4 == 1 else 4 * core


def period_length(m: int) -> int:
    """Period of the continued fraction of sqrt(m), m not a square."""
    a0 = math.isqrt(m)
    p, q, a, n = 0, 1, a0, 0
    while True:
        p = a * q - p
        q = (m - p * p) // q
        a = (a0 + p) // q
        n += 1
        if q == 1:
            return n


def sweep_length(m: int, N: int, u: int, v: int) -> int:
    """Number of y values the classical bounded search for x^2 - m y^2 = N
    must cover: y <= v sqrt(|N|) / sqrt(2(u -+ 1))."""
    denom = 2 * (u - 1) if N < 0 else 2 * (u + 1)
    return math.isqrt(v * v * abs(N) // denom) + 2


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors_rho(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by Pollard's rho."""
    if n == 1:
        return []
    if _is_prime(n):
        return [n]
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return [p] + _prime_factors_rho(n // p)
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return sorted(_prime_factors_rho(g) + _prime_factors_rho(n // g))
        c += 1


def trial_divisions(n: int) -> int:
    """Odd trial divisors d = 3, 5, ... that a plain trial-division
    factorization of n tries before d^2 exceeds what is left of n."""
    rest = n
    while rest % 2 == 0:
        rest //= 2
    d = 3
    for p in _prime_factors_rho(rest):
        if rest % p:
            continue  # a repeated factor, already divided out
        if p * p > rest:
            break
        while rest % p == 0:
            rest //= p
        d = p + 2
    return max(d, math.isqrt(rest) + 1 | 1) // 2 - 1


# ------------------------------------------------------------------ drawing

def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        m = _log_uniform(rng, lo, hi)
        if not is_square(m):
            return m


def solve_op(m: int, N: int, witness=None) -> Op:
    return Op(("solve", str(m), f"--N={N}", "--format", "json"), "solve", m, N, witness)


def draw_classno(rng: random.Random) -> Item:
    m = _nonsquare(rng, *CLASSNO_RANGE)
    op = Op(("classno", str(m), "--format", "json"), "classno", m)
    return Item(discriminant(squarefree_core(m)), (op,))


def draw_solve_small(rng: random.Random) -> Item:
    m = _nonsquare(rng, *SMALL_RANGE)
    p = rng.choice(SMALL_PRIMES)
    return Item(period_length(m), (solve_op(m, p), solve_op(m, -p)))


def _large_m(rng: random.Random) -> tuple[int, int, int, int]:
    """m = d^2 + r from one of the closed-form families, and its least
    solution (u, v) of u^2 - m v^2 = 1."""
    r, d_ok, unit = rng.choice(LARGE_FAMILIES)
    d = _log_uniform(rng, *LARGE_D_RANGE)
    while not d_ok(d):
        d += 1
    return (d * d + r, d, *unit(d))


def draw_large_random(rng: random.Random) -> Item:
    """A random N with m <= N^2 and |N| <= 1e12, almost always unsolvable.
    An unsolvable op also factors |N| by trial division, so the key counts
    those divisions as well as the y sweep."""
    m, _d, u, v = _large_m(rng)
    n = _log_uniform(rng, math.isqrt(m) + 1, LARGE_N_MAX) * rng.choice((1, -1))
    key = TRIAL_DIVISIONS_PER_Y * sweep_length(m, n, u, v) + trial_divisions(abs(n))
    return Item(key, (solve_op(m, n),))


def draw_large_constructed(rng: random.Random) -> Item:
    """N = x0^2 - m y0^2 from a coprime (x0, y0), with m <= N^2 and |N| <= 1e12."""
    m, d, u, v = _large_m(rng)
    lo_n = math.isqrt(m) + 1
    while True:
        target = _log_uniform(rng, lo_n, LARGE_N_MAX)
        y0 = _log_uniform(rng, 1, max(2, target // (2 * d)))
        step = max(1, round(target / (2 * y0 * math.sqrt(m))))
        base = math.isqrt(m * y0 * y0)
        x0 = base + step if rng.random() < 0.5 else base + 1 - step
        n = x0 * x0 - m * y0 * y0
        if x0 > 0 and math.gcd(x0, y0) == 1 and n != 0 and n * n >= m and abs(n) <= LARGE_N_MAX:
            return Item(sweep_length(m, n, u, v), (solve_op(m, n, (x0, y0)),))


# Item kinds: each has its own pool and key quantiles, and every stratum of
# an op list takes one item of each of its workload's kinds.
KINDS = {"classno": ("classno",), "solve-small": ("solve-small",),
         "solve-large": ("solve-large/random", "solve-large/constructed")}
DRAW = {"classno": draw_classno, "solve-small": draw_solve_small,
        "solve-large/random": draw_large_random, "solve-large/constructed": draw_large_constructed}


# ------------------------------------------------------------------ op lists

def audit_ops() -> list[Op]:
    ops = [Op(("tables", str(t), "--format", "json"), "tables", t) for t in (1, 2, 3, 4)]
    ops += [Op(("verify", f, *AUDIT_BOUNDS, "--format", "json"), "verify", f)
            for f in ("F1", "F2", "F3", "F4")]
    return ops


def reference_quantiles(kind: str) -> list[int]:
    """QUANTILE_POINTS + 1 quantiles of the cost key, from a fixed-seed sample;
    `tables.py` stores the result so runs need not recompute it."""
    rng = random.Random(f"{kind}/{REFERENCE_SEED}")
    keys = sorted(DRAW[kind](rng).key for _ in range(REFERENCE_SIZE))
    step = REFERENCE_SIZE // QUANTILE_POINTS
    return keys[::step] + [keys[-1]]


def _quantile(table: list[int], q: float) -> float:
    x = q * QUANTILE_POINTS
    i = min(int(x), QUANTILE_POINTS - 1)
    return table[i] + (x - i) * (table[i + 1] - table[i])


class Pool:
    """Items of one kind drawn for a run, sorted by key."""

    def __init__(self, kind: str, rng: random.Random, table: list[int]):
        self.items = sorted((DRAW[kind](rng) for _ in range(POOL_SIZE)), key=lambda it: it.key)
        self.keys = [it.key for it in self.items]
        self.table = table

    def at(self, q: float) -> Item:
        """The item whose key is nearest the q quantile of the reference keys."""
        key = _quantile(self.table, q)
        i = bisect.bisect_left(self.keys, key)
        if i == len(self.keys) or (i > 0 and key - self.keys[i - 1] <= self.keys[i] - key):
            i -= 1
        return self.items[i]


class Workload:
    """The op lists of one workload and seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.list_items = len(audit_ops()) if name == "audit" else LIST_ITEMS[name]
        if name == "audit":
            return
        from tables import QUANTILES  # not at the top: this file regenerates tables.py
        rng = random.Random(f"{name}/{seed}")
        self.pools = [Pool(kind, rng, QUANTILES[kind]) for kind in KINDS[name]]
        self.shift = rng.random()

    def op_lists(self) -> list[list[Op]]:
        """The op lists of one run."""
        if self.name == "audit":
            return [audit_ops()]
        lists, n = LISTS[self.name], LIST_ITEMS[self.name]
        # Offsets within a stratum: evenly spaced, and in antithetic pairs
        # u, 1 - u, so that the run's cost profile hardly depends on the shift.
        half = [(k + self.shift) / lists for k in range(lists // 2)]
        return [[op for j in range(n) for pool in self.pools for op in pool.at((j + u) / n).ops]
                for u in half + [1 - u for u in half]]


if __name__ == "__main__":
    # Regenerate tables.py: python3 bench/workloads.py > bench/tables.py
    print('"""Reference quantiles of each item kind\'s cost key; generated by\n'
          '`python3 bench/workloads.py > bench/tables.py`."""\n')
    print("QUANTILES = {")
    for kind in DRAW:
        body = textwrap.fill(", ".join(map(str, reference_quantiles(kind))), 76,
                             initial_indent=" " * 8, subsequent_indent=" " * 8)
        print(f"    {kind!r}: [\n{body},\n    ],")
    print("}")
