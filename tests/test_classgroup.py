import hashlib
import signal
from contextlib import contextmanager
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellkit import (ClassData, class_number, discriminant_of, factorize,
                     is_fundamental_discriminant, isqrt, narrow_class_number,
                     squarefree_core, unit_norm)
from pellkit.classgroup import (_class_number, _class_walks, _reduced_triples,
                                _residue_sieve, _seed_bound)
from oracle_utils import (analytic_class_number, reference_narrow_class_number,
                          reference_reduced_forms, reference_rho_cycles)


def test_discriminant_of_examples():
    assert discriminant_of(5) == 5
    assert discriminant_of(399) == 1596
    assert discriminant_of(443) == 1772
    with pytest.raises(ValueError):
        discriminant_of(12)
    with pytest.raises(ValueError):
        discriminant_of(1)


def test_reduced_forms_examples():
    assert list(_reduced_triples(8, 2, *_residue_sieve(8, 2))) == [(1, 2, 1)]  # (1, 2, -1), (-1, 2, 1)
    assert narrow_class_number(8) == 1
    assert narrow_class_number(40) == 2
    assert narrow_class_number(1596) == 16


def test_narrow_class_number_rejects_non_fundamental():
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(32)
    assert not is_fundamental_discriminant(45)
    assert not is_fundamental_discriminant(20)
    for bad in (32, 45, 20, 48):
        with pytest.raises(ValueError):
            narrow_class_number(bad)


def _valid_discriminants(limit):
    return [D for D in range(5, limit + 1)
            if D % 4 in (0, 1) and not isqrt(D)[1]]


def test_reduced_forms_match_trial_division_in_order():
    # every valid D <= 3000, non-fundamental ones included (p^2 | D, imprimitive
    # candidates): same forms, same order, for every a <= sqrt(D) and for the
    # seeds the cycle count enumerates, |a| <= sqrt(D)/3 for most D and
    # |a| <= sqrt(D/5) for the D that _seed_bound flags
    for D in _valid_discriminants(3000):
        s = isqrt(D)[0]
        reference = reference_reduced_forms(D)
        for amax in (s, isqrt(D // 5)[0], isqrt(D // 9)[0]):
            triples = sorted(_reduced_triples(D, s, *_residue_sieve(D, amax)),
                             key=lambda t: (t[1], t[0]))
            forms = [f for a, b, c in triples for f in ((a, b, -c), (-a, b, c))]
            assert forms == [f for f in reference if abs(f[0]) <= amax], (D, amax)


LARGE_FUNDAMENTAL_DS = [
    1000001,   # 1 (mod 4)
    2042040,   # 8m, m = 3*5*7*11*13*17
    4849845,   # 1 (mod 4), 3*5*7*11*13*17*19
    38798760,  # 8m near 4e7, seven small odd primes
    39999964,  # 4m near 4e7, m = 3 (mod 4)
    40000001,  # 1 (mod 4) near 4e7
]


@pytest.mark.parametrize("D", LARGE_FUNDAMENTAL_DS)
def test_narrow_class_number_matches_reference_cycle_count(D):
    assert is_fundamental_discriminant(D)
    assert narrow_class_number(D) == reference_narrow_class_number(D)


def test_narrow_class_number_matches_reference_for_every_small_fundamental_D():
    Ds = [D for D in range(5, 5001) if is_fundamental_discriminant(D)]
    assert len(Ds) == 1516
    for D in Ds:
        assert narrow_class_number(D) == reference_narrow_class_number(D), D


def test_narrow_class_number_matches_full_enumeration_for_every_fundamental_D():
    # the seeded count against every cycle of every reduced form, D <= 20000;
    # every cycle has even length, since reduced forms alternate in sign.
    # sigma: (a, b, c) -> (-a, b, -c) maps each cycle onto a cycle; every
    # cycle is its own mirror exactly when the unit has norm -1, and h_wide
    # is the number of sigma-orbits
    Ds = [D for D in range(5, 20001) if is_fundamental_discriminant(D)]
    assert len(Ds) == 6081
    for D in Ds:
        cycles = reference_rho_cycles(D)
        assert narrow_class_number(D) == len(cycles), D
        assert all(len(cycle) % 2 == 0 for cycle in cycles), D
        cycles = [frozenset(cycle) for cycle in cycles]
        mirrors = [frozenset((-a, b, -c) for a, b, c in cycle) for cycle in cycles]
        assert set(mirrors) == set(cycles), D
        m = D if D % 4 == 1 else D // 4
        norm = unit_norm(m)
        self_mirrored = [mirror == cycle for cycle, mirror in zip(cycles, mirrors)]
        assert all(self_mirrored) if norm == -1 else not any(self_mirrored), D
        orbits = {frozenset((cycle, mirror)) for cycle, mirror in zip(cycles, mirrors)}
        assert class_number(m) == ClassData(m, D, len(cycles), len(orbits), norm), D


@contextmanager
def _arithmetic_error_within_5_s(m, match=None):
    def timeout(signum, frame):
        raise TimeoutError(f"class_number({m}) is still walking")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ArithmeticError, match=match):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("m, seed, match", [
    # b^2 + 4ac = D, but b lies below the reduction window: the walk never
    # meets the seed's key again and goes round its cycle a second time
    pytest.param(10, (1, 2, 9), "struck a key twice", id="10-below-window"),
    pytest.param(399, (1, 2, 398), "struck a key twice", id="399-below-window"),
    # reduced for D' = b^2 + 4ac != D with isqrt(D') = isqrt(D), and refused
    # before its walk; unchecked, the walk would go round a cycle of D' in
    # an odd number of steps where D takes an even number, or the reverse
    pytest.param(10, (1, 5, 5), "not of discriminant 40", id="10-D45"),
    pytest.param(82, (1, 17, 10), "not of discriminant 328", id="82-D329"),
    pytest.param(399, (1, 39, 1), "not of discriminant 1596", id="399-D1525"),
    pytest.param(443, (1, 41, 21), "not of discriminant 1772", id="443-D1765"),
    # ... or strike keys that are no seeds of D, so the count is overrun
    pytest.param(10, (1, 5, 4), "not of discriminant 40", id="10-D41"),
    pytest.param(443, (1, 41, 23), "not of discriminant 1772", id="443-D1773"),
])
def test_a_bad_seed_raises_instead_of_looping(m, seed, match, monkeypatch):
    # each of these ends in one of the ArithmeticErrors of _class_number
    # instead of a loop or a wrong count
    import pellkit.classgroup
    real = pellkit.classgroup._reduced_triples
    D, (a, b, c) = discriminant_of(m), seed
    s = isqrt(D)[0]
    assert b < s + 1 - 2 * a or (b * b + 4 * a * c != D
                                 and isqrt(b * b + 4 * a * c)[0] == s), seed

    def seeded(*args):
        yield seed
        yield from real(*args)
    monkeypatch.setattr(pellkit.classgroup, "_reduced_triples", seeded)
    with _arithmetic_error_within_5_s(m, match):
        class_number(m)


@pytest.mark.parametrize("m", [10, 399, 79, 229])
def test_walks_that_disagree_on_the_unit_norm_raise(m, monkeypatch):
    # the second walk reads the other norm off its cycle; it walks an
    # ambiguous class at m = 10 (norm -1) and 399 (norm +1), and a class
    # and its inverse at 79 (norm +1) and 229 (norm -1)
    import pellkit.classgroup
    real = pellkit.classgroup._walk
    walks = []

    def flipped(*args):
        walk_norm, own_inverse = real(*args)
        walks.append(own_inverse)
        return walk_norm if len(walks) == 1 else -walk_norm, own_inverse
    monkeypatch.setattr(pellkit.classgroup, "_walk", flipped)
    with _arithmetic_error_within_5_s(m, "disagree on the unit norm"):
        _class_number(m)
    assert len(walks) == 2
    assert walks[1] == (m in (10, 399))


def test_a_row_that_doubles_eight_times_keeps_its_triples():
    # D = 2^20 * 15015 is no fundamental discriminant: x^2 = D (mod 2^18)
    # has 2^9 roots, so the row a = 2^16 doubles eight times in the sieve;
    # it saturates instead of wrapping round to 0, which would drop the row
    D, a = 4 ** 10 * 15015, 2 ** 16
    s = isqrt(D)[0]
    spf, seeds, roots = _residue_sieve(D, a)
    assert (seeds[a // 2], seeds[a]) == (128, 255)
    triples = list(_reduced_triples(D, s, spf, [0] * a + [seeds[a]], roots))
    assert triples == [(a, b, (D - b * b) // (4 * a))
                       for b in range(max(1, s + 1 - 2 * a, 2 * a - s), s + 1)
                       if (D - b * b) % (4 * a) == 0
                       and gcd(a, b, (D - b * b) // (4 * a)) == 1]
    assert triples


def test_prime_power_roots_raise_on_a_non_residue():
    # _residue_sieve has decided (D/p) = 1 before the roots of p are taken;
    # a sieve that gives a non-residue p seeds gets an empty answer from
    # _sqrt_mod_prime_power at a = p, which raises
    for D, p in ((1596, 31), (1596, 41), (4849845, 23), (4849845, 53)):
        assert pow(D, (p - 1) // 2, p) == p - 1, (D, p)
        spf, seeds, roots = _residue_sieve(D, p)
        assert seeds[p] == 0, (D, p)
        seeds[p] = 2
        with pytest.raises(ArithmeticError, match=f"not a square modulo {p}"):
            list(_reduced_triples(D, isqrt(D)[0], spf, seeds, roots))


def _assert_seed_count(D):
    s, A = isqrt(D)[0], _seed_bound(D)
    assert 2 * A <= s, D
    spf, seeds, roots = _residue_sieve(D, A)
    assert sum(seeds) == len(list(_reduced_triples(D, s, spf, seeds, roots))), D


def test_seed_count_is_the_number_of_seeds_for_every_fundamental_D():
    # for a <= s/2 every root class modulo 2a meets the window once, and for
    # a fundamental D every form is primitive
    Ds = [D for D in range(5, 20001) if is_fundamental_discriminant(D)]
    assert len(Ds) == 6081
    for D in Ds:
        _assert_seed_count(D)


@pytest.mark.parametrize("D", LARGE_FUNDAMENTAL_DS)
def test_seed_count_is_the_number_of_seeds_for_large_D(D):
    _assert_seed_count(D)


@pytest.mark.parametrize("m", [2, 10, 399, 443])
def test_a_seed_count_one_too_high_raises(m, monkeypatch):
    # row 1, which has the one seed (1, b, c), is forged one seed high, so
    # every seed is struck and the enumeration runs out with one left over
    import pellkit.classgroup
    real = pellkit.classgroup._residue_sieve

    def forged(D, amax):
        spf, seeds, roots = real(D, amax)
        assert seeds[1] == 1, D
        seeds[1] = 2
        return spf, seeds, roots
    monkeypatch.setattr(pellkit.classgroup, "_residue_sieve", forged)
    with _arithmetic_error_within_5_s(m, "not the"):
        class_number(m)


@pytest.mark.parametrize("m, A, last", [(999983, 666, 23), (4849845, 734, 355)])
def test_the_seed_enumeration_stops_at_the_last_new_orbit(m, A, last, monkeypatch):
    # every sigma-orbit is walked from its least seed, so the enumeration
    # ends at the largest of those, whatever the order of b within an a
    import pellkit.classgroup
    real = pellkit.classgroup._reduced_triples
    reached = []

    def recording(*args):
        for triple in real(*args):
            reached.append(triple[0])
            yield triple
    monkeypatch.setattr(pellkit.classgroup, "_reduced_triples", recording)
    assert _seed_bound(discriminant_of(m)) == A
    class_number(m)
    assert reached[-1] == last


@pytest.mark.parametrize("m, last", [(999983, 23), (4849845, 355)])
def test_odd_prime_roots_are_taken_once_for_a_reached_seed(m, last, monkeypatch):
    # the roots modulo p^e of an odd p not dividing D are asked for the
    # first time a seed a with p^e exactly dividing it is reached, and
    # never for a power that no reached a has
    import pellkit.classgroup
    real_triples = pellkit.classgroup._reduced_triples
    real_roots = pellkit.classgroup._sqrt_mod_prime_power
    D = discriminant_of(m)
    reached, asked = [], []

    def recording(*args):
        for triple in real_triples(*args):
            reached.append(triple[0])
            yield triple

    def spying(a, p, e):
        if p > 2 and D % p:
            asked.append((p, e))
        return real_roots(a, p, e)
    monkeypatch.setattr(pellkit.classgroup, "_reduced_triples", recording)
    monkeypatch.setattr(pellkit.classgroup, "_sqrt_mod_prime_power", spying)
    class_number(m)
    assert reached[-1] == last
    needed = set()
    for a in set(reached):
        for p in range(3, a + 1, 2):
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            if e and D % p:
                needed.add((p, e))
    assert len(asked) == len(set(asked)) and set(asked) == needed


def _record_triples(monkeypatch):
    """The list that each triple _class_number's enumeration yields is
    appended to, in order."""
    import pellkit.classgroup
    real = pellkit.classgroup._reduced_triples
    triples = []

    def recording(*args):
        for triple in real(*args):
            triples.append(triple)
            yield triple
    monkeypatch.setattr(pellkit.classgroup, "_reduced_triples", recording)
    return triples


# 423799 = (21 * 31)^2 - 2 is the F4 member p = 31, n = 10 of
# verify F4 --pmax 50 --nmax 10
@pytest.mark.parametrize("m", [999983, 4849845, 423799])
def test_rows_whose_seeds_are_all_struck_are_skipped(m, monkeypatch):
    # after the rows below a, every sigma-orbit with a seed below a has been
    # walked, so a is reached exactly when it is the least seed row of some
    # orbit of the reference cycles; the roots modulo p^e of an odd p not
    # dividing D are taken just before the first reached row that p^e
    # exactly divides is yielded, and for no other row
    import pellkit.classgroup
    real_roots = pellkit.classgroup._sqrt_mod_prime_power
    D = discriminant_of(m)
    triples, asked = _record_triples(monkeypatch), []

    def spying(a, p, e):
        if p > 2 and D % p:
            asked.append((p, e, len(triples)))
        return real_roots(a, p, e)
    monkeypatch.setattr(pellkit.classgroup, "_sqrt_mod_prime_power", spying)
    _class_number(m)
    cycles = [frozenset(cycle) for cycle in reference_rho_cycles(D)]
    mirrors = [frozenset((-a, b, -c) for a, b, c in cycle) for cycle in cycles]
    least = {min(abs(a) for a, _, _ in cycle | mirror)
             for cycle, mirror in zip(cycles, mirrors)}
    rows = [a for a, _, _ in triples]
    assert rows == sorted(rows) and set(rows) == least
    first = {}
    for i, a in enumerate(rows):
        for p in range(3, a + 1, 2):
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            if e and D % p:
                first.setdefault((p, e), i)
    assert sorted(asked) == sorted((p, e, i) for (p, e), i in first.items())


@pytest.mark.parametrize("m", [999983, 4849845])
def test_a_forged_row_count_raises(m, monkeypatch):
    # seeds[a] = rho(a) seeds are owed at a, a power of 2 for a fundamental
    # D.  A row doubled, or halved where it has more than one seed, at a
    # reached row makes both that row's count and the seed count wrong, and
    # raises instead of giving a class number.  A row doubled and another
    # with twice its seeds halved leave the seed count right, and the rows'
    # counts are then not all 0 once the seeds are used up
    import pellkit.classgroup
    D = discriminant_of(m)
    spf, seeds, roots = _residue_sieve(D, _seed_bound(D))
    triples = _record_triples(monkeypatch)
    _class_number(m)
    reached = sorted({a for a, _, _ in triples})

    def forged(*rows):
        forgery = list(seeds)
        for a, n in rows:
            forgery[a] = n
        monkeypatch.setattr(pellkit.classgroup, "_residue_sieve",
                            lambda D, amax: (spf, forgery, dict(roots)))
    for a in reached:
        for n in (2 * seeds[a], seeds[a] // 2) if seeds[a] > 1 else (2 * seeds[a],):
            forged((a, n))
            with _arithmetic_error_within_5_s(m):
                _class_number(m)
    pairs = [(next(low for low in reached if 2 * seeds[low] == seeds[a]), a)
             for a in reached if seeds[a] > 1]
    assert pairs
    for low, a in pairs:
        forged((low, 2 * seeds[low]), (a, seeds[a] // 2))
        with _arithmetic_error_within_5_s(m, "more or fewer times"):
            _class_number(m)


def test_a_zeroed_row_of_one_seed_raises(monkeypatch):
    # row 1 has the one seed of the principal class, an ambiguous class;
    # forged rootless, it leaves that orbit unwalked and both the seed count
    # and the row counts right, and h_narrow would read 126.  The 31
    # ambiguous classes left are no power of 2, and raise
    import pellkit.classgroup
    real = pellkit.classgroup._residue_sieve

    def forged(D, amax):
        spf, seeds, roots = real(D, amax)
        assert seeds[1] == 1, D
        seeds[1] = 0
        return spf, seeds, roots
    assert _class_walks(4849845) == (ClassData(4849845, 4849845, 128, 64, 1), 32)
    monkeypatch.setattr(pellkit.classgroup, "_residue_sieve", forged)
    with _arithmetic_error_within_5_s(4849845, "31 of the 63 wide classes are "
                                               "ambiguous"):
        _class_number(4849845)


def test_class_data_matches_the_digest_of_every_m_below_30000():
    # D up to 120000, beyond the full enumerations above; the digest was
    # taken from the walk over every seed with a <= _seed_bound(D)
    digest = hashlib.sha256()
    for m in range(2, 30000):
        if squarefree_core(m)[1]:
            c = class_number(m)
            digest.update(f"{m} {c.h_narrow} {c.h_wide} {c.unit_norm}\n".encode())
    assert digest.hexdigest() == (
        "066414f710445790af00efabdd1cf8f018756945b3cb1a4ea165cb8dc08af240")


def test_unit_norm_of_the_walks_matches_the_period_parity():
    # the parity of the walks against pell.unit_norm, which expands the
    # period of sqrt(m) and shares no code with them
    ms = [D if D % 4 == 1 else D // 4 for D in LARGE_FUNDAMENTAL_DS]
    ms += [m for m in range(2, 30000) if squarefree_core(m)[1]]
    for m in ms:
        assert _class_number(m).unit_norm == unit_norm(m), m


def test_class_number_expands_no_period(monkeypatch):
    import pellkit.cfrac
    import pellkit.pell
    calls = []
    for module in (pellkit.cfrac, pellkit.pell):
        monkeypatch.setattr(module, "_pqa_period",
                            lambda *args: calls.append(args))
    for m in (2, 5, 10, 399, 443, 4849845):
        _class_number(m)
    assert calls == []


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(D=st.integers(5, 10**6).filter(is_fundamental_discriminant))
def test_every_cycle_holds_a_form_with_small_leading_coefficient(D):
    # Markov: a form of discriminant D that primitively represents no
    # 0 < |v| <= sqrt(D)/3 is a multiple of a Markov form, so D + 4 or
    # 4*D + 4 is nine times a square, and _seed_bound flags D; every form
    # represents some 0 < |v| <= sqrt(D/5) (Korkine-Zolotarev).  As
    # |v| < sqrt(D)/2, by Lagrange v is then the leading coefficient of a
    # reduced form in the same cycle
    A = _seed_bound(D)
    assert A in (isqrt(D // 9)[0], isqrt(D // 5)[0]), D
    for cycle in reference_rho_cycles(D):
        assert any(abs(a) <= A for a, _, _ in cycle), (D, cycle)


def test_only_markov_discriminants_need_the_wide_seed_bound():
    # every fundamental D <= 20000 whose cycles do not all hold a form with
    # |a| <= sqrt(D)/3 is a Markov discriminant 9*mu^2 - 4 or (9*mu^2 - 4)/4,
    # and _seed_bound gives it the bound sqrt(D/5)
    Ds = [D for D in range(5, 20001) if is_fundamental_discriminant(D)]
    wide = [D for D in Ds
            if any(min(abs(a) for a, _, _ in cycle) > isqrt(D // 9)[0]
                   for cycle in reference_rho_cycles(D))]
    assert wide == [5, 8, 221, 1517, 7565]
    for D in wide:
        assert _seed_bound(D) == isqrt(D // 5)[0] > isqrt(D // 9)[0], D


@pytest.mark.parametrize("D", [71285, 84680, 257045, 488597, 837224])
def test_markov_discriminants_keep_the_wide_seed_bound(D):
    # D = 9*mu^2 - 4 for mu = 89, 169, 233 and (9*mu^2 - 4)/4 for
    # mu = 194, 610: the cycle of the primitive Markov form and its mirror
    # hold no form with |a| <= sqrt(D)/3, and the count still finds both
    assert is_fundamental_discriminant(D)
    cycles = reference_rho_cycles(D)
    assert narrow_class_number(D) == len(cycles)
    high = [cycle for cycle in cycles
            if min(abs(a) for a, _, _ in cycle) > isqrt(D // 9)[0]]
    assert len(high) == 2, D


def test_class_number_matches_analytic_formula():
    # m = 1, 2, 3 (mod 4) up to about 1e5, with h from 1 to 21
    for m in (23002, 24999, 30011, 65537, 99989, 99991):
        h = analytic_class_number(m)
        assert abs(h - round(h)) < 1e-4, m
        assert class_number(m).h_wide == round(h), m


def test_class_number_examples():
    assert class_number(399).h_wide == 8
    assert class_number(443).h_wide == 3
    assert class_number(1087).h_wide == 7
    for m in (2, 3, 5, 6, 7, 13):
        assert class_number(m).h_wide == 1, m
    assert class_number(10).h_wide == 2
    assert class_number(15).h_wide == 2
    assert class_number(79).h_wide == 3
    assert class_number(82).h_wide == 4
    with pytest.raises(ValueError):
        class_number(12)
    with pytest.raises(ValueError):
        class_number(1)


def test_class_number_factorizes_m_once(monkeypatch):
    import pellkit.intkit
    real = pellkit.intkit.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(pellkit.intkit, "factorize", counting)
    for m in (399, 443, 4849845):
        calls.clear()
        class_number(m)
        assert calls == [m]


def test_class_number_enumerates_only_the_small_seeds(monkeypatch):
    # one sieve per class number, over the seeds a <= _seed_bound(D)
    import pellkit.classgroup
    real = pellkit.classgroup._residue_sieve
    asked = []

    def recording(D, amax):
        asked.append((D, amax))
        return real(D, amax)
    monkeypatch.setattr(pellkit.classgroup, "_residue_sieve", recording)
    # sqrt(D)/3, except at the Markov discriminants D = 8 and 221
    for m, n in ((399, 9), (443, 9), (4849845, 9), (2, 5), (221, 5)):
        D = discriminant_of(m)
        asked.clear()
        class_number(m)
        assert asked == [(D, _seed_bound(D))] == [(D, isqrt(D // n)[0])], m


def test_class_walks_do_not_depend_on_the_prime_table_size(monkeypatch):
    # the walks read the least prime factors and the odd primes of a table
    # that other class numbers grow; a table grown first by m = 10^9 + 7
    # (seed bound 21081) gives every small m the same class data
    import pellkit.intkit
    ms = [m for m in range(2, 3000) if squarefree_core(m)[1]]
    fresh = pellkit.intkit._least_prime_factors(pellkit.intkit._TRIAL_LIMIT)
    monkeypatch.setattr(pellkit.intkit, "_PRIME_TABLE", fresh)
    small = [_class_walks(m) for m in ms]
    assert pellkit.intkit._PRIME_TABLE is fresh
    _class_walks(10**9 + 7)
    assert len(pellkit.intkit._PRIME_TABLE[0]) > _seed_bound(4 * (10**9 + 7)) == 21081
    assert [_class_walks(m) for m in ms] == small


def test_class_data_invariant():
    with pytest.raises(ValueError):
        ClassData(3, 12, 2, 2, 1)  # +1 norm needs h_narrow == 2*h_wide
    with pytest.raises(ValueError):
        ClassData(2, 8, 1, 1, 3)


def test_narrow_wide_relation_small_sweep():
    for m in range(2, 200):
        if not squarefree_core(m)[1]:
            continue
        data = class_number(m)
        assert data.h_narrow == reference_narrow_class_number(discriminant_of(m))
        factor = 2 if data.unit_norm == 1 else 1
        assert data.h_narrow == factor * data.h_wide


def test_two_to_the_genus_rank_divides_every_narrow_class_number():
    # Gauss's genus theory: the narrow class group of D has 2-rank t - 1, t
    # the number of primes dividing D, so 2^(t-1) divides the walk count.  A
    # sieve row wrongly zeroed leaves an orbit unwalked and breaks this.
    checked = 0
    for m in range(2, 20000):
        if not squarefree_core(m)[1]:
            continue
        t = len(factorize(discriminant_of(m)).factors)
        assert _class_number(m).h_narrow % 2 ** (t - 1) == 0, m
        checked += 1
    assert checked == 12159


def test_the_ambiguous_classes_are_two_to_the_wide_genus_rank():
    # the wide class group has 2-rank r = t - 1, or t - 2 when a prime
    # = 3 (mod 4) divides D, so its 2^r classes of order at most 2 are the
    # walks that are their own reversal, and 2^r divides h_wide
    checked = 0
    for m in range(2, 20000):
        if not squarefree_core(m)[1]:
            continue
        primes = [p for p, _ in factorize(discriminant_of(m)).factors]
        r = len(primes) - (2 if any(p % 4 == 3 for p in primes) else 1)
        data, ambiguous = _class_walks(m)
        assert ambiguous == 2 ** r and data.h_wide % ambiguous == 0, m
        checked += 1
    assert checked == 12159
