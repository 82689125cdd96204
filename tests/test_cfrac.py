import random
from itertools import islice

import pytest

from pellkit import cf_sqrt, gcd, isqrt
from pellkit.cfrac import _convergent_pairs, _pqa_period

from oracle_utils import SurdState, period_length, reference_pqa_period


def test_cf_sqrt_examples():
    e2 = cf_sqrt(2)
    assert (e2.a0, e2.period, e2.period_length) == (1, (2,), 1)
    e399 = cf_sqrt(399)
    assert (e399.a0, e399.period, e399.period_length) == (19, (1, 38), 2)
    e7 = cf_sqrt(7)
    assert (e7.a0, e7.period, e7.period_length) == (2, (1, 1, 1, 4), 4)
    assert cf_sqrt(13).period == (1, 1, 1, 1, 6)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 1024, -3])
def test_cf_sqrt_rejects_squares_and_small(bad):
    with pytest.raises(ValueError):
        cf_sqrt(bad)


def _pell_values(m, count):
    """(p_k, q_k, p_k^2 - m*q_k^2) for the first `count` convergents of sqrt(m)."""
    exp = cf_sqrt(m)
    return [(p, q, p * p - m * q * q)
            for p, q in islice(_convergent_pairs(exp.a0, exp.period), count)]


def test_convergents_examples():
    assert _pell_values(2, 3) == [(1, 1, -1), (3, 2, 1), (7, 5, -1)]
    assert _pell_values(399, 2) == [(19, 1, -38), (20, 1, 1)]
    assert _pell_values(7, 4)[-1] == (8, 3, 1)


def test_period_length_examples():
    assert period_length(2) == 1
    assert period_length(399) == 2
    assert period_length(13) == 5


def test_period_ends_with_twice_a0():
    for m in range(2, 500):
        if isqrt(m)[1]:
            continue
        exp = cf_sqrt(m)
        assert exp.period[-1] == 2 * exp.a0


def test_plus_one_sits_at_the_classical_index():
    # over one value-period, pell_value hits +1 exactly at l-1 (l even)
    # or 2l-1 (l odd)
    for m in range(2, 2001):
        if isqrt(m)[1]:
            continue
        ell = cf_sqrt(m).period_length
        span = ell if ell % 2 == 0 else 2 * ell
        values = [v for _, _, v in _pell_values(m, span)]
        expected = ell - 1 if ell % 2 == 0 else 2 * ell - 1
        assert [k for k, v in enumerate(values) if v == 1] == [expected], m


def test_pell_value_bound():
    for m in range(2, 1200):
        if isqrt(m)[1]:
            continue
        exp = cf_sqrt(m)
        for p, q, v in _pell_values(m, 2 * exp.period_length):
            assert abs(v) < 2 * exp.a0 + 1, (m, p, q)


def test_convergents_are_coprime_and_recur():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(2, 3000)
        if isqrt(m)[1]:
            continue
        exp = cf_sqrt(m)
        convs = list(islice(_convergent_pairs(exp.a0, exp.period), 12))
        terms = [exp.a0] + [exp.period[k % exp.period_length] for k in range(11)]
        for k in range(2, 12):
            a = terms[k]
            assert convs[k][0] == a * convs[k - 1][0] + convs[k - 2][0]
            assert convs[k][1] == a * convs[k - 1][1] + convs[k - 2][1]
        assert all(gcd(p, q) == 1 for p, q in convs)


def _state_sequence(m, count):
    state = SurdState(0, 1, m)
    _, state = state.step()
    out = []
    for _ in range(count):
        out.append((state.P, state.Q))
        _, state = state.step()
    return out


def test_the_mirrored_half_period_matches_the_reference_stepper():
    # _pqa_period stops at the centre of the palindrome and mirrors the rest:
    # at sqrt(m) for every nonsquare m < 20000, and at (1 + sqrt(m))/2 for
    # every odd one, it must equal every step of the SurdState stepper
    for m in range(2, 20000):
        if isqrt(m)[1]:
            continue
        assert _pqa_period(m) == reference_pqa_period(m), m
        if m % 2:
            assert _pqa_period(m, 1, 2) == reference_pqa_period(m, 1, 2), m


def test_period_is_minimal():
    # no rotation by a proper divisor reproduces the PQa state sequence
    for m in (2, 7, 13, 19, 31, 94, 124, 133, 211, 244, 399, 421, 1000):
        ell = period_length(m)
        states = _state_sequence(m, ell)
        for d in range(1, ell):
            if ell % d:
                continue
            assert any(states[k] != states[(k + d) % ell] for k in range(ell)), (m, d)


def test_surd_state_validation():
    with pytest.raises(ValueError):
        SurdState(0, 0, 5)
    with pytest.raises(ValueError):
        SurdState(0, 1, 4)
    with pytest.raises(ValueError):
        SurdState(1, 3, 5)  # 3 does not divide 5 - 1
    # lazily sliceable stream
    assert next(islice(_convergent_pairs(1, (2,)), 5, None)) == (99, 70)
