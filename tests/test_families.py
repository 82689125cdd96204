import pytest

from pellkit import (EXCEPTIONAL_SOLUTIONS, FAMILY_IDS, check_yamaguchi_hypothesis,
                     class_conclusion, family_spec, gen_members, reproduce_table,
                     verify_member)
from pellkit.published_tables import TABLES

from oracle_utils import euler_phi


def _member(family, p, n, **kwargs):
    matches = [m for m in gen_members(family, p, max(n, 1), **kwargs)
               if m.p == p and m.n == n]
    assert len(matches) == 1
    return matches[0]


def test_gen_members_examples():
    members = gen_members("F1", 5, 2, require_congruence=True)
    target = [m for m in members if (m.p, m.n) == (5, 2)]
    assert len(target) == 1
    mem = target[0]
    assert mem.m == 399 and mem.d == 20
    assert mem.p_is_prime and mem.m_is_squarefree and mem.congruence_ok and mem.phi_gt_4

    members = gen_members("F3", 17, 2, require_congruence=True)
    starred = [m for m in members if (m.p, m.n) == (17, 2)]
    assert starred[0].m == 7227 and not starred[0].m_is_squarefree

    members = gen_members("F2", 3, 3, require_congruence=True)
    assert [(m.p, m.n, m.m) for m in members if m.p == 3] == [(3, 3, 327)]


def test_gen_members_family_constraints():
    assert all(m.n % 3 == 0 for m in gen_members("F2", 20, 12))
    assert all(m.p != 3 for m in gen_members("F4", 20, 3, require_congruence=True))
    assert all(m.p != 2 for m in gen_members("F3", 20, 3))
    assert all(m.p != 2 for m in gen_members("F4", 20, 3))
    assert any(m.p == 2 for m in gen_members("F1", 20, 3))
    assert any(m.p == 2 for m in gen_members("F2", 20, 3))
    # congruence filters
    assert all(m.p % 4 == 1 for m in gen_members("F1", 50, 2, require_congruence=True))
    assert all(m.p % 8 in (1, 7) for m in gen_members("F3", 50, 2, require_congruence=True))
    assert all(m.p % 8 in (1, 3) for m in gen_members("F4", 50, 2, require_congruence=True))


def test_gen_members_n0_opt_in():
    default = gen_members("F4", 3, 1)
    assert [(m.p, m.n) for m in default] == [(3, 1)]
    with_n0 = gen_members("F4", 3, 1, allow_n0=True)
    assert [(m.p, m.n, m.d, m.m) for m in with_n0] == [(3, 0, 3, 7), (3, 1, 9, 79)]
    # n = 0 never applies to the even-d families
    assert all(m.n >= 1 for m in gen_members("F1", 10, 2, allow_n0=True))


def test_gen_members_is_sorted_and_validates():
    members = gen_members("F1", 30, 4)
    assert members == sorted(members, key=lambda m: (m.p, m.n))
    with pytest.raises(ValueError):
        gen_members("F9", 10, 2)
    with pytest.raises(ValueError):
        gen_members("F1", 0, 2)


def test_verify_member_upheld_row():
    report = verify_member(_member("F1", 5, 2))
    assert not report.cert_plus.has_solutions
    assert not report.cert_minus.has_solutions
    assert report.theorem_upheld and not report.is_exception
    assert report.h_wide == 8 and report.class_conclusion is True


def test_verify_member_exception_row():
    report = verify_member(_member("F4", 3, 0, allow_n0=True))
    assert report.is_exception
    assert not report.cert_plus.has_solutions
    assert report.cert_minus.solutions == EXCEPTIONAL_SOLUTIONS
    assert report.theorem_upheld
    assert report.h_wide == 1 and report.class_conclusion is False


def test_verify_member_f3_row():
    report = verify_member(_member("F3", 7, 1))
    assert report.theorem_upheld
    assert report.h_wide == 3 and report.class_conclusion is True


def test_verify_member_reports_the_f2_p3_counterexample():
    # structural fact: for m = d^2 + 3, (d, 1) solves x^2 - m y^2 = -3, so
    # the non-solvability claim fails whenever p = 3
    report = verify_member(_member("F2", 3, 3))
    assert report.cert_minus.solutions == ((18, 1),)
    assert not report.theorem_upheld


def test_verify_member_skips_class_fields_off_squarefree():
    report = verify_member(_member("F3", 17, 2))  # m = 7227 = 3^2 * 803
    assert report.theorem_upheld
    assert report.h_wide is None and report.class_conclusion is None


def test_verify_factorizes_each_member_once(monkeypatch):
    # gen_members factorizes m for the square-free flag; verify_member's
    # class number reuses that flag instead of factorizing m again
    import pellkit.intkit
    real = pellkit.intkit.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(pellkit.intkit, "factorize", counting)
    members = gen_members("F3", 50, 10)
    reports = [verify_member(member) for member in members]
    assert len(members) == 140
    assert sum(r.h_wide is not None for r in reports) == 109
    assert calls == [member.m for member in members]


def test_check_yamaguchi_hypothesis():
    assert check_yamaguchi_hypothesis(399)
    assert not check_yamaguchi_hypothesis(5)
    assert check_yamaguchi_hypothesis(7)
    with pytest.raises(ValueError):
        check_yamaguchi_hypothesis(0)


def test_class_conclusion_examples():
    assert class_conclusion(399) == (True, True)
    assert class_conclusion(2) == (False, False)
    assert class_conclusion(1087) == (True, True)
    assert class_conclusion(5) == (False, False)
    assert class_conclusion(10) == (True, False)  # h = 2 but phi(10) = 4
    with pytest.raises(ValueError):
        class_conclusion(7227)


def test_reproduce_table_row_counts():
    assert [len(TABLES[t]) for t in (1, 2, 3, 4)] == [24, 30, 32, 32]
    for t in (1, 2, 3, 4):
        assert len(reproduce_table(t)) == len(TABLES[t])
    with pytest.raises(ValueError):
        reproduce_table(5)


def test_reproduce_table_matching_row():
    rows = reproduce_table(1)
    row = next(r for r in rows if (r.p, r.n) == (5, 2))
    assert row.m_printed == row.m_recomputed == 399
    assert row.match_m and row.match_h
    assert row.h_computed == row.h_printed == 8
    assert row.h_printed_m is None


def test_reproduce_table_starred_row_uses_core():
    rows = reproduce_table(3)
    row = next(r for r in rows if (r.p, r.n) == (17, 2))
    assert row.starred and row.match_m and not row.m_is_squarefree
    assert row.core == 803
    assert row.h_computed == 2 and row.match_h


def test_reproduce_table_flags_suspected_typos():
    expected = {1: [(41, 4)], 2: [(11, 6), (19, 3)], 3: [(31, 1)], 4: [(59, 5)]}
    for t, keys in expected.items():
        rows = reproduce_table(t)
        flagged = [(r.p, r.n) for r in rows if not r.match_m]
        assert flagged == keys, t
        for r in rows:
            if not r.match_m:
                assert not r.match_h  # never silently treated as a match
                assert r.h_printed_m is not None  # both candidates reported


def test_reproduce_table_mismatch_row_reports_both_candidates():
    rows = reproduce_table(2)
    row = next(r for r in rows if (r.p, r.n) == (19, 3))
    assert row.m_printed == 1299 and row.m_recomputed == 12999
    assert row.h_computed == 16  # printed h matches the recomputed m
    assert row.h_printed_m == 8  # h of the printed (typo) value


def test_family_spec_descriptions():
    for fid in FAMILY_IDS:
        spec = family_spec(fid)
        assert spec.id == fid and spec.congruence_desc


def test_phi_flag_matches_euler_phi():
    for fam in FAMILY_IDS:
        for mem in gen_members(fam, 13, 3, allow_n0=True):
            assert mem.phi_gt_4 == (euler_phi(mem.m) > 4), mem
    for n in range(1, 500):
        assert check_yamaguchi_hypothesis(n) == (euler_phi(n) > 4), n
