"""The four m-families, their solvability verification, and the audit of the
published class-number tables.

Families (p prime, n >= 1, d as below):

  F1: m = (2np)^2 - 1,           d = 2np
  F2: m = (2np)^2 + 3, 3 | n,    d = 2np
  F3: m = ((2n+1)p)^2 + 2,       d = (2n+1)p, odd p
  F4: m = ((2n+1)p)^2 - 2,       d = (2n+1)p, odd p

F3/F4 exclude p = 2 outright: with even d, (d, 1) trivially solves
x^2 - m y^2 = -+2, so the claimed non-solvability pattern only makes sense
for odd d.  Note the analogous structural fact for F2 at p = 3: (d, 1)
always solves x^2 - (d^2+3) y^2 = -3, so the -p claim fails there; the
verifier reports those members as counterexample rows rather than hiding
them.

n = 0 is admitted only through an explicit opt-in flag (and only for F3/F4,
where d = p stays meaningful): it exists solely to reach the d = 3
exceptional member m = 7, whose -3 equation has exactly the solutions
(2, 1) and (5, 2).
"""

from __future__ import annotations

from ._records import record
from .classgroup import _class_number, class_number
from .intkit import is_prime, isqrt, squarefree_core
from .published_tables import TABLE_FAMILY, TABLES
from .pell import (D2MINUS1, D2MINUS2, D2PLUS2, D2PLUS3, _solve_by_convergents,
                   solve_pm_N)

FAMILY_IDS = ("F1", "F2", "F3", "F4")

EXCEPTIONAL_SOLUTIONS = ((2, 1), (5, 2))  # x^2 - 7 y^2 = -3, the F4 d=3 member

_PHI_AT_MOST_4 = frozenset({1, 2, 3, 4, 5, 6, 8, 10, 12})  # all n >= 1 with phi(n) <= 4


class FamilySpec(record("FamilySpec",
                        "id rd_family r odd_d n_multiple_of_3 congruence_desc")):
    """Family `id`: m = d^2 + r with d = (2n+1)p when odd_d (F3/F4), else
    d = 2np (F1/F2); rd_family names its unit family in pell."""

    __slots__ = ()

    def d_of(self, p: int, n: int) -> int:
        return (2 * n + 1) * p if self.odd_d else 2 * n * p

    def m_of(self, p: int, n: int) -> int:
        d = self.d_of(p, n)
        return d * d + self.r

    def congruence_ok(self, p: int) -> bool:
        if self.id == "F1":
            return p % 4 == 1
        if self.id == "F2":
            return p % 2 == 1
        if self.id == "F3":
            return p % 8 in (1, 7)
        return p % 8 in (1, 3) and p != 3  # F4


_SPECS = {
    "F1": FamilySpec("F1", D2MINUS1, -1, False, False, "p = 1 (mod 4)"),
    "F2": FamilySpec("F2", D2PLUS3, 3, False, True, "p = +-1 (mod 4)"),
    "F3": FamilySpec("F3", D2PLUS2, 2, True, False, "p = +-1 (mod 8)"),
    "F4": FamilySpec("F4", D2MINUS2, -2, True, False, "p = 1, 3 (mod 8), p != 3"),
}


def family_spec(family: str) -> FamilySpec:
    try:
        return _SPECS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r} (expected one of {FAMILY_IDS})")


class FamilyMember(record("FamilyMember", "family p n d m p_is_prime m_is_squarefree "
                                          "congruence_ok phi_gt_4")):
    __slots__ = ()


class VerificationReport(record("VerificationReport", "member cert_plus cert_minus "
                                "theorem_upheld h_wide class_conclusion")):
    """The two PellCertificates of a FamilyMember and the verdict; h_wide
    and class_conclusion are None when m is not square-free."""

    __slots__ = ()

    @property
    def is_exception(self) -> bool:
        return _is_exception(self.member)


def _is_exception(member: FamilyMember) -> bool:
    return member.family == "F4" and member.d == 3


def gen_members(family: str, p_max: int, n_max: int,
                require_congruence: bool = False,
                allow_n0: bool = False) -> list[FamilyMember]:
    """All family members with prime p <= p_max and 1 <= n <= n_max (n = 0
    admitted for F3/F4 only via allow_n0), every flag computed, none assumed.
    Members whose m is not square-free are included but flagged."""
    if p_max < 1 or n_max < 0:
        raise ValueError("gen_members: p_max must be >= 1 and n_max >= 0")
    spec = family_spec(family)
    n_step = 3 if spec.n_multiple_of_3 else 1
    n_start = 0 if allow_n0 and spec.odd_d else n_step
    members = []
    # every d is >= 3, so m = d^2 + r (|r| <= 3) is >= 7 and lies strictly
    # between (d-1)^2 and (d+1)^2: never a square
    for p in range(3 if spec.odd_d else 2, p_max + 1):
        if not is_prime(p):
            continue
        congruence_ok = spec.congruence_ok(p)
        if require_congruence and not congruence_ok:
            continue
        for n in range(n_start, n_max + 1, n_step):
            d = spec.d_of(p, n)
            m = d * d + spec.r
            members.append(FamilyMember(
                family=family, p=p, n=n, d=d, m=m,
                p_is_prime=True,
                m_is_squarefree=squarefree_core(m)[1],
                congruence_ok=congruence_ok,
                phi_gt_4=check_yamaguchi_hypothesis(m),
            ))
    return members


def verify_member(member: FamilyMember,
                  class_numbers: dict[int, int] | None = None) -> VerificationReport:
    """Decide x^2 - m y^2 = +p and = -p for the member and evaluate whether
    the family's non-solvability claim holds (the F4 d = 3 member must show
    exactly the two exceptional -3 solutions).  For square-free m the class
    number is computed as well; otherwise the class fields stay None.
    class_numbers, if given, maps each m already verified to its h_wide and
    gains this member's, so that a caller verifying many members, whose m
    repeat across (p, n), computes each class number once."""
    m, p = member.m, member.p
    if isqrt(m)[1]:
        raise ValueError("verify_member: m is a perfect square")
    if member.n >= 1:
        assert p * p < m, "p < sqrt(m) must hold for every n >= 1 member"
    if p * p < m:  # one expansion of sqrt(m) decides both signs
        cert_plus, cert_minus = _solve_by_convergents(m, p, -p)
    else:
        cert_plus, cert_minus = solve_pm_N(m, p), solve_pm_N(m, -p)
    minus = EXCEPTIONAL_SOLUTIONS if _is_exception(member) else ()
    upheld = not cert_plus.has_solutions and cert_minus.solutions == minus
    h_wide = None
    conclusion = None
    if member.m_is_squarefree:
        # gen_members factorized m for the flag; do not factorize it again
        known = {} if class_numbers is None else class_numbers
        if m not in known:
            known[m] = _class_number(m).h_wide
        h_wide = known[m]
        conclusion = h_wide > 1
    return VerificationReport(member, cert_plus, cert_minus, upheld, h_wide, conclusion)


def check_yamaguchi_hypothesis(m: int) -> bool:
    """phi(m) > 4, the gate under which h(m) divides the class number of the
    degree-phi(4m)/2 real field above it.  Decided by lookup: phi(m) <= 4
    exactly for the nine m in _PHI_AT_MOST_4, so m is never factorized."""
    if m < 1:
        raise ValueError("check_yamaguchi_hypothesis: m must be positive")
    return m not in _PHI_AT_MOST_4


def class_conclusion(m: int) -> tuple[bool, bool]:
    """(h(m) > 1, implied non-triviality upstairs).  The implication is only
    asserted under the phi(m) > 4 hypothesis; nothing larger is computed.
    Raises class_number's ValueError unless m is square-free and >= 2."""
    h_gt_1 = class_number(m).h_wide > 1
    return h_gt_1, h_gt_1 and check_yamaguchi_hypothesis(m)


class TableRow(record("TableRow", "table p n m_printed m_recomputed match_m h_printed "
                    "h_computed h_printed_m core m_is_squarefree starred match_h")):
    """One audited row of a published table.

    h_computed always belongs to the recomputed m (through its square-free
    core); when the printed m disagrees with the formula the row is a
    suspected transcription error, match_h is withheld, and h_printed_m
    carries the class number of the printed value so both candidates can be
    compared against the printed h (None when the printed m agrees)."""

    __slots__ = ()


def _h_via_core(m: int, known: dict[int, tuple[int, int]]) -> tuple[int, int]:
    # every table m is a non-square d^2 + r, so its core is square-free and
    # >= 2; known maps each m seen in this audit to (h_wide, core), so m is
    # factorized and its class number computed once
    if m not in known:
        core, _ = squarefree_core(m)
        known[m] = _class_number(core).h_wide, core
    return known[m]


def reproduce_table(table_id: int) -> list[TableRow]:
    """Recompute every row of a published table and flag disagreements.

    Rows are never corrected: a printed m that contradicts its own formula is
    reported with the class numbers of both candidate values.
    """
    if table_id not in TABLES:
        raise ValueError("reproduce_table: table_id must be 1..4")
    spec = family_spec(TABLE_FAMILY[table_id])
    rows = []
    known = {}  # for this call only: an m can repeat across rows
    for p, n, m_printed, h_printed, starred in TABLES[table_id]:
        m_rec = spec.m_of(p, n)
        match_m = m_rec == m_printed
        h_rec, core = _h_via_core(m_rec, known)
        h_pm = None
        if not match_m:
            h_pm, _ = _h_via_core(m_printed, known)
        rows.append(TableRow(
            table=table_id, p=p, n=n,
            m_printed=m_printed, m_recomputed=m_rec, match_m=match_m,
            h_printed=h_printed, h_computed=h_rec, h_printed_m=h_pm,
            core=core, m_is_squarefree=core == m_rec, starred=starred,
            match_h=match_m and h_rec == h_printed,
        ))
    return rows
