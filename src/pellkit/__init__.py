"""pellkit: exact arithmetic for Pell-type equations x^2 - m*y^2 = N,
continued fractions of square roots, fundamental units of real quadratic
fields, and class numbers via reduced indefinite form cycles.

Every function is pure and deterministic; all integers are arbitrary
precision.  Values are safe to share across threads or processes.
"""

from .cfrac import CFExpansion, cf_sqrt
from .classgroup import (ClassData, class_number, discriminant_of,
                         is_fundamental_discriminant, narrow_class_number)
from .families import (EXCEPTIONAL_SOLUTIONS, FAMILY_IDS, FamilyMember,
                       FamilySpec, TableRow, VerificationReport,
                       check_yamaguchi_hypothesis, class_conclusion,
                       family_spec, gen_members, reproduce_table,
                       verify_member)
from .intkit import (Factorization, FactorizationIncompleteError, factorize, gcd,
                     is_prime, isqrt, jacobi, squarefree_core)
from .pell import (D2MINUS1, D2MINUS2, D2PLUS2, D2PLUS3, RD_FAMILIES,
                   PellCertificate, QuadraticInteger, brute_force_solve,
                   fundamental_unit, neg_pell, pell_fundamental, rd_unit,
                   solve_pm_N, unit_norm)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion", "ClassData", "D2MINUS1", "D2MINUS2",
    "D2PLUS2", "D2PLUS3", "EXCEPTIONAL_SOLUTIONS", "FAMILY_IDS",
    "Factorization", "FactorizationIncompleteError", "FamilyMember",
    "FamilySpec", "PellCertificate", "QuadraticInteger",
    "RD_FAMILIES", "TableRow", "VerificationReport",
    "brute_force_solve", "cf_sqrt", "check_yamaguchi_hypothesis",
    "class_conclusion", "class_number", "discriminant_of",
    "factorize", "family_spec", "fundamental_unit", "gcd",
    "gen_members", "is_fundamental_discriminant", "is_prime", "isqrt",
    "jacobi", "narrow_class_number", "neg_pell",
    "pell_fundamental", "rd_unit",
    "reproduce_table", "solve_pm_N",
    "squarefree_core", "unit_norm", "verify_member",
]
