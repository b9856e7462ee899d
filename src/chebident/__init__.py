"""chebident: exact generating-function arithmetic and identity certification
for the Chebyshev polynomial families (four kinds) and Legendre polynomials.

The package computes, in exact rational arithmetic:

  * the five base families and their convolution (higher-order) powers;
  * truncated formal power series in t with Laurent-polynomial
    coefficients, as an independent oracle for every generating function;
  * the integer coefficient triangle a_i(N) of the derivative expansion
    2^N N! F^(N+1) = sum_i a_i(N) (x-t)^(i-2N) F^(i) for
    F = 1/(1 - 2tx + t^2);
  * symbolic certification (exact zero residual, no tolerances) of a
    catalog of convolution identities linking all of the above.

The package is the certifier only.  The closed forms and textbook
operations that the tests compare it against (the triangle's closed forms,
the explicit T_n, the differential equations of T and U, a parser for the
rendered text) live with the tests, in tests/_oracles.py.
"""

from chebident.families import Family, FamilySpec, family_poly, family_polys
from chebident.laurent import LaurentPoly
from chebident.report import ReportEntry, VerificationReport
from chebident.series import TruncatedSeries, gf_expand
from chebident.triangle import Triangle, triangle_recurrence, verify_defining_relation
from chebident.verify import (
    IdentityId,
    run_suite,
    verify_U_from_Legendre,
    verify_cor3,
    verify_cor4_reconstructed,
    verify_intro_U_from_T,
    verify_thm2,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "FamilySpec",
    "IdentityId",
    "LaurentPoly",
    "ReportEntry",
    "Triangle",
    "TruncatedSeries",
    "VerificationReport",
    "family_poly",
    "family_polys",
    "gf_expand",
    "run_suite",
    "triangle_recurrence",
    "verify_U_from_Legendre",
    "verify_cor3",
    "verify_cor4_reconstructed",
    "verify_defining_relation",
    "verify_intro_U_from_T",
    "verify_thm2",
    "verify_thm5",
    "verify_thm6",
    "verify_thm7",
]
