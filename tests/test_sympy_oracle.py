"""Family rows against sympy's own Chebyshev, Legendre and Gegenbauer code.

This is the one check of the base Legendre rows that does not itself go
through the Gegenbauer recurrence: `series.gf_expand` builds its Legendre
series from `family_polys`.
"""

from fractions import Fraction

import pytest

from chebident.families import Family, FamilySpec, family_polys

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
N_MAX = 24


def terms_of(expr):
    poly = sympy.Poly(sympy.expand(expr), X)
    return {
        e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms() if c != 0
    }


def assert_rows(kind, alpha, reference):
    rows = family_polys(FamilySpec(kind, alpha), N_MAX)
    for n, row in enumerate(rows):
        assert row.terms == terms_of(reference(n)), (kind, alpha, n)


@pytest.mark.parametrize(
    "kind,reference",
    [
        (Family.T_CLASSICAL, lambda n: sympy.chebyshevt(n, X)),
        (Family.U, lambda n: sympy.chebyshevu(n, X)),
        (Family.LEGENDRE, lambda n: sympy.legendre(n, X)),
    ],
)
def test_base_families(kind, reference):
    assert_rows(kind, 1, reference)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_u_powers_are_gegenbauer(alpha):
    assert_rows(Family.U, alpha, lambda n: sympy.gegenbauer(n, alpha, X))


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_legendre_powers_are_gegenbauer(alpha):
    half = sympy.Rational(alpha, 2)
    assert_rows(Family.LEGENDRE, alpha, lambda n: sympy.gegenbauer(n, half, X))
