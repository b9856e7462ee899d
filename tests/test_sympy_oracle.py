"""Family rows and the series oracle against sympy's own Chebyshev,
Legendre and Gegenbauer code.

Both of the package's routes are checked here against a third one: the
Gegenbauer recurrence behind `family_polys`, and `series.gf_expand`, which
expands q(t)^alpha (1 - 2xt + t^2)^(-lambda) from the explicit Gegenbauer
sum and reads no family rows.
"""

import functools
from fractions import Fraction

import pytest

from chebident.families import Family, FamilySpec, _rows, family_polys
from chebident.series import gf_expand

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
T = sympy.Symbol("t")
N_MAX = 24

# The numerators q(t) of the families whose lambda is alpha.
NUMERATORS = {Family.U: 1, Family.V: 1 - T, Family.W: 1 + T, Family.T_GF: 1 - T**2}


@functools.cache
def gegenbauer(n, lam):
    return sympy.gegenbauer(n, lam, X)


def terms_of(expr):
    poly = sympy.Poly(sympy.expand(expr), X)
    return {
        e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms() if c != 0
    }


def assert_rows(kind, alpha, reference, rows=None):
    if rows is None:
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


@pytest.mark.parametrize("alpha", range(1, 7))
def test_legendre_series_oracle_is_gegenbauer(alpha):
    half = sympy.Rational(alpha, 2)
    rows = gf_expand(Family.LEGENDRE, alpha, N_MAX).coeffs
    assert_rows(Family.LEGENDRE, alpha, lambda n: sympy.gegenbauer(n, half, X), rows)


@pytest.mark.parametrize("kind", list(NUMERATORS))
@pytest.mark.parametrize("alpha", range(1, 7))
def test_series_oracle_is_filtered_gegenbauer(kind, alpha):
    # [t^n] q^alpha (1-2xt+t^2)^(-alpha) = sum_k [t^k] q^alpha * C_{n-k}^(alpha)
    q = sympy.Poly(NUMERATORS[kind] ** alpha, T).all_coeffs()[::-1]
    rows = gf_expand(kind, alpha, N_MAX).coeffs

    def reference(n):
        return sum(c * gegenbauer(n - k, alpha) for k, c in enumerate(q[: n + 1]))

    assert_rows(kind, alpha, reference, rows)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_scaled_legendre_table_is_gegenbauer(alpha):
    # The integer rows verify convolves: s^m C_m^(alpha/2), s = 2 for odd alpha.
    rows, s = _rows(Family.LEGENDRE, alpha, N_MAX), 2 if alpha % 2 else 1
    half = sympy.Rational(alpha, 2)
    reference = lambda n: s**n * sympy.gegenbauer(n, half, X)  # noqa: E731
    assert_rows(Family.LEGENDRE, alpha, reference, rows[: N_MAX + 1])
    assert all(type(c) is int for row in rows for c in row.terms.values())
