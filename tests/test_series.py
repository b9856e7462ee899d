import math
from fractions import Fraction

import pytest

from chebident import series as series_module
from chebident.families import Family, FamilySpec, family_poly
from chebident.laurent import LaurentPoly
from chebident.series import gf_expand

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def u(n):
    return family_poly(FamilySpec(Family.U), n)


def F(order):
    """The rows of F = 1/(1 - 2xt + t^2), as the oracle expands them."""
    return gf_expand(Family.U, 1, order).coeffs


def unit(order):
    """The rows of the series 1."""
    return (ONE,) + (ZERO,) * order


# kind -> (s, d, h): the generating function is (1 + s t^d)^alpha D^(-alpha/h)
# with D = 1 - 2xt + t^2, written out here apart from the module's own table.
REFERENCE_GF = {
    Family.T_GF: (-1, 2, 1),
    Family.U: (0, 1, 1),
    Family.V: (-1, 1, 1),
    Family.W: (1, 1, 1),
    Family.LEGENDRE: (0, 1, 2),
}


def times_d_power(rows, k, m):
    """[t^m] of D^k times the series with these rows.

    D^k is applied as its multinomial taps k!/(a! b! (k-a-b)!) (-2x)^a t^(a+2b),
    so no series product runs.
    """
    return LaurentPoly.combination(
        (
            math.factorial(k)
            // (math.factorial(a) * math.factorial(b) * math.factorial(k - a - b))
            * (-2) ** a,
            a,
            rows[m - a - 2 * b],
        )
        for a in range(k + 1)
        for b in range(k - a + 1)
        if a + 2 * b <= m
    )


def times_numerator(rows, kind, alpha, m):
    """[t^m] of (1 + s t^d)^alpha times the series with these rows, applied
    as the binomial taps C(alpha, j) s^j t^(dj)."""
    s, d, _ = REFERENCE_GF[kind]
    return LaurentPoly.combination(
        (math.comb(alpha, j) * s**j, 0, rows[m - d * j]) for j in range(alpha + 1) if d * j <= m
    )


class TestArithmetic:
    """F = 1/D as the oracle expands it, checked by multiplying back."""

    def test_inverse_round_trip_with_denominator(self):
        for order in (4, 12, 32):
            f = F(order)
            assert tuple(times_d_power(f, 1, m) for m in range(order + 1)) == unit(order)


class TestInverse:
    def test_chebyshev_second_kind_coefficient(self):
        # the t^2 coefficient of 1/(1-2xt+t^2) equals U_2 = 2x*U_1 - U_0
        assert F(4)[2] == LaurentPoly({2: 4, 0: -1})

    def test_keeps_integer_coefficients(self):
        # the expansion of 1/D, a unit-constant integer series, has no Fractions
        for coeff in F(6):
            assert all(isinstance(c, int) for c in coeff.terms.values())


class TestPow:
    def test_square_of_f_is_u_convolution(self):
        # [t^n] F^2 = sum_l U_l U_{n-l}; the right side is built from the
        # recurrence-generated polynomials, independently of the oracle
        f2 = gf_expand(Family.U, 2, 12)
        for n in range(13):
            expected = LaurentPoly.zero()
            for l in range(n + 1):
                expected = expected + u(l) * u(n - l)
            assert f2.coefficient(n) == expected


class TestDerivative:
    """t-derivative identities of F, read off the rows: coefficient m of
    dG/dt is (m+1) G_(m+1)."""

    @pytest.mark.parametrize("order", [4, 9, 16])
    def test_derivative_of_f_identity(self, order):
        # d/dt F = 2(x - t) F^2 holds exactly at every truncation order
        f, f2 = F(order), gf_expand(Family.U, 2, order).coeffs
        for m in range(order):
            rhs = LaurentPoly.combination([(2, 1, f2[m])] + [(-2, 0, f2[m - 1])] * (m > 0))
            assert (m + 1) * f[m + 1] == rhs, m

    def test_weighted_u_expansion(self):
        # (1 - t^2) F^2 has t^n coefficient (n+1) U_n
        order = 32
        f2 = gf_expand(Family.U, 2, order).coeffs
        for n in range(order + 1):
            assert times_numerator(f2, Family.T_GF, 1, n) == (n + 1) * u(n)


class TestGfExpand:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            (Family.U, 1, {1: 2}),
            (Family.W, 1, {1: 2, 0: 1}),
            (Family.V, 1, {1: 2, 0: -1}),
            (Family.T_GF, 2, {2: 4, 0: -2}),
            (Family.LEGENDRE, 2, {2: Fraction(3, 2), 0: Fraction(-1, 2)}),
        ],
    )
    def test_base_coefficients(self, kind, n, expected):
        assert gf_expand(kind, 1, 4).coefficient(n) == LaurentPoly(expected)

    @pytest.mark.parametrize("kind", [Family.T_GF, Family.U, Family.V, Family.W, Family.LEGENDRE])
    @pytest.mark.parametrize("alpha", [2, 3, 4, 5])
    def test_power_consistency(self, kind, alpha):
        # Order alpha is order alpha - h times G_h = q^h/D, so G_alpha is
        # G_1^alpha (Legendre, h = 2: G_2k = D^(-k) and G_(2k+1) = D^(-k) G_1).
        # Checked by multiplying back, as taps: D G_alpha = q^h G_(alpha-h).
        order = 24
        _, _, h = REFERENCE_GF[kind]
        got = gf_expand(kind, alpha, order).coeffs
        prev = gf_expand(kind, alpha - h, order).coeffs if alpha > h else unit(order)
        for m in range(order + 1):
            assert times_d_power(got, 1, m) == times_numerator(prev, kind, h, m), m

    @pytest.mark.parametrize("kind", REFERENCE_GF)
    def test_order_bounds(self, kind):
        # The expansion builds its coefficients directly, so it must reject
        # order -1 itself.
        with pytest.raises(ValueError, match=r"^series order must be >= 0"):
            gf_expand(kind, 1, -1)
        assert gf_expand(kind, 3, 0).coeffs == (ONE,)

    @pytest.mark.parametrize("kind", REFERENCE_GF)
    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_matches_inverse_and_square_root_route(self, kind, alpha):
        # G = q^alpha D^(-lambda), checked without a series inverse or square
        # root.  Integer lambda: D^lambda G = q^alpha.  Half-integer lambda
        # (q = 1): D^(-alpha/2) is the one series with constant term 1 that
        # solves D G' = alpha (x - t) G.  Every product is a few taps.
        _, _, h = REFERENCE_GF[kind]
        order = 24
        got = gf_expand(kind, alpha, order).coeffs
        if alpha % h:
            assert got[0] == ONE
            deriv = [(l + 1) * got[l + 1] for l in range(order)]
            for m in range(order):
                rhs = LaurentPoly.combination(
                    [(alpha, 1, got[m])] + [(-alpha, 0, got[m - 1])] * (m > 0)
                )
                assert times_d_power(deriv, 1, m) == rhs, m
        else:
            for m in range(order + 1):
                numerator = times_numerator(unit(order), kind, alpha, m)
                assert times_d_power(got, alpha // h, m) == numerator, m
            # integer lambda: no Fraction, not even 2/1
            assert all(type(c) is int for p in got for c in p.terms.values())

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_shared_factor_cache_is_coherent(self, descending):
        # The denominator factor is memoized per (2 lambda, order) and shared
        # by every kind with that lambda; whichever order and kind asked
        # first, each expansion must be the truncation of the longest one.
        series_module._gegenbauer_sum.cache_clear()
        orders = sorted(range(25), reverse=descending)
        for alpha in range(1, 5):
            for kind in REFERENCE_GF:
                got = {m: gf_expand(kind, alpha, m) for m in orders}
                for m in orders:
                    assert got[m].coeffs == got[24].coeffs[: m + 1], (kind, alpha, m)
            # U at alpha and Legendre at 2 alpha are both D^(-alpha).
            assert gf_expand(Family.U, alpha, 24) == gf_expand(Family.LEGENDRE, 2 * alpha, 24)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gf_expand(Family.U, 0, 4)

    def test_rejects_classical_kind(self):
        with pytest.raises(ValueError):
            gf_expand(Family.T_CLASSICAL, 1, 4)


class TestConstruction:
    def test_coefficient_bounds(self):
        with pytest.raises(IndexError):
            gf_expand(Family.U, 1, 1).coefficient(2)
