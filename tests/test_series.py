from fractions import Fraction

import pytest

from chebident import series as series_module
from chebident.families import Family, FamilySpec, family_poly
from chebident.laurent import LaurentPoly
from chebident.series import (
    TruncatedSeries,
    denominator_series,
    gf_expand,
    x_minus_t_inverse_pow,
    x_minus_t_pow,
)

ONE = LaurentPoly.one()
X = LaurentPoly.x_power(1)


def series(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


def u(n):
    return family_poly(FamilySpec(Family.U), n)


def F(order):
    return denominator_series(order).inverse()


# kind -> (numerator q(t), h): the generating function is q^alpha D^(-alpha/h)
# with D = 1 - 2xt + t^2, written out here apart from the module's own table.
REFERENCE_GF = {
    Family.T_GF: ([1, 0, -1], 1),
    Family.U: ([1], 1),
    Family.V: ([1, -1], 1),
    Family.W: ([1, 1], 1),
    Family.LEGENDRE: ([1], 2),
}


class TestArithmetic:
    def test_mul_example(self):
        a = series([1, 1], 2)  # 1 + t
        b = series([1, -1], 2)  # 1 - t
        assert a * b == series([1, 0, -1], 2)

    def test_mul_identity(self):
        a = series([u(0), u(1), u(2)], 2)
        assert a * TruncatedSeries.one(2) == a

    def test_mul_truncates_to_shorter(self):
        a = series([1, 1, 1, 1], 3)
        b = series([1, 1], 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_inverse_round_trip_with_denominator(self):
        for order in (4, 12, 32):
            f = F(order)
            assert f * denominator_series(order) == TruncatedSeries.one(order)

    def test_mul_commutes_and_associates(self):
        a = series([ONE, X, 2 * X], 5)
        b = series([X, ONE], 5)
        c = series([LaurentPoly({-1: 1}), ONE, X * X], 5)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_geometric(self):
        g = series([1, -1], 3)  # 1 - t
        assert g.inverse() == series([1, 1, 1, 1], 3)

    def test_chebyshev_second_kind_coefficient(self):
        # the t^2 coefficient of 1/(1-2xt+t^2) equals U_2 = 2x*U_1 - U_0
        assert F(4).coefficient(2) == LaurentPoly({2: 4, 0: -1})

    def test_involution(self):
        a = series([2, X, LaurentPoly({1: -1, 0: 3})], 2)
        assert a.inverse().inverse() == a

    def test_keeps_integer_coefficients(self):
        # inverting a unit-constant integer series must not leak Fractions
        f = F(6)
        for coeff in f.coeffs:
            assert all(isinstance(c, int) for c in coeff.terms.values())

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            series([0, 1], 2).inverse()

    def test_rejects_nonconstant_leading_coefficient(self):
        with pytest.raises(ValueError):
            series([X, 1], 2).inverse()

    def test_rejects_negative_powers_in_constant_coefficient(self):
        # 1 + x^-1 has max degree 0 but is no constant; its "inverse" would
        # not multiply back to 1.
        with pytest.raises(ValueError, match="not invertible"):
            series([LaurentPoly({0: 1, -1: 1}), 1], 3).inverse()


class TestSqrt:
    @pytest.mark.parametrize("alpha", [1, 3, 5])
    def test_square_is_input(self, alpha):
        s = denominator_series(24).pow(alpha).inverse()  # F^alpha
        root = s.sqrt()
        assert root * root == s

    def test_rational_input(self):
        s = series([1, Fraction(2, 3), LaurentPoly({-1: Fraction(1, 5), 2: 7})], 10)
        root = s.sqrt()
        assert root * root == s

    @pytest.mark.parametrize("leading", [0, 4, -1, X])
    def test_rejects_constant_term_other_than_one(self, leading):
        with pytest.raises(ValueError):
            series([leading, 1], 4).sqrt()


class TestPow:
    def test_power_one(self):
        a = series([1, 2, 3], 2)
        assert a.pow(1) == a

    def test_square(self):
        assert series([1, 1], 2).pow(2) == series([1, 2, 1], 2)

    def test_square_of_f_is_u_convolution(self):
        # [t^n] F^2 = sum_l U_l U_{n-l}; the right side is built from the
        # recurrence-generated polynomials, independently of cauchy_mul
        f2 = F(12).pow(2)
        for n in range(13):
            expected = LaurentPoly.zero()
            for l in range(n + 1):
                expected = expected + u(l) * u(n - l)
            assert f2.coefficient(n) == expected

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            series([1, 1], 1).pow(0)


class TestDerivative:
    def test_example(self):
        assert series([1, 3, 1], 2).derivative_t() == series([3, 2], 1)

    def test_constant_series(self):
        assert series([5, 0, 0], 2).derivative_t() == TruncatedSeries.zero(1)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            series([1], 0).derivative_t()

    @pytest.mark.parametrize("order", [4, 9, 16])
    def test_derivative_of_f_identity(self, order):
        # d/dt F = 2(x - t) F^2 holds exactly at every truncation order
        f = F(order)
        rhs = 2 * (x_minus_t_pow(1, order) * f.pow(2))
        assert f.derivative_t() == rhs.truncate(order - 1)

    def test_weighted_u_expansion(self):
        # (1 - t^2) F^2 has t^n coefficient (n+1) U_n
        order = 32
        g = series([1, 0, -1], order) * F(order).pow(2)
        for n in range(order + 1):
            assert g.coefficient(n) == (n + 1) * u(n)


class TestXMinusTPowers:
    def test_inverse_power_k1(self):
        s = x_minus_t_inverse_pow(1, 5)
        for m in range(6):
            assert s.coefficient(m) == LaurentPoly.x_power(-1 - m)

    def test_inverse_power_k2_linear_term(self):
        assert x_minus_t_inverse_pow(2, 3).coefficient(1) == LaurentPoly.x_power(-3, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_inverse_round_trip(self, k):
        order = 16
        prod = x_minus_t_inverse_pow(k, order) * x_minus_t_pow(k, order)
        assert prod == TruncatedSeries.one(order)

    def test_positive_power_is_binomial_expansion(self):
        assert x_minus_t_pow(2, 4) == series(
            [LaurentPoly({2: 1}), LaurentPoly({1: -2}), ONE], 4
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            x_minus_t_inverse_pow(0, 4)

    def test_inverse_rejects_negative_order(self):
        # It builds its coefficients directly, past the series constructor's check.
        with pytest.raises(ValueError, match=r"^series order must be >= 0"):
            x_minus_t_inverse_pow(2, -1)


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
        order = 24
        assert gf_expand(kind, alpha, order) == gf_expand(kind, 1, order).pow(alpha)

    def test_legendre_square_is_u(self):
        # (1-2xt+t^2)^(-1/2) squared is the U generating function
        order = 24
        assert gf_expand(Family.LEGENDRE, 1, order).pow(2) == gf_expand(Family.U, 1, order)

    @pytest.mark.parametrize("kind", REFERENCE_GF)
    def test_order_bounds(self, kind):
        # The expansion builds its coefficients directly, past the series
        # constructor's check, so it must reject order -1 itself.
        with pytest.raises(ValueError, match=r"^series order must be >= 0"):
            gf_expand(kind, 1, -1)
        assert gf_expand(kind, 3, 0) == TruncatedSeries.one(0)

    @pytest.mark.parametrize("kind", REFERENCE_GF)
    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_matches_inverse_and_square_root_route(self, kind, alpha):
        # The reference route is plain series arithmetic: q^alpha times the
        # inverse of D^lambda, or for half-integer lambda the square root of
        # the inverse of D^alpha.
        numerator, h = REFERENCE_GF[kind]
        for order in range(25):
            D = denominator_series(order)
            if alpha % h:
                factor = D.pow(alpha).inverse().sqrt()
            else:
                factor = D.pow(alpha // h).inverse()
            expected = TruncatedSeries(numerator, order).pow(alpha) * factor
            got = gf_expand(kind, alpha, order)
            assert got == expected, order
            if not alpha % h:  # integer lambda: no Fraction, not even 2/1
                assert all(type(c) is int for p in got.coeffs for c in p.terms.values())

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
                    assert got[m] == got[24].truncate(m), (kind, alpha, m)
            # U at alpha and Legendre at 2 alpha are both D^(-alpha).
            assert gf_expand(Family.U, alpha, 24) == gf_expand(Family.LEGENDRE, 2 * alpha, 24)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            gf_expand(Family.U, 0, 4)

    def test_rejects_classical_kind(self):
        with pytest.raises(ValueError):
            gf_expand(Family.T_CLASSICAL, 1, 4)


class TestConstruction:
    def test_pads_to_order(self):
        s = series([1], 3)
        assert s.order == 3
        assert s.coefficient(3) == LaurentPoly.zero()

    def test_coefficient_bounds(self):
        with pytest.raises(IndexError):
            series([1, 2], 1).coefficient(2)

    def test_truncate(self):
        s = series([1, 2, 3], 2)
        assert s.truncate(1) == series([1, 2], 1)
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_truncate_rejects_negative_order(self):
        # A slice to order -1 would return an empty series of order -1.
        with pytest.raises(ValueError, match=r"^series order must be >= 0"):
            series([1, 2, 3], 2).truncate(-1)

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            series([1.5], 1)
