"""The exact scalars of tests/_oracles.py, and the rationals they run on."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _oracles import double_factorial, falling_factorial

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


class TestDoubleFactorial:
    @pytest.mark.parametrize(
        "m,expected", [(-1, 1), (1, 1), (3, 3), (5, 15), (7, 105), (9, 945)]
    )
    def test_values(self, m, expected):
        assert double_factorial(m) == expected

    @pytest.mark.parametrize("m", [0, 2, -3, 4])
    def test_rejects_invalid(self, m):
        with pytest.raises(ValueError):
            double_factorial(m)

    @pytest.mark.parametrize("m", [True, False, 3.0, Fraction(3), "3"], ids=repr)
    def test_rejects_non_int(self, m):
        with pytest.raises(TypeError, match="m must be an int"):
            double_factorial(m)

    def test_factorial_split(self):
        # (2N)! = (2N-1)!! * 2^N * N!
        for N in range(1, 31):
            assert (
                double_factorial(2 * N - 1) * 2**N * math.factorial(N)
                == math.factorial(2 * N)
            )


class TestFallingFactorial:
    def test_order_zero_is_one(self):
        for x in (0, 5, Fraction(-7, 3), Fraction(5, 2)):
            assert falling_factorial(x, 0) == 1

    def test_rational_base(self):
        # (5/2)(3/2) computed directly
        assert falling_factorial(Fraction(5, 2), 2) == Fraction(15, 4)

    def test_integer_base(self):
        assert falling_factorial(3, 3) == 6
        assert falling_factorial(3, 4) == 0  # hits the factor (3-3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            falling_factorial(2, -1)

    @pytest.mark.parametrize("k", [True, False, 2.0, Fraction(2), "2"], ids=repr)
    def test_rejects_non_int_order(self, k):
        with pytest.raises(TypeError, match="k must be an int"):
            falling_factorial(5, k)

    @pytest.mark.parametrize("x", [2.5, 2.0, True, False, "a", None], ids=repr)
    @pytest.mark.parametrize("k", [0, 2])
    def test_rejects_inexact_or_non_numeric_base(self, x, k):
        # 2.5 would give the float 3.75, True would run as 1, and "a" would
        # return 1 at k = 0 without ever being multiplied.
        with pytest.raises(TypeError, match="x must be an int or a Fraction"):
            falling_factorial(x, k)

    @given(rationals, st.integers(0, 10), st.integers(0, 10))
    def test_additivity(self, x, j, k):
        # (x)_{j+k} = (x)_j * (x-j)_k
        assert falling_factorial(x, j + k) == falling_factorial(
            x, j
        ) * falling_factorial(x - j, k)


class TestRationalCorpus:
    @given(rationals, rationals)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(rationals, rationals, rationals)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(rationals)
    def test_lowest_terms_idempotent(self, a):
        again = Fraction(a.numerator, a.denominator)
        assert (again.numerator, again.denominator) == (a.numerator, a.denominator)
        assert a.denominator > 0
