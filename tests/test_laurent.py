import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebident import _backend
from chebident.laurent import LaurentPoly

from _oracles import derivative, from_triples, parse, power, shift

X = LaurentPoly.x_power(1)


def lp(terms):
    return LaurentPoly(terms)


def value(p, x0):
    """Exact value of p at a nonzero rational x0, summed term by term."""
    return sum(c * x0**e for e, c in p.terms.items())


coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6),
)
polys = st.dictionaries(st.integers(-6, 6), coeffs, max_size=6).map(LaurentPoly)
nonzero_rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=8
).filter(lambda q: q != 0)


class TestBasics:
    def test_add_with_cancellation(self):
        assert lp({1: 1, 0: 1}) + lp({-1: 1, 0: -1}) == lp({1: 1, -1: 1})

    def test_add_zero_identity(self):
        p = lp({3: 2, -2: Fraction(1, 2)})
        assert p + LaurentPoly.zero() == p

    def test_add_doubles(self):
        assert lp({1: 2}) + lp({1: 2}) == lp({1: 4})

    def test_mul_exponents_add(self):
        assert lp({-2: 1}) * lp({3: 1}) == X

    def test_difference_of_squares(self):
        assert lp({1: 2, 0: -1}) * lp({1: 2, 0: 1}) == lp({2: 4, 0: -1})

    def test_mul_by_zero(self):
        p = lp({5: 3, -1: 7})
        assert p * LaurentPoly.zero() == LaurentPoly.zero()

    def test_scalar_mul_and_div(self):
        p = lp({2: 3, 0: -6})
        assert 2 * p == lp({2: 6, 0: -12})
        assert p / 3 == lp({2: 1, 0: -2})
        assert p * Fraction(1, 3) == lp({2: 1, 0: -2})

    def test_division_keeps_integral_quotients_int(self):
        # p / d is exact per coefficient: an integral quotient is an int,
        # not Fraction(k, 1), and only a remainder makes a Fraction.
        p = lp({2: 6, 0: -4})

        def typed(q):
            return {e: (type(c), c) for e, c in q.terms.items()}

        assert typed(p / 2) == {2: (int, 3), 0: (int, -2)}
        assert typed(p / 4) == {2: (Fraction, Fraction(3, 2)), 0: (int, -1)}
        assert typed(p / Fraction(2, 3)) == {2: (int, 9), 0: (int, -6)}
        assert typed(lp({1: Fraction(3, 2), 0: 1}) / Fraction(1, 2)) == {
            1: (int, 3),
            0: (int, 2),
        }
        with pytest.raises(ZeroDivisionError):
            p / 0

    def test_shift(self):
        assert shift(lp({2: 1, 0: 1}), -3) == lp({-1: 1, -3: 1})
        p = lp({4: 2, -2: 5})
        assert shift(p, 0) is p
        assert shift(shift(p, 7), -7) == p

    def test_pow(self):
        assert power(X + LaurentPoly.one(), 2) == lp({2: 1, 1: 2, 0: 1})
        assert power(lp({1: 2}), 0) == LaurentPoly.one()
        with pytest.raises(ValueError, match=r"^polynomial power must be"):
            power(X, -1)

    def test_derivative(self):
        assert derivative(lp({3: 1})) == lp({2: 3})
        assert derivative(lp({-1: 1})) == lp({-2: -1})
        assert derivative(LaurentPoly({0: 9})) == LaurentPoly.zero()

    def test_is_polynomial(self):
        assert lp({2: 4, 0: -1}).is_polynomial()
        assert not lp({-1: 1, 1: 1}).is_polynomial()
        assert LaurentPoly.zero().is_polynomial()


class TestCanonicalForm:
    def test_no_zero_coefficients_stored(self):
        assert lp({3: 0, 1: 2}).terms == {1: 2}
        assert (X - X).terms == {}

    def test_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            lp({1: 0.5})

    def test_constructor_rejects_bools(self):
        with pytest.raises(TypeError):
            lp({0: True})

    @pytest.mark.parametrize(
        "op",
        [
            lambda p, b: p * b,
            lambda p, b: b * p,
            lambda p, b: p / b,
        ],
        ids=["mul", "rmul", "truediv"],
    )
    @pytest.mark.parametrize("b", [True, False])
    def test_scalar_arithmetic_rejects_bools(self, op, b):
        # p * True used to be p and p * False 0, while lp({0: True}) raised.
        with pytest.raises(TypeError):
            op(parse("2*x - 1"), b)

    @pytest.mark.parametrize("e", [True, 1.5], ids=["bool", "float"])
    def test_constructor_rejects_non_int_exponents(self, e):
        # {True: 1} used to be stored as is, next to int exponents.
        with pytest.raises(TypeError, match=r"^exponent must be an int"):
            lp({e: 1})

    def test_int_fraction_coefficients_compare_equal(self):
        assert lp({0: 3}) == lp({0: Fraction(3, 1)})
        assert hash(lp({0: 3})) == hash(lp({0: Fraction(3, 1)}))

    @pytest.mark.parametrize(
        "terms,text",
        [
            ({2: 4, 0: -1}, "4*x^2 - 1"),
            ({-3: Fraction(1, 2)}, "1/2*x^-3"),
            ({}, "0"),
            ({1: 1}, "x"),
            ({1: -1, -2: 1}, "-x + x^-2"),
            ({0: Fraction(-2, 3)}, "-2/3"),
            ({5: 1, 1: 2, 0: 1}, "x^5 + 2*x + 1"),
        ],
    )
    def test_rendering(self, terms, text):
        assert str(lp(terms)) == text

    @pytest.mark.parametrize(
        "text", ["4*x^2 - 1", "1/2*x^-3", "0", "x", "-x + x^-2", "x^5 + 2*x + 1"]
    )
    def test_parse_known_strings(self, text):
        assert str(parse(text)) == text

    @given(polys)
    def test_parse_round_trip(self, p):
        assert parse(str(p)) == p

    @given(polys)
    def test_triples_round_trip(self, p):
        assert from_triples(p.to_triples()) == p

    @given(polys)
    def test_triples_round_trip_through_cli_json_strings(self, p):
        triples = [[e, str(num), str(den)] for e, num, den in p.to_triples()]
        assert from_triples(triples) == p

    @pytest.mark.parametrize(
        "triple",
        [
            [1, 1.9, 1], [1, 1, 2.0], [1.0, 1, 1], [1, True, 1], [True, 1, 1], [1, 1, False],
            [1, "1.5", "1"], [1, "1", " 2"], [1, "x", "1"], [1, None, 1], [1, Fraction(1, 2), 1],
        ],
    )
    def test_triples_reject_non_integers(self, triple):
        # Nothing is rounded: 1.9 used to truncate to 1 and True to count as 1.
        with pytest.raises(TypeError, match=re.escape(repr(triple))):
            from_triples([[0, 1, 1], triple])

    @pytest.mark.parametrize("triple", [[1, 1, 0], [1, "3", "0"], [2, "0", "-0"]])
    def test_triples_reject_zero_denominator(self, triple):
        message = "zero denominator in triple " + re.escape(repr(triple))
        with pytest.raises(ValueError, match=message):
            from_triples([triple])

    @pytest.mark.parametrize("triple", [[1, 2], [1, 2, 3, 4]])
    def test_triples_reject_wrong_length(self, triple):
        with pytest.raises(ValueError, match=re.escape(repr(triple))):
            from_triples([triple])

    def test_triples_sum_repeated_exponents(self):
        assert from_triples([[2, "-3", "4"], [2, 1, 4], [0, 0, 5]]) == lp(
            {2: Fraction(-1, 2)}
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("x ** 2")

    @pytest.mark.parametrize(
        "text,term", [("1/0*x", "1/0*x"), ("x^2 - 3/0", "3/0"), ("-1/0", "1/0")]
    )
    def test_parse_rejects_zero_denominator(self, text, term):
        # As in from_triples: a ValueError naming the term, not a bare
        # ZeroDivisionError from Fraction.
        with pytest.raises(ValueError, match=re.escape(f"zero denominator in term {term!r}")):
            parse(text)


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, nonzero_rationals)
    def test_evaluate_is_ring_homomorphism(self, a, b, x0):
        assert value(a * b, x0) == value(a, x0) * value(b, x0)
        assert value(a + b, x0) == value(a, x0) + value(b, x0)

    @given(polys, st.integers(-5, 5))
    def test_shift_matches_monomial_mul(self, p, k):
        assert shift(p, k) == p * LaurentPoly.x_power(k)


weighted_items = st.lists(st.tuples(coeffs, st.integers(-5, 5), polys), max_size=6)


class TestCombination:
    @given(weighted_items)
    def test_matches_naive_sum(self, items):
        naive = LaurentPoly.zero()
        for c, k, p in items:
            naive = naive + c * shift(p, k)
        assert LaurentPoly.combination(items) == naive

    @given(weighted_items)
    def test_cancels_to_the_zero_polynomial(self, items):
        negated = [(-c, k, p) for c, k, p in reversed(items)]
        assert LaurentPoly.combination(items + negated).terms == {}

    def test_zero_weights_are_skipped(self):
        p = lp({2: 3, -1: Fraction(1, 2)})
        assert LaurentPoly.combination([(0, 4, p), (Fraction(0), 1, p)]).is_zero()
        assert LaurentPoly.combination([(0, 0, p), (2, 1, p)]) == 2 * shift(p, 1)

    def test_total_cancellation(self):
        p = lp({3: Fraction(2, 3), 0: -5})
        q = shift(p, -2)
        result = LaurentPoly.combination(
            [(Fraction(3, 2), 1, q), (Fraction(-1, 2), -1, p), (-1, -1, p)]
        )
        assert result == LaurentPoly.zero()
        assert result.terms == {}


def random_terms(rng, size=8, rational=False):
    out = {}
    for _ in range(rng.randint(0, size)):
        e = rng.randint(-8, 8)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rational else rng.randint(-9, 9)
        if c:
            out[e] = c
    return out


@pytest.fixture(params=[False, True], ids=["int", "fraction"])
def term_pairs(request):
    rng = random.Random(7 if request.param else 3)
    return [
        (random_terms(rng, rational=request.param), random_terms(rng, rational=request.param))
        for _ in range(60)
    ]


class TestKernels:
    """The term-map kernels under LaurentPoly."""

    def test_outputs_are_canonical(self, term_pairs):
        for a, b in term_pairs:
            for result in (
                _backend.add_terms(a, b),
                (lp(a) - lp(b)).terms,
                _backend.mul_terms(a, b),
                _backend.scale_terms(a, Fraction(-2, 3)),
            ):
                assert all(result.values()), result

    def test_inplace_accumulate_then_prune(self, term_pairs):
        for a, b in term_pairs:
            acc = dict(a)
            _backend.iadd_scaled_shifted(acc, b, 3, -2)
            pruned = _backend.prune_zeros(acc)
            assert all(pruned.values())
            assert lp(pruned) == lp(a) + 3 * shift(lp(b), -2)
            acc = dict(a)
            _backend.iadd_mul(acc, b, a)
            pruned = _backend.prune_zeros(acc)
            assert all(pruned.values())
            assert lp(pruned) == lp(a) + lp(b) * lp(a)

    def test_cancellation_prunes_entries(self):
        a = {0: 1, 2: 5}
        b = {0: -1, 2: -5}
        assert _backend.add_terms(a, b) == {}
        assert (lp(a) - lp(a)).is_zero()
        assert _backend.mul_terms(a, {}) == {}
        assert _backend.scale_terms(a, 0) == {}
        acc = dict(a)
        _backend.iadd_scaled_shifted(acc, a, -1, 0)
        assert _backend.prune_zeros(acc) == {}
        acc = dict(a)
        _backend.iadd_mul(acc, a, {0: -1})
        assert _backend.prune_zeros(acc) == {}

    def test_prune_returns_its_argument_when_nothing_cancelled(self, term_pairs):
        for a, _ in term_pairs:
            d = dict(a)
            assert _backend.prune_zeros(d) is d
            assert d == a

    def test_prune_copies_and_leaves_the_argument_when_something_cancelled(self, term_pairs):
        for a, b in term_pairs:
            d = {**a, **{e: 0 for e in b}, 99: Fraction(0)}
            before = dict(d)
            pruned = _backend.prune_zeros(d)
            assert pruned is not d and d == before
            assert all(pruned.values())
            assert pruned == {e: v for e, v in a.items() if e not in b}
