import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from chebident import families
from chebident.families import Family, FamilySpec, _rows, _scale, family_poly, family_polys
from chebident.laurent import LaurentPoly
from chebident.series import gf_expand

from _oracles import explicit_T, ode_residual, shift


def poly(kind, n, alpha=1):
    return family_poly(FamilySpec(kind, alpha), n)


class TestBaseFamilies:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            (Family.U, 0, {0: 1}),
            (Family.U, 1, {1: 2}),
            (Family.U, 2, {2: 4, 0: -1}),
            (Family.V, 0, {0: 1}),
            (Family.V, 1, {1: 2, 0: -1}),
            (Family.W, 1, {1: 2, 0: 1}),
            (Family.T_CLASSICAL, 1, {1: 1}),
            (Family.T_CLASSICAL, 2, {2: 2, 0: -1}),
            (Family.T_GF, 0, {0: 1}),
            (Family.T_GF, 1, {1: 2}),
            (Family.T_GF, 2, {2: 4, 0: -2}),
            (Family.LEGENDRE, 1, {1: 1}),
            (Family.LEGENDRE, 2, {2: Fraction(3, 2), 0: Fraction(-1, 2)}),
            (Family.LEGENDRE, 3, {3: Fraction(5, 2), 1: Fraction(-3, 2)}),
        ],
    )
    def test_low_degree_values(self, kind, n, expected):
        assert poly(kind, n) == LaurentPoly(expected)

    def test_higher_order_u(self):
        # [t^1] F^2 = U_0 U_1 + U_1 U_0 = 4x
        assert poly(Family.U, 1, alpha=2) == LaurentPoly({1: 4})

    def test_family_polys_prefix(self):
        rows = family_polys(FamilySpec(Family.V), 6)
        assert len(rows) == 7
        assert rows[3] == poly(Family.V, 3)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            poly(Family.U, -1)

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2), "2"])
    def test_rejects_non_int_index(self, n):
        with pytest.raises(TypeError, match=r"^n must be an int"):
            poly(Family.U, n)
        with pytest.raises(TypeError, match=r"^n_max must be an int"):
            family_polys(FamilySpec(Family.U), n)

    def test_always_true_polynomials(self):
        for kind in Family:
            for n in range(12):
                assert poly(kind, n).is_polynomial()


class TestFamilySpec:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            FamilySpec(Family.U, 0)

    @pytest.mark.parametrize("alpha", [True, 1.5, 2.0, Fraction(3, 2)])
    def test_rejects_non_int_alpha(self, alpha):
        with pytest.raises(TypeError, match=r"^alpha must be an int"):
            FamilySpec(Family.U, alpha)

    def test_rejects_higher_order_classical(self):
        with pytest.raises(ValueError):
            FamilySpec(Family.T_CLASSICAL, 2)

    def test_accepts_string_kind(self):
        assert FamilySpec("U").kind is Family.U


class TestNormalizationBridge:
    def test_tgf_doubles_classical(self):
        # T~_0 = T_0 and T~_n = 2 T_n for n >= 1
        assert poly(Family.T_GF, 0) == poly(Family.T_CLASSICAL, 0)
        for n in range(1, 49):
            assert poly(Family.T_GF, n) == 2 * poly(Family.T_CLASSICAL, n)

    def test_tgf_from_u_differences(self):
        u = family_polys(FamilySpec(Family.U), 20)
        assert poly(Family.T_GF, 1) == u[1]
        for n in range(2, 21):
            assert poly(Family.T_GF, n) == u[n] - u[n - 2]


class TestClassicalPowers:
    def test_match_explicit_convolution(self):
        # Reference for the higher classical orders read by thm7's
        # first_kind="classical" guard: alpha-fold convolution of T_n.
        n_max = 12
        base = family_polys(FamilySpec(Family.T_CLASSICAL), n_max)
        power = base
        for alpha in range(1, 5):
            if alpha > 1:
                power = [
                    sum((base[j] * power[m - j] for j in range(m + 1)), LaurentPoly.zero())
                    for m in range(n_max + 1)
                ]
            assert _rows(Family.T_CLASSICAL, alpha, n_max)[: n_max + 1] == power


class TestSeriesOracle:
    @pytest.mark.parametrize("kind", list(Family))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_recurrence_matches_series(self, kind, alpha):
        # acceptance covers alpha <= 4, n <= 48; this is the fast screen
        order = 24
        if kind is Family.T_CLASSICAL:
            # gf_expand has no classical kind and FamilySpec stops at alpha = 1:
            # check the row store against (1 - xt)^alpha (1 - 2xt + t^2)^(-alpha).
            # (1 - xt)^alpha is applied as its binomial taps C(alpha, j) (-x)^j t^j.
            rows = gf_expand(Family.U, alpha, order).coeffs
            expansion = [
                LaurentPoly.combination(
                    (math.comb(alpha, j) * (-1) ** j, j, rows[m - j])
                    for j in range(min(alpha, m) + 1)
                )
                for m in range(order + 1)
            ]
            assert expansion == _rows(kind, alpha, order)[: order + 1]
            return
        expansion = gf_expand(kind, alpha, order)
        for n in range(order + 1):
            assert expansion.coefficient(n) == poly(kind, n, alpha=alpha)

    @pytest.mark.parametrize(
        "kind,a,wrong",
        [
            (Family.LEGENDRE, 1, [3]),
            (Family.U, 2, [3]),
            (Family.V, 2, [3, 4]),
            (Family.W, 2, [3, 4]),
            (Family.T_GF, 2, [3, 5]),
        ],
        ids=["Legendre", "U", "V", "W", "T_gf"],
    )
    def test_perturbed_gegenbauer_rows_fail(self, kind, a, wrong, monkeypatch):
        # The oracle must not read the rows it checks: corrupt row 3 of the
        # Gegenbauer table behind a family (2 lambda = a) and the comparison
        # has to fail exactly at the rows the numerator's taps reach.
        table = (Family.LEGENDRE, 1) if a == 1 else (Family.U, a // 2)
        seeded = list(_rows(*table, 12)[:13])
        seeded[3] = seeded[3] + LaurentPoly.x_power(1)
        monkeypatch.setattr(families, "_cache", {table: seeded})
        rows = family_polys(FamilySpec(kind), 12)
        expansion = gf_expand(kind, 1, 12)
        assert [n for n in range(13) if expansion.coefficient(n) != rows[n]] == wrong


class TestWReflection:
    """W_m(x) = (-1)^m V_m(-x): (1+t)^alpha D(x,t)^(-alpha) is V's generating
    function at (-x, -t).  The row store builds W this way; the oracle does not."""

    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_w_rows_are_v_rows_reflected(self, alpha):
        v, w = _rows(Family.V, alpha, 40), _rows(Family.W, alpha, 40)
        for m in range(41):
            # p(-x) negates the odd-exponent coefficients; (-1)^m flips them all.
            v_at_minus_x = LaurentPoly({e: (-1) ** e * c for e, c in v[m].terms.items()})
            assert w[m] == (-1) ** m * v_at_minus_x, (alpha, m)
        assert family_polys(FamilySpec(Family.W, alpha), 40) == list(
            gf_expand("W", alpha, 40).coeffs
        )

    def test_oracle_guards_the_reflection(self, monkeypatch):
        # V's numerator 1 - t becomes 1 - 2t, with cold caches: W, built from
        # V's rows, must now disagree with the oracle's own (1 + t) filter.
        table = dict(families._TABLE)
        table[Family.V] = (-2, 0, 1, 1)
        monkeypatch.setattr(families, "_TABLE", table)
        monkeypatch.setattr(families, "_cache", {})
        rows = family_polys(FamilySpec(Family.W), 12)
        expansion = gf_expand(Family.W, 1, 12)
        assert [n for n in range(13) if expansion.coefficient(n) != rows[n]] == list(range(1, 13))


class TestTapList:
    """The q(t)^alpha taps are built once per (kind, alpha), and never for q = 1."""

    @pytest.fixture
    def binomial_calls(self, monkeypatch):
        calls = []

        def counted(n, k):
            calls.append((n, k))
            return math.comb(n, k)

        monkeypatch.setattr(families, "comb", counted)
        families._taps.cache_clear()
        monkeypatch.setattr(families, "_cache", {})
        return calls

    @pytest.mark.parametrize("kind", [Family.U, Family.LEGENDRE])
    def test_no_taps_for_a_numerator_of_one(self, kind, binomial_calls):
        for alpha in range(1, 5):
            for n in (0, 3, 10, 24, 48):
                _rows(kind, alpha, n)
        assert binomial_calls == []

    @pytest.mark.parametrize("kind", [Family.V, Family.T_GF])
    @pytest.mark.parametrize("alpha", range(1, 5))
    def test_taps_built_once_per_order(self, kind, alpha, binomial_calls):
        for n in (0, 1, 3, 10, 24, 48):
            assert len(_rows(kind, alpha, n)) == n + 1
        assert len(binomial_calls) <= alpha + 1


class TestStructure:
    def test_degree_equals_index(self):
        for kind in Family:
            for n in range(21):
                assert max(poly(kind, n).terms) == n

    def test_leading_coefficients(self):
        for n in range(1, 21):
            assert poly(Family.U, n).coefficient(n) == 2**n
            assert poly(Family.LEGENDRE, n).coefficient(n) == Fraction(
                math.comb(2 * n, n), 2**n
            )


def gegenbauer_over_rationals(lam: Fraction, n: int) -> list[LaurentPoly]:
    """C_0..C_n by m C_m = 2(m+lam-1) x C_{m-1} - (m+2lam-2) C_{m-2} over Fractions."""
    rows = [LaurentPoly.one()]
    for m in range(1, n + 1):
        acc = (2 * (m + lam - 1)) * shift(rows[m - 1], 1)
        if m >= 2:
            acc = acc - (m + 2 * lam - 2) * rows[m - 2]
        rows.append(acc / m)
    return rows


class TestIntegerGegenbauer:
    @pytest.mark.parametrize("alpha", range(1, 10))
    def test_scaled_legendre_rows(self, alpha):
        # Half-integer lambda = alpha/2 (odd alpha): the table holds 2^m p_m^(alpha).
        # The public rows divide it by 2^m, and a coefficient is a Fraction
        # only where the quotient is not integral.
        rows, s = _rows(Family.LEGENDRE, alpha, 48), _scale(Family.LEGENDRE, alpha)
        assert s == (2 if alpha % 2 else 1)
        reference = gegenbauer_over_rationals(Fraction(alpha, 2), 48)
        public = family_polys(FamilySpec(Family.LEGENDRE, alpha), 48)
        for m in range(49):
            assert rows[m] == s**m * reference[m], (alpha, m)
            assert all(type(c) is int for c in rows[m].terms.values()), (alpha, m)
            single = poly(Family.LEGENDRE, m, alpha)
            assert rows[m] == s**m * single == s**m * public[m]
            for c in [*single.terms.values(), *public[m].terms.values()]:
                assert type(c) is (int if c.denominator == 1 else Fraction), (alpha, m)

    def test_non_divisible_step_raises(self, monkeypatch):
        # 3 R_3 = 10 x R_2 - 8 R_1 on the lambda = 1/2 table; with R_2 off by
        # one, 3 no longer divides the x coefficient.  A floored quotient
        # would hand out a wrong Legendre row.
        x = LaurentPoly.x_power(1)
        bad_r2 = LaurentPoly({2: 6, 0: -1})
        monkeypatch.setattr(
            families, "_cache", {(Family.LEGENDRE, 1): [LaurentPoly.one(), 2 * x, bad_r2]}
        )
        with pytest.raises(ArithmeticError, match="not divisible by 3"):
            poly(Family.LEGENDRE, 3)

    def test_no_copy_when_the_numerator_is_one(self):
        # q(t) = 1: U^(alpha) and even-order Legendre rows are the table rows.
        table = _rows(Family.LEGENDRE, 4, 12)
        assert table is _rows(Family.U, 2, 12)
        u2 = family_polys(FamilySpec(Family.U, 2), 12)
        p4 = family_polys(FamilySpec(Family.LEGENDRE, 4), 12)
        assert all(a is b is c for a, b, c in zip(table, u2, p4))

    @pytest.mark.parametrize("legendre_first", [True, False])
    def test_even_legendre_is_u_at_half_the_order(self, legendre_first, monkeypatch):
        # lambda = k for Legendre at order 2k: U's list, whichever of the two
        # is asked for first, and the store keeps it under U's key alone.
        monkeypatch.setattr(families, "_cache", {})
        for k in (1, 2, 3):
            for n in (4, 12):
                first, second = (Family.LEGENDRE, 2 * k), (Family.U, k)
                if not legendre_first:
                    first, second = second, first
                assert _rows(*first, n) is _rows(*second, n), (k, n)
        assert sorted(families._cache) == [(Family.U, k) for k in (1, 2, 3)]

    @pytest.mark.parametrize("kind", list(Family))
    def test_rows_are_integer_and_scale_to_the_family(self, kind):
        # One integer row store: row m of _rows is s^m times the public row.
        for alpha in range(1, 5):
            rows, s = _rows(kind, alpha, 24), _scale(kind, alpha)
            assert s == (2 if kind is Family.LEGENDRE and alpha % 2 else 1)
            assert all(type(c) is int for row in rows[:25] for c in row.terms.values())
            if kind is Family.T_CLASSICAL and alpha > 1:
                continue  # no public rows; TestClassicalPowers checks these
            spec = FamilySpec(kind, alpha)
            expected = [rows[m] / s**m for m in range(25)]
            assert [family_poly(spec, m) for m in range(25)] == expected
            assert family_polys(spec, 24) == expected

    def test_concurrent_readers_and_writers(self, monkeypatch):
        # No lock: a writer replaces a kept list by a longer one and never
        # extends it, so a racing writer may store a shorter list after a
        # longer one, but every list it stores is complete.  A row built twice
        # into one list or lost would shift every later row.
        n_max = 40
        keys = [(kind, alpha) for kind in Family for alpha in (1, 2, 3)]
        expected = {key: list(_rows(*key, n_max)[: n_max + 1]) for key in keys}
        monkeypatch.setattr(families, "_cache", {})

        def read_all(offset):
            for i in range(len(keys)):
                key = keys[(i + offset) % len(keys)]
                for n in range(n_max + 1):
                    assert _rows(*key, n)[n] == expected[key][n], (key, n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(read_all, offset) for offset in range(6)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert_kept_lists_are_complete(expected, n_max)

    def test_concurrent_writers_asking_for_w_before_v(self, monkeypatch):
        # W's rows are V's reflected, fetched before W's rows are built.  Every
        # thread asks for W first, so W's extension and V's race from the start.
        n_max = 40
        keys = [(kind, alpha) for alpha in (1, 2, 3) for kind in (Family.W, Family.V)]
        expected = {key: list(_rows(*key, n_max)[: n_max + 1]) for key in keys}
        monkeypatch.setattr(families, "_cache", {})

        def read_all():
            for key in keys:
                for n in range(n_max + 1):
                    assert _rows(*key, n)[n] == expected[key][n], (key, n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(read_all) for _ in range(6)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        # V filters U's rows at the same order, so U's lists are kept too.
        assert sorted(families._cache) == sorted(keys + [(Family.U, a) for a in (1, 2, 3)])
        expected.update({(Family.U, a): _rows(Family.U, a, n_max)[: n_max + 1] for a in (1, 2, 3)})
        assert_kept_lists_are_complete(expected, n_max)


def assert_kept_lists_are_complete(expected, n_max):
    """Each kept list equals the expected rows up to its own length, and one
    serial read after the threads returns all n_max + 1 of them."""
    for key, table in families._cache.items():
        assert 0 < len(table) <= n_max + 1 and table == expected[key][: len(table)], key
    for key, rows in expected.items():
        assert _rows(*key, n_max)[: n_max + 1] == rows, key


class TestExplicitT:
    def test_small_values(self):
        assert explicit_T(0) == LaurentPoly.one()
        assert explicit_T(1) == LaurentPoly.x_power(1)
        assert explicit_T(2) == LaurentPoly({2: 2, 0: -1})

    def test_matches_recurrence(self):
        for n in range(49):
            assert explicit_T(n) == poly(Family.T_CLASSICAL, n)


class TestOdeResidual:
    @pytest.mark.parametrize("kind", [Family.T_CLASSICAL, Family.U])
    def test_zero_residual(self, kind):
        for n in range(33):
            assert ode_residual(kind, n).is_zero()

    def test_constant_case(self):
        assert ode_residual(Family.T_CLASSICAL, 0).is_zero()

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            ode_residual(Family.V, 3)
