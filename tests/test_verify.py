import hashlib
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, strategies as st

from chebident import families, verify
from chebident.families import Family, FamilySpec, family_poly, family_polys
from chebident.laurent import LaurentPoly
from chebident.triangle import Triangle, triangle_recurrence, verify_defining_relation
from chebident.verify import (
    _convolution,
    _legendre_selfconv,
    _rhs,
    _unfilter,
    IdentityId,
    run_suite,
    suite_cells,
    verify_U_from_Legendre,
    verify_cor3,
    verify_cor4_reconstructed,
    verify_intro_U_from_T,
    verify_thm2,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)

from _oracles import falling_factorial, shift

ALL_IDS = list(IdentityId)


def _prefactor(N: int) -> Fraction:
    """thm2's 1/(2^N N!); the side builders carry it as the denominator d."""
    return Fraction(1, 2**N * math.factorial(N))


@lru_cache(maxsize=None)
def compositions3(n: int) -> tuple:
    """All ordered triples (m, s, p) of nonnegative integers with m+s+p = n."""
    return tuple(
        (m, s, n - m - s) for m in range(n + 1) for s in range(n - m + 1)
    )


class TestCompositions:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 40])
    def test_count_and_uniqueness(self, n):
        triples = compositions3(n)
        assert len(triples) == math.comb(n + 2, 2)
        assert len(set(triples)) == len(triples)
        assert all(m + s + p == n and min(m, s, p) >= 0 for m, s, p in triples)


class TestIntroIdentity:
    def test_n0(self):
        assert verify_intro_U_from_T(0).passed

    def test_n1_by_hand(self):
        # 2 U_1 = T~_0 U_1 + T~_1 U_0 = 2x + 2x
        entry = verify_intro_U_from_T(1)
        assert entry.passed and entry.residual.is_zero()

    def test_n16(self):
        assert verify_intro_U_from_T(16).passed

    def test_metadata(self):
        entry = verify_intro_U_from_T(3)
        assert entry.identity == "intro_U_from_T"
        assert (entry.n, entry.N) == (3, 0)
        assert entry.rhs_polynomial is None


class TestLegendreConvolution:
    def test_n2_alpha1_by_hand(self):
        # U_2 = 2 p_0 p_2 + p_1^2 = (3x^2 - 1) + x^2 = 4x^2 - 1
        p = [family_poly(FamilySpec(Family.LEGENDRE), k) for k in range(3)]
        rhs = 2 * (p[0] * p[2]) + p[1] * p[1]
        assert rhs == LaurentPoly({2: 4, 0: -1})
        assert verify_U_from_Legendre(2, 1).passed

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_n0_any_alpha(self, alpha):
        assert verify_U_from_Legendre(0, alpha).passed

    def test_n12_alpha3(self):
        assert verify_U_from_Legendre(12, 3).passed

    def test_identity_label_tracks_alpha(self):
        assert verify_U_from_Legendre(2, 1).identity == "U_from_Legendre"
        assert verify_U_from_Legendre(2, 2).identity == "Ualpha_from_Legendre"

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            verify_U_from_Legendre(2, 0)


class TestThm2:
    def test_n0_N1_rhs_by_hand(self):
        # RHS = (1/2) C(0,0) U_1 x^{-1} (1)_1 = (1/2)(2x)/x = 1 = U_0^(2)
        entry = verify_thm2(0, 1)
        assert entry.passed and entry.rhs_polynomial

    def test_n1_N1_lhs_value(self):
        assert family_poly(FamilySpec(Family.U, 2), 1) == LaurentPoly({1: 4})
        assert verify_thm2(1, 1).passed

    def test_n12_N5(self):
        assert verify_thm2(12, 5).passed

    def test_agrees_with_cor3(self):
        for N in range(1, 4):
            for n in range(9):
                assert verify_thm2(n, N).passed == verify_cor3(n, N).passed


class TestCorollaries:
    @pytest.mark.parametrize("n,N", [(0, 1), (4, 2), (10, 4)])
    def test_cor3(self, n, N):
        entry = verify_cor3(n, N)
        assert entry.passed and entry.rhs_polynomial

    @pytest.mark.parametrize("n,N", [(0, 1), (3, 2), (8, 3)])
    def test_cor4_reconstructed(self, n, N):
        entry = verify_cor4_reconstructed(n, N)
        assert entry.passed and entry.rhs_polynomial
        assert entry.identity == "cor4_reconstructed"


class TestThm5:
    def test_n0_N1_by_hand(self):
        # RHS = (1/2) x^{-1} (V_0 + V_1) = (1/2) x^{-1} (2x) = 1 = LHS
        entry = verify_thm5(0, 1)
        assert entry.passed and entry.rhs_polynomial

    @pytest.mark.parametrize("n,N", [(2, 2), (10, 4)])
    def test_grid_cells(self, n, N):
        assert verify_thm5(n, N).passed


class TestThm6:
    def test_n0_N1_by_hand(self):
        # RHS = (1/2) x^{-1} (W_1 - W_0) = (1/2) x^{-1} (2x) = 1 = W_0^(2)
        entry = verify_thm6(0, 1)
        assert entry.passed and entry.rhs_polynomial

    @pytest.mark.parametrize("n,N", [(1, 1), (10, 4)])
    def test_grid_cells(self, n, N):
        assert verify_thm6(n, N).passed


class TestThm7:
    def test_n0_N1_by_hand(self):
        # single composition (0,0,0): LHS = 4 T~_0^(2) = 4, RHS sums to 4
        entry = verify_thm7(0, 1)
        assert entry.passed and entry.rhs_polynomial

    @pytest.mark.parametrize("n,N", [(4, 2), (8, 3)])
    def test_grid_cells(self, n, N):
        assert verify_thm7(n, N).passed

    def test_classical_normalization_fails(self):
        # swapping in the classical T_n breaks the identity for some n >= 1
        failures = [
            (n, N)
            for N in range(1, 3)
            for n in range(5)
            if not verify_thm7(n, N, first_kind="classical").passed
        ]
        assert any(n >= 1 for n, _ in failures)

    def test_classical_residual_has_negative_powers(self):
        entry = verify_thm7(1, 1, first_kind="classical")
        assert not entry.passed
        assert entry.rhs_polynomial is False
        assert entry.residual == LaurentPoly({-1: -2})

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            verify_thm7(1, 1, first_kind="both")


# -- the replaced right-hand sides, kept as references --------------------------
#
# The per-term loops are what the scalar-first assembly replaced: one
# polynomial update per term, with no grouping of the integer weights.
# triple_sum_grouped is the grouped (i, l, m, s, p) loop that the
# Vandermonde collapse into _rhs over q(t)^(-1)-filtered rows replaced.


def thm2_rhs_per_term(n, N, base):
    row = triangle_recurrence(N).row(N)
    total = LaurentPoly.zero()
    for i in range(1, N + 1):
        ai = row[i - 1]
        for l in range(n + 1):
            c = ai * math.comb(2 * N + n - l - i - 1, n - l) * falling_factorial(l + i, i)
            if c:
                total = total + c * shift(base[l + i], i + l - 2 * N - n)
    return _prefactor(N) * total


def triple_sum_per_term(n, N, base, inner_sign, outer_sign):
    row = triangle_recurrence(N).row(N)
    total = LaurentPoly.zero()
    for i in range(1, N + 1):
        ai = row[i - 1]
        for l in range(i + 1):
            pref = ai * (math.factorial(i) // math.factorial(l))
            if outer_sign and (i - l) % 2:
                pref = -pref
            for m, s, p in compositions3(n):
                c = pref * math.comb(2 * N + m - i - 1, m) * math.comb(i - l + s, s)
                c *= falling_factorial(p + l, l)
                if inner_sign and s % 2:
                    c = -c
                if c:
                    total = total + c * shift(base[p + l], i - 2 * N - m)
    return total


def triple_sum_grouped(n, N, base, even, odd):
    row = triangle_recurrence(N).row(N)
    triples = compositions3(n)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1]
        outer = [math.comb(2 * N + m - i - 1, m) for m in range(n + 1)]
        for l in range(i + 1):
            pref = ai * (math.factorial(i) // math.factorial(l))
            inner = [
                (odd if (i - l + s) % 2 else even) * math.comb(i - l + s, s)
                for s in range(n + 1)
            ]
            fall = [falling_factorial(p + l, l) for p in range(n + 1)]
            for m, s, p in triples:
                if inner[s]:
                    key = (p + l, i - 2 * N - m)
                    coef[key] = coef.get(key, 0) + pref * outer[m] * inner[s] * fall[p]
    return LaurentPoly.combination((c, e, base[k]) for (k, e), c in coef.items())


def thm7_lhs_weights_by_compositions(n, N):
    weights: dict = {}
    for s, m, p in compositions3(n):
        weights[p] = weights.get(p, 0) + (-1) ** m * math.comb(N + s, s) * math.comb(m + N, m)
    return {p: c for p, c in weights.items() if c}


def unfiltered(base, c, lag, top):
    """Rows 0..top of (1 + c t^lag)^(-1) base by `_unfilter`, which reads
    ``base`` as the order-1 rows of a stand-in kind, from an empty store."""
    rows = verify._rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_rows", lambda kind, *a: base if kind == "base" else rows(kind, *a))
        mp.setattr(verify, "_unfiltered", {})
        return _unfilter("base", 1, c, lag, top)


def collapsed_triple_sum(n, N, base, even, odd):
    return sum(
        (w * _rhs(n, N, unfiltered(base, c, lag, n + N)) for w, c, lag in UNFILTERS[even, odd]),
        LaurentPoly.zero(),
    )


# Row lists 0..ROWS of the bases that _rhs and _unfilter take.
ROWS = 40
BASES = {
    kind.value: family_polys(FamilySpec(kind), ROWS)
    for kind in (Family.U, Family.V, Family.W, Family.T_GF)
}
BASES["Legendre_selfconv"] = [_legendre_selfconv(k) for k in range(ROWS + 1)]

# The per-term sign flags (inner_sign, outer_sign) summed in the reference,
# mapped to the (even, odd) weights that the parity of i-l+s gives a term:
# thm5, thm7's plain plus sign-alternating halves, a general weight pair
# with neither weight zero nor the two equal up to sign, and thm6.
TRIPLE_SUM_WEIGHTS = {
    ((False, False),): (1, 1),
    ((False, False), (True, True)): (2, 0),
    ((False, False), (False, False), (True, True)): (3, 1),
    ((True, True),): (1, -1),
}

# (even, odd) -> (w, c, lag) terms whose sum of w (1 + c t^lag)^(-1) weights
# row k-j by ``even`` for even j and by ``odd`` for odd j: (1 -/+ t)^(-1)
# for (1, +/-1), (1 - t^2)^(-1) for (1, 0), and, _rhs being linear,
# (3, 1) = (1, 1) + 2 (1, 0).
UNFILTERS = {
    (1, 1): ((1, -1, 1),),
    (1, -1): ((1, 1, 1),),
    (2, 0): ((2, -1, 2),),
    (3, 1): ((1, -1, 1), (2, -1, 2)),
}


class TestScalarFirstAssembly:
    @pytest.mark.parametrize("base", list(BASES.values()), ids=list(BASES))
    def test_thm2_rhs_matches_per_term(self, base):
        for N in range(1, 4):
            for n in range(7):
                assert _prefactor(N) * _rhs(n, N, base) == thm2_rhs_per_term(n, N, base)

    @pytest.mark.parametrize("signs", list(TRIPLE_SUM_WEIGHTS))
    @pytest.mark.parametrize("base", list(BASES.values()), ids=list(BASES))
    def test_triple_sum_matches_per_term(self, base, signs):
        even, odd = TRIPLE_SUM_WEIGHTS[signs]
        for N in range(1, 4):
            for n in range(7):
                expected = sum(
                    (triple_sum_per_term(n, N, base, *flags) for flags in signs),
                    LaurentPoly.zero(),
                )
                assert collapsed_triple_sum(n, N, base, even, odd) == expected


class TestVandermondeCollapse:
    @pytest.mark.parametrize("weights", list(TRIPLE_SUM_WEIGHTS.values()))
    @pytest.mark.parametrize("base", list(BASES.values()), ids=list(BASES))
    def test_matches_grouped_triple_sum(self, base, weights):
        for N in range(1, 7):
            for n in range(17):
                assert collapsed_triple_sum(n, N, base, *weights) == triple_sum_grouped(
                    n, N, base, *weights
                )

    def test_thm7_lhs_weights(self):
        # (1-t)^(-N-1) (1+t)^(-N-1) = (1-t^2)^(-N-1)
        for N in range(1, 9):
            for n in range(33):
                collapsed = {n - 2 * j: math.comb(N + j, N) for j in range(n // 2 + 1)}
                assert thm7_lhs_weights_by_compositions(n, N) == collapsed

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    @pytest.mark.parametrize(
        "identity,first_kind,kind,c,lag",
        [
            pytest.param(IdentityId.THM5, None, Family.V, -1, 1, id="V-1"),
            pytest.param(IdentityId.THM6, None, Family.W, 1, 1, id="W--1"),
            pytest.param(IdentityId.THM7, "gf", Family.T_GF, -1, 2, id="T_gf"),
            pytest.param(
                IdentityId.THM7, "classical", Family.T_CLASSICAL, -1, 2, id="T_classical"
            ),
        ],
    )
    def test_thm5_6_kept_lhs_matches_binomial_sum(
        self, monkeypatch, identity, first_kind, kind, c, lag, descending
    ):
        # The recurrence-built left side of thm5, thm6 and thm7 against the
        # direct sum over q(t)^(-N-1)'s coefficients, q = 1 + c t^lag:
        # sum_j C(N+j, N) (-c)^j G_{n - j lag}, from cold stores.  In
        # descending n the first cell builds every row and the rest read them.
        _cold_caches(monkeypatch)
        sides = verify._CATALOG[identity].sides
        extra = {} if first_kind is None else {"first_kind": first_kind}
        for N in range(1, 7):
            # thm7 keeps its prefactor 2^(N+1) N! on the left.
            d = 2**N * math.factorial(N) * (2 if first_kind else 1)
            higher = verify._rows(kind, N + 1, 24)
            for n in sorted(range(25), reverse=descending):
                expected = LaurentPoly.combination(
                    (d * math.comb(N + j, N) * (-c) ** j, 0, higher[n - j * lag])
                    for j in range(n // lag + 1)
                )
                assert sides(n=n, N=N, **extra)[0] == expected, (N, n)
                if descending:
                    kept = verify._unfiltered[kind, N + 1, c, lag]
                    assert len(kept) == 25 and _unfilter(kind, N + 1, c, lag, n) is kept

    @pytest.mark.parametrize("kind", [Family.T_GF, Family.T_CLASSICAL])
    def test_thm7_lhs_matches_compositions(self, kind):
        first_kind = "gf" if kind is Family.T_GF else "classical"
        sides = verify._CATALOG[IdentityId.THM7].sides
        for N in range(1, 4):
            for n in range(9):
                expected = LaurentPoly.combination(
                    (2 ** (N + 1) * math.factorial(N) * c, 0, verify._rows(kind, N + 1, p)[p])
                    for p, c in thm7_lhs_weights_by_compositions(n, N).items()
                )
                assert sides(n=n, N=N, first_kind=first_kind)[0] == expected

    @pytest.mark.parametrize(
        "changed",
        [
            {
                IdentityId.THM5: partial(verify._sides_thm5_6, Family.V, 1, 1),
                IdentityId.THM6: partial(verify._sides_thm5_6, Family.W, -1, 1),
            },
            {IdentityId.THM7: partial(verify._sides_thm7, -1, 1)},
        ],
        ids=["thm5-thm6-c-swapped", "thm7-lag-1"],
    )
    def test_q_is_load_bearing(self, monkeypatch, changed):
        # The catalog's q(t) = 1 + c t^lag for each identity: a wrong c or
        # lag fails a cell of every identity it touches.
        _cold_caches(monkeypatch)
        for identity, sides in changed.items():
            row = verify._CATALOG[identity]
            monkeypatch.setitem(verify._CATALOG, identity, row._replace(sides=sides))
        report = run_suite([IdentityId.THM5, IdentityId.THM6, IdentityId.THM7], 8, 3)
        failed = {e.identity for e in report.entries if not e.passed}
        assert failed >= {identity.value for identity in changed}

    def test_filter_taps_are_not_the_unfilter_taps(self, monkeypatch):
        # families._taps with C(alpha, 1) raised by one: V's and T~'s rows
        # are built with it, and W's are V's reflected.  `_unfilter` builds
        # q(t)^alpha's coefficients itself: were they read from
        # `families._taps`, filter and inverse would cancel the mutant and
        # every cell below would pass.
        _cold_caches(monkeypatch)
        monkeypatch.setattr(families, "comb", lambda n, k: math.comb(n, k) + (k == 1))
        families._taps.cache_clear()
        try:
            report = run_suite([IdentityId.THM5, IdentityId.THM6, IdentityId.THM7], 16, 6)
        finally:
            families._taps.cache_clear()
        failed = Counter(e.identity for e in report.entries if not e.passed)
        # thm7's (N, n) = (1, 0) reads T~ rows 0 and 1 only, which q = 1 - t^2
        # leaves alone, so that one cell passes.
        assert failed == {"thm5": 102, "thm6": 102, "thm7": 101}

    def test_perturbed_triangle_fails(self, monkeypatch):
        rows = triangle_recurrence(3).rows
        bad = Triangle(rows[:1] + ((rows[1][0] + 1, rows[1][1]),) + rows[2:])
        monkeypatch.setattr(verify, "triangle_recurrence", lambda N: bad)
        for check in (verify_thm2, verify_thm5, verify_thm6, verify_thm7):
            assert check(3, 3).passed
            assert not check(3, 2).passed, check.__name__


def _cold_caches(monkeypatch) -> None:
    """Empty, for this test only, every store of rows and sums the cells read."""
    for module, store in (
        (families, "_cache"),
        (verify, "_prefix"),
        (verify, "_thm2_sums"),
        (verify, "_unfiltered"),
    ):
        monkeypatch.setattr(module, store, {})
    verify._legendre_convolution.cache_clear()


def convolution_reference(f, g, n):
    """sum_l f[l] g[n-l], one LaurentPoly product and sum per term."""
    total = LaurentPoly.zero()
    for l in range(n + 1):
        total = total + f[l] * g[n - l]
    return total


# Row lists 0..24: U, T~ and Legendre as integer rows (order 1 and 3) and
# as the public rational Legendre rows.
CONVOLUTION_ROWS = {
    "U": verify._rows(Family.U, 1, 24)[:25],
    "T_gf": verify._rows(Family.T_GF, 1, 24)[:25],
    "Legendre": verify._rows(Family.LEGENDRE, 1, 24)[:25],
    "Legendre3": verify._rows(Family.LEGENDRE, 3, 24)[:25],
    "Legendre_public": family_polys(FamilySpec(Family.LEGENDRE), 24),
}


class TestConvolution:
    @pytest.mark.parametrize("name", list(CONVOLUTION_ROWS))
    def test_self_convolution_matches_reference(self, name):
        f = CONVOLUTION_ROWS[name]
        for n in range(25):
            assert _convolution(f, f, n) == convolution_reference(f, f, n), n

    @pytest.mark.parametrize(
        "pair", [("T_gf", "U"), ("U", "Legendre"), ("Legendre_public", "Legendre3")]
    )
    def test_convolution_of_two_lists_matches_reference(self, pair):
        f, g = (CONVOLUTION_ROWS[name] for name in pair)
        for n in range(25):
            assert _convolution(f, g, n) == convolution_reference(f, g, n), n

    def test_cancelling_sum_is_the_zero_polynomial(self):
        x = LaurentPoly.x_power(1)
        one = LaurentPoly.one()
        # f0 g1 + f1 g0 = -x^2 + x^2.
        f, g = [x, x], [x, -x]
        # Self-convolutions: at n = 3 the cross products cancel (-1 + 1), at
        # n = 2 twice the cross product cancels the middle square (-4x^2 + 4x^2).
        h = [one, one, one, -one]
        k = [2 * one, 2 * x, -(x * x)]
        for result in (_convolution(f, g, 1), _convolution(h, h, 3), _convolution(k, k, 2)):
            assert result == LaurentPoly.zero()
            assert result.terms == {}


class TestSharedRightSide:
    # The paper's (1 -/+ t)^(-1) G = F for V and W, (1 - t^2)^(-1) G_T~ = F
    # and sum_j p_j p_{k-j} = U_k: the bases of cor4, thm5, thm6 and thm7
    # equal U's row for row, so their right-hand sums are thm2's.
    def test_bases_equal_U_row_for_row(self):
        U = BASES["U"]
        assert BASES["Legendre_selfconv"] == U
        for kind, c, lag in ((Family.V, -1, 1), (Family.W, 1, 1), (Family.T_GF, -1, 2)):
            assert _unfilter(kind, 1, c, lag, ROWS)[: ROWS + 1] == U, kind
        assert _unfilter(Family.T_CLASSICAL, 1, -1, 2, ROWS)[: ROWS + 1] != U

    @pytest.mark.parametrize("alpha", range(1, 6))
    def test_unfiltered_rows_are_U_rows(self, monkeypatch, alpha):
        # q(t)^(-alpha) (q(t)^alpha F^alpha) = F^alpha, F = 1/D, on the
        # code's own rows.  W's rows are V's reflected, not filtered by
        # 1 + t, so this checks them by a second route.  Classical T's
        # numerator is 1 - xt, so 1 - t^2 does not undo it: row 1 differs.
        _cold_caches(monkeypatch)
        U = verify._rows(Family.U, alpha, 24)[:25]
        for kind, c, lag in ((Family.V, -1, 1), (Family.W, 1, 1), (Family.T_GF, -1, 2)):
            assert _unfilter(kind, alpha, c, lag, 24)[:25] == U, kind
        classical = _unfilter(Family.T_CLASSICAL, alpha, -1, 2, 24)
        assert classical[0] == U[0] and classical[1] != U[1]

    def test_thm2_sum_built_once_per_cell(self, monkeypatch):
        # Every assembly of a right-hand sum reads its weight table once.
        _cold_caches(monkeypatch)
        builds: dict = {}
        weights = verify._rhs_weights

        def counting(n, row):
            builds[n, len(row)] = builds.get((n, len(row)), 0) + 1
            return weights(n, row)

        monkeypatch.setattr(verify, "_rhs_weights", counting)
        assert run_suite(ALL_IDS, 8, 3).all_passed
        assert builds == {(n, N): 1 for n in range(9) for N in range(1, 4)}

    def test_perturbed_row_falls_back_to_own_rows(self, monkeypatch):
        # V_3 + 1 in place of V_3: the V sums differ from U's from row 3 on,
        # so a cell reading row 3 sums its own rows and fails with their
        # residual, and a cell reading only rows 0..2 still shares and passes
        # (run last, once the differing row is on record).
        _cold_caches(monkeypatch)
        rows, bad, N = verify._rows, 3, 2

        def perturbed(kind, alpha, top):
            got = rows(kind, alpha, top)
            if (kind, alpha) != (Family.V, 1):
                return got
            return got[:bad] + [got[bad] + LaurentPoly.one()] + got[bad + 1 :]

        monkeypatch.setattr(verify, "_rows", perturbed)
        V = perturbed(Family.V, 1, ROWS)
        for n in reversed(range(6)):
            own = triple_sum_grouped(n, N, V, 1, 1)
            true = triple_sum_grouped(n, N, BASES["V"], 1, 1)
            entry = verify_thm5(n, N)
            assert entry.passed == (n + N < bad), n
            assert entry.residual == _prefactor(N) * (true - own), n
        assert verify_thm6(4, N).passed

    @pytest.mark.parametrize(
        "key", [(Family.V, -1, 1), (Family.W, 1, 1), (Family.T_GF, -1, 2), Family.LEGENDRE]
    )
    def test_rows_inside_the_equal_prefix_are_read_without_the_lock(self, monkeypatch, key):
        # No lock guards the rows: a read inside the prefix returns U's list
        # and builds no row of its own.
        _cold_caches(monkeypatch)
        U = verify._rows(Family.U, 1, 12)
        assert verify._rows_or_U(key, 12) is U

        def no_build(*args):
            raise AssertionError("a row was built inside the equal prefix")

        monkeypatch.setattr(verify, "_unfilter", no_build)
        monkeypatch.setattr(verify, "_legendre_selfconv", no_build)
        for top in range(13):
            assert verify._rows_or_U(key, top) is U, top

    def test_prefix_stops_at_the_first_differing_row(self, monkeypatch):
        # Classical T's rows under (1 - t^2)^(-1) are U's at row 0 only:
        # H_1 = x, U_1 = 2x.
        _cold_caches(monkeypatch)
        key = (Family.T_CLASSICAL, -1, 2)
        U = verify._rows(Family.U, 1, 8)
        own = verify._rows_or_U(key, 8)
        assert own is not U and own is _unfilter(Family.T_CLASSICAL, 1, -1, 2, 8)
        assert own[1] == LaurentPoly.x_power(1)
        assert verify._prefix[key] == 1
        assert verify._rows_or_U(key, 0) is U
        longer = verify._rows_or_U(key, 12)
        assert longer is not U and len(longer) == 13 and longer[:9] == own
        assert longer is _unfilter(Family.T_CLASSICAL, 1, -1, 2, 12)
        assert verify._prefix[key] == 1

    def test_differing_base_keeps_its_own_rows(self, monkeypatch):
        # Classical T's rows are kept once built: a shorter read builds
        # nothing, and a longer one stores a longer list in place of the
        # kept one, which stays as it was.
        _cold_caches(monkeypatch)
        key, stored = (Family.T_CLASSICAL, -1, 2), (Family.T_CLASSICAL, 1, -1, 2)
        own = verify._rows_or_U(key, 8)
        assert verify._unfiltered[stored] is own and len(own) == 9
        extended = verify._extended

        def no_build(*args):
            raise AssertionError("a kept row was built again")

        monkeypatch.setattr(verify, "_extended", no_build)
        for top in range(1, 9):
            assert verify._rows_or_U(key, top) is own, top
        monkeypatch.setattr(verify, "_extended", extended)
        longer = verify._rows_or_U(key, 12)
        assert verify._unfiltered[stored] is longer and len(longer) == 13 and len(own) == 9
        assert longer[:9] == own
        # A base equal to U's hands out U's own list.
        for equal in (Family.LEGENDRE, (Family.V, -1, 1)):
            assert verify._rows_or_U(equal, 12) is verify._rows(Family.U, 1, 12)

    def test_threads_with_cold_caches_match_serial(self, monkeypatch):
        kinds = ("gf", "classical")
        serial = {k: run_suite(ALL_IDS, 10, 4, first_kind=k).render("json") for k in kinds}
        _cold_caches(monkeypatch)

        def run(i):
            return run_suite(ALL_IDS, 10, 4, first_kind=kinds[i % 2]).render("json")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(run, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[kinds[i % 2]] for i in range(6)]


class TestKeptLists:
    @pytest.mark.parametrize("store", ["families._rows", "_unfilter", "_rows_or_U"])
    def test_a_list_handed_out_never_grows(self, monkeypatch, store):
        # A store replaces a kept list by a longer one: a list it handed out
        # keeps its length and its rows, and the longer one starts with the
        # same row objects.
        _cold_caches(monkeypatch)
        fetch = {
            "families._rows": lambda top: verify._rows(Family.U, 3, top),
            "_unfilter": lambda top: _unfilter(Family.V, 3, -1, 1, top),
            "_rows_or_U": lambda top: verify._rows_or_U((Family.T_CLASSICAL, -1, 2), top),
        }[store]
        held = fetch(5)
        rows = list(held)
        longer = fetch(12)
        assert len(held) == len(rows) >= 6 and all(a is b for a, b in zip(held, rows))
        assert len(longer) > 12 and all(a is b for a, b in zip(longer, held))


class TestIntegerSides:
    @pytest.mark.parametrize("first_kind", ["gf", "classical"])
    def test_sides_are_fraction_free(self, monkeypatch, first_kind):
        # Every side handed to the comparison has int coefficients; the
        # rationals live in the one denominator d.  The defining relation
        # is a catalog row too, with d = 1.
        built = []

        def recording(sides):
            def wrapper(*args, **kwargs):
                built.append(sides(*args, **kwargs))
                return built[-1]

            return wrapper

        for identity, row in verify._CATALOG.items():
            wrapped = row._replace(sides=recording(row.sides))
            monkeypatch.setitem(verify._CATALOG, identity, wrapped)
        report = run_suite(ALL_IDS, 8, 4, first_kind=first_kind)
        assert len(built) == len(report.entries)
        for N in range(1, 5):
            assert verify_defining_relation(N, 3 * N).passed
        assert [d for _, _, d in built[len(report.entries) :]] == [1] * 4
        for lhs, rhs, d in built:
            assert type(d) is int and d > 0
            for side in (lhs, rhs):
                assert all(type(c) is int for c in side.terms.values())

    # sha256 of the report with the triangle's row N = 2 perturbed, recorded
    # while both sides were still assembled over rationals: (L' - R')/d must
    # reproduce every failing residual byte for byte.
    PERTURBED_IDS = [
        IdentityId.THM2,
        IdentityId.COR3,
        IdentityId.COR4_RECONSTRUCTED,
        IdentityId.THM5,
        IdentityId.THM6,
    ]
    PERTURBED_DIGEST = "d984629bb1cdbbc996671ba121baa0b1eca6314ec6e69e0449b8c33c6259f738"

    def test_perturbed_triangle_residuals(self, monkeypatch):
        rows = triangle_recurrence(3).rows
        bad = Triangle(rows[:1] + ((rows[1][0] + 1, rows[1][1]),) + rows[2:])
        monkeypatch.setattr(verify, "triangle_recurrence", lambda N: bad)
        report = run_suite(self.PERTURBED_IDS, 4, 3)
        assert [e.passed for e in report.entries] == [e.N != 2 for e in report.entries]
        digest = hashlib.sha256(report.render("json").encode()).hexdigest()
        assert digest == self.PERTURBED_DIGEST


# The 20 points a former random sampler checked by default: a residual
# vanishing there but nowhere else passed a sampled comparison.
FORMER_SAMPLE_POINTS = [
    Fraction(10, 7), Fraction(-13, 7), Fraction(6, 5), Fraction(9, 8), Fraction(1),
    Fraction(2), Fraction(-2, 3), Fraction(-1), Fraction(-7, 5), Fraction(-5, 3),
    Fraction(-1, 11), Fraction(-5, 4), Fraction(1, 6), Fraction(7, 6), Fraction(-9, 11),
    Fraction(4, 3), Fraction(-2), Fraction(1, 12), Fraction(3, 2), Fraction(11, 10),
]


def _vanishing_at(roots) -> LaurentPoly:
    """prod (x - r) over ``roots``."""
    P = LaurentPoly.one()
    for r in roots:
        P = P * (LaurentPoly.x_power(1) - LaurentPoly({0: r}))
    return P


def _set_thm2_residual(monkeypatch, residual: LaurentPoly) -> None:
    """Give thm2 the sides (residual, 0) over the denominator 1."""
    row = verify._CATALOG[IdentityId.THM2]
    sides = lambda n, N: (residual, LaurentPoly.zero(), 1)  # noqa: E731
    monkeypatch.setitem(verify._CATALOG, IdentityId.THM2, row._replace(sides=sides))


class TestExactVerdict:
    def test_nonzero_residual_with_many_roots_fails(self, monkeypatch):
        # P has degree 20 and vanishes at 20 rationals; the verdict must still
        # see that P != 0 and report P itself as the residual.
        P = _vanishing_at(FORMER_SAMPLE_POINTS)
        assert max(P.terms) == 20
        _set_thm2_residual(monkeypatch, P)
        entry = verify_thm2(1, 1)
        assert not entry.passed
        assert entry.residual == P

    def test_failing_cell_cannot_pass_vacuously(self):
        assert not verify_thm7(3, 2, first_kind="classical").passed


class TestIndexValidation:
    # An empty sum would otherwise certify as PASS.
    @pytest.mark.parametrize(
        "check,args,name",
        [
            (verify_intro_U_from_T, (-1,), "n"),
            (verify_U_from_Legendre, (-1, 1), "n"),
            (verify_U_from_Legendre, (2, 0), "alpha"),
        ]
        + [
            (check, args, name)
            for check in (
                verify_thm2,
                verify_cor3,
                verify_cor4_reconstructed,
                verify_thm5,
                verify_thm6,
                verify_thm7,
            )
            for args, name in (((-1, 2), "n"), ((3, 0), "N"))
        ],
    )
    def test_rejects_bad_index(self, check, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= "):
            check(*args)

    # Each entry point with the names of its index arguments, in order.
    ENTRY_POINTS = [
        (verify_intro_U_from_T, ("n",)),
        (verify_U_from_Legendre, ("n", "alpha")),
        (verify_defining_relation, ("N", "order")),
    ] + [
        (check, ("n", "N"))
        for check in (
            verify_thm2,
            verify_cor3,
            verify_cor4_reconstructed,
            verify_thm5,
            verify_thm6,
            verify_thm7,
        )
    ]

    @given(
        entry=st.sampled_from(ENTRY_POINTS),
        position=st.integers(0, 1),
        bad=st.one_of(
            st.integers(max_value=-1),
            st.booleans(),
            st.floats(allow_nan=False),
            st.fractions(),
            st.text(max_size=2),
            st.none(),
        ),
    )
    def test_bad_index_raises_before_any_work(self, entry, position, bad):
        check, names = entry
        position = min(position, len(names) - 1)
        args = [2] * len(names)
        args[position] = bad
        expected = ValueError if type(bad) is int else TypeError
        # A side builder that runs at all means validation came too late.
        catalog = {
            identity: row._replace(sides=_no_work) for identity, row in verify._CATALOG.items()
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_CATALOG", catalog)
            with pytest.raises(expected, match=rf"^{names[position]} must be "):
                check(*args)


class Index(int):
    """An int subclass: a valid index, though not of type int itself."""


class TestIntSubclassIndices:
    VALUES = {"n": 3, "N": 2, "alpha": 2, "order": 6}

    @pytest.mark.parametrize(
        "check,names",
        TestIndexValidation.ENTRY_POINTS,
        ids=[check.__name__ for check, _ in TestIndexValidation.ENTRY_POINTS],
    )
    def test_entry_points_accept_int_subclass(self, check, names):
        plain = [self.VALUES[name] for name in names]
        expected = check(*plain)._replace(elapsed_ms=0.0)
        for position in range(len(names)):
            args = list(plain)
            args[position] = Index(args[position])
            assert check(*args)._replace(elapsed_ms=0.0) == expected

    def test_grid_bounds_accept_int_subclass(self):
        assert suite_cells(IdentityId.THM2, Index(4), Index(2)) == suite_cells(
            IdentityId.THM2, 4, 2
        )
        got = run_suite(ALL_IDS, Index(4), Index(2)).render("json")
        assert got == run_suite(ALL_IDS, 4, 2).render("json")


def _no_work(*args, **kwargs):
    raise AssertionError("sides were built for an invalid index")


class TestRunSuite:
    def test_full_grid_passes(self):
        report = run_suite(ALL_IDS, n_max=8, N_max=3)
        assert report.all_passed
        assert report.entries  # nonempty

    @pytest.mark.parametrize("n_max,N_max,name", [(True, 2, "n_max"), (4, 2.0, "N_max")])
    def test_rejects_non_int_bounds(self, n_max, N_max, name):
        with pytest.raises(TypeError, match=rf"^{name} must be an int"):
            run_suite([IdentityId.THM2], n_max, N_max)
        with pytest.raises(TypeError, match=rf"^{name} must be an int"):
            suite_cells(IdentityId.THM2, n_max, N_max)

    def test_rejects_empty_identity_set(self):
        # An empty selection would otherwise pass vacuously.
        with pytest.raises(ValueError, match="^identities must name at least one identity$"):
            run_suite([], n_max=4, N_max=2)

    @pytest.mark.parametrize("single", ["thm2", IdentityId.THM2], ids=["str", "IdentityId"])
    def test_rejects_single_id_for_collection(self, single):
        # A str is iterable, so "thm2" would otherwise select "t", "h", ...
        with pytest.raises(TypeError, match="^identities must be a collection of ids"):
            run_suite(single, n_max=4, N_max=2)

    def test_thm2_only_deep_grid(self):
        report = run_suite([IdentityId.THM2], n_max=16, N_max=6)
        assert report.all_passed
        assert len(report.entries) == 17 * 6

    def test_deterministic_ordering(self):
        def key(r):
            return [(e.identity, e.N, e.n, e.passed, e.residual) for e in r.entries]

        r1 = run_suite(ALL_IDS, n_max=3, N_max=2)
        r2 = run_suite(ALL_IDS, n_max=3, N_max=2)
        assert key(r1) == key(r2)
        # identity blocks follow catalog order, (N, n) ascending inside
        order = [e.identity for e in r1.entries]
        assert order == sorted(order, key=[i.value for i in IdentityId].index)

    def test_grid_shapes(self):
        report = run_suite(ALL_IDS, n_max=2, N_max=2)
        by_id = {}
        for e in report.entries:
            by_id.setdefault(e.identity, []).append((e.N, e.n))
        assert by_id["intro_U_from_T"] == [(0, 0), (0, 1), (0, 2)]
        assert by_id["U_from_Legendre"] == [(1, 0), (1, 1), (1, 2)]
        assert by_id["Ualpha_from_Legendre"] == [(a, n) for a in (1, 2) for n in (0, 1, 2)]
        assert by_id["thm2"] == [(N, n) for N in (1, 2) for n in (0, 1, 2)]

    def test_accepts_string_identities(self):
        report = run_suite(["thm5"], n_max=2, N_max=1)
        assert {e.identity for e in report.entries} == {"thm5"}

    def test_first_kind_plumbed_to_thm7(self):
        report = run_suite([IdentityId.THM7], n_max=2, N_max=1, first_kind="classical")
        assert not report.all_passed

    def test_rejects_negative_grid(self):
        for n_max, N_max in ((-1, 2), (4, -4)):
            with pytest.raises(ValueError, match="must be >= 0"):
                run_suite(ALL_IDS, n_max=n_max, N_max=N_max)
            with pytest.raises(ValueError, match="must be >= 0"):
                suite_cells(IdentityId.INTRO_U_FROM_T, n_max, N_max)

    # An identity with no cells on the grid would otherwise pass vacuously.
    @pytest.mark.parametrize(
        "identities,empty",
        [
            ([IdentityId.THM2], "thm2"),
            ([IdentityId.UALPHA_FROM_LEGENDRE], "Ualpha_from_Legendre"),
            (
                ALL_IDS,
                "Ualpha_from_Legendre, thm2, cor3, cor4_reconstructed, thm5, thm6, thm7",
            ),
        ],
        ids=["thm2", "Ualpha_from_Legendre", "all"],
    )
    def test_rejects_empty_grid(self, identities, empty):
        with pytest.raises(ValueError, match=rf"selects no cells for {empty}$"):
            run_suite(identities, n_max=5, N_max=0)

    def test_rejects_unknown_first_kind_up_front(self):
        # thm7 is not selected, so no cell would ever read first_kind.
        with pytest.raises(ValueError, match=r"^first_kind must be 'gf' or 'classical'"):
            run_suite([IdentityId.THM2], 2, 1, first_kind="both")

    def test_dispatches_through_module_attribute(self, monkeypatch):
        # Wrappers installed on the module (tracers, counters) must see every cell.
        calls = []
        original = verify.verify_thm5

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_thm5", counting)
        report = run_suite([IdentityId.THM5], 3, 2)
        assert len(calls) == len(report.entries) == 8
