import hashlib
import math
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, strategies as st

from chebident import verify
from chebident.exact import binomial, falling_factorial
from chebident.families import Family, FamilySpec, family_poly
from chebident.laurent import LaurentPoly
from chebident.triangle import Triangle, triangle_recurrence
from chebident.verify import (
    _legendre_selfconv,
    _parity_sums,
    _rhs,
    _sides_thm7,
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
        assert len(triples) == binomial(n + 2, 2)
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
# Vandermonde collapse into _rhs over _parity_sums replaced.


def thm2_rhs_per_term(n, N, base):
    row = triangle_recurrence(N).row(N)
    total = LaurentPoly.zero()
    for i in range(1, N + 1):
        ai = row[i - 1]
        for l in range(n + 1):
            c = ai * binomial(2 * N + n - l - i - 1, n - l) * falling_factorial(l + i, i)
            if c:
                total = total + c * base(l + i).shift(i + l - 2 * N - n)
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
                c = pref * binomial(2 * N + m - i - 1, m) * binomial(i - l + s, s)
                c *= falling_factorial(p + l, l)
                if inner_sign and s % 2:
                    c = -c
                if c:
                    total = total + c * base(p + l).shift(i - 2 * N - m)
    return total


def triple_sum_grouped(n, N, base, even, odd):
    row = triangle_recurrence(N).row(N)
    triples = compositions3(n)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1]
        outer = [binomial(2 * N + m - i - 1, m) for m in range(n + 1)]
        for l in range(i + 1):
            pref = ai * (math.factorial(i) // math.factorial(l))
            inner = [
                (odd if (i - l + s) % 2 else even) * binomial(i - l + s, s)
                for s in range(n + 1)
            ]
            fall = [falling_factorial(p + l, l) for p in range(n + 1)]
            for m, s, p in triples:
                if inner[s]:
                    key = (p + l, i - 2 * N - m)
                    coef[key] = coef.get(key, 0) + pref * outer[m] * inner[s] * fall[p]
    return LaurentPoly.combination((c, e, base(k)) for (k, e), c in coef.items())


def thm7_lhs_weights_by_compositions(n, N):
    weights: dict = {}
    for s, m, p in compositions3(n):
        weights[p] = weights.get(p, 0) + (-1) ** m * binomial(N + s, s) * binomial(m + N, m)
    return {p: c for p, c in weights.items() if c}


def collapsed_triple_sum(n, N, base, even, odd):
    return _rhs(n, N, _parity_sums(base, even, odd, n + N))


BASES = {
    kind.value: partial(family_poly, FamilySpec(kind))
    for kind in (Family.U, Family.V, Family.W, Family.T_GF)
}
BASES["Legendre_selfconv"] = _legendre_selfconv

# The per-term sign flags (inner_sign, outer_sign) summed in the reference,
# mapped to the (even, odd) parity weights of _parity_sums that reproduce
# them: thm5, thm7's plain plus sign-alternating halves, a general weight
# pair with neither weight zero nor the two equal up to sign, and thm6.
TRIPLE_SUM_WEIGHTS = {
    ((False, False),): (1, 1),
    ((False, False), (True, True)): (2, 0),
    ((False, False), (False, False), (True, True)): (3, 1),
    ((True, True),): (1, -1),
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
                collapsed = {n - 2 * j: binomial(N + j, N) for j in range(n // 2 + 1)}
                assert thm7_lhs_weights_by_compositions(n, N) == collapsed

    @pytest.mark.parametrize("kind", [Family.T_GF, Family.T_CLASSICAL])
    def test_thm7_lhs_matches_compositions(self, kind):
        first_kind = "gf" if kind is Family.T_GF else "classical"
        for N in range(1, 4):
            for n in range(9):
                expected = LaurentPoly.combination(
                    (2 ** (N + 1) * math.factorial(N) * c, 0, verify._rows(kind, N + 1, p)[p])
                    for p, c in thm7_lhs_weights_by_compositions(n, N).items()
                )
                assert _sides_thm7(n, N, first_kind)[0] == expected

    def test_perturbed_triangle_fails(self, monkeypatch):
        rows = triangle_recurrence(3).rows
        bad = Triangle(rows[:1] + ((rows[1][0] + 1, rows[1][1]),) + rows[2:])
        monkeypatch.setattr(verify, "triangle_recurrence", lambda N: bad)
        for check in (verify_thm2, verify_thm5, verify_thm6, verify_thm7):
            assert check(3, 3).passed
            assert not check(3, 2).passed, check.__name__


class TestIntegerSides:
    @pytest.mark.parametrize("first_kind", ["gf", "classical"])
    def test_sides_are_fraction_free(self, monkeypatch, first_kind):
        # Every side handed to the comparison has int coefficients; the
        # rationals live in the one denominator d.
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
        P = P * (LaurentPoly.x_power(1) - LaurentPoly.constant(r))
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
        assert P.max_degree == 20
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
