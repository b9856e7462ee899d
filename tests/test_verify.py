from fractions import Fraction

import pytest

from chebident.exact import binomial
from chebident.families import Family, FamilySpec, family_poly
from chebident.laurent import LaurentPoly
from chebident.verify import (
    IdentityId,
    compositions3,
    run_suite,
    sample_points,
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


class TestNumericMode:
    def test_points_are_deterministic_nonzero_in_range(self):
        pts = sample_points()
        assert pts == sample_points()
        assert len(pts) == 20
        assert all(x != 0 and abs(x) <= 2 for x in pts)
        assert all(isinstance(x, Fraction) for x in pts)

    def test_agrees_with_symbolic(self):
        for N in range(1, 3):
            for n in range(7):
                for sym, num in [
                    (verify_thm2(n, N), verify_thm2(n, N, mode="numeric")),
                    (verify_thm5(n, N), verify_thm5(n, N, mode="numeric")),
                    (verify_thm6(n, N), verify_thm6(n, N, mode="numeric")),
                    (verify_thm7(n, N), verify_thm7(n, N, mode="numeric")),
                ]:
                    assert sym.passed == num.passed
                    assert num.residual is None

    def test_numeric_detects_classical_failure(self):
        assert not verify_thm7(1, 1, mode="numeric", first_kind="classical").passed

    def test_custom_points(self):
        entry = verify_thm2(2, 1, mode="numeric", points=(Fraction(1, 3), Fraction(-2)))
        assert entry.passed

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_thm2(1, 1, mode="float")


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


class TestRunSuite:
    def test_full_grid_passes(self):
        report = run_suite(ALL_IDS, n_max=8, N_max=3)
        assert report.all_passed
        assert report.entries  # nonempty

    def test_empty_identity_set(self):
        assert run_suite([], n_max=4, N_max=2).entries == []

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
        with pytest.raises(ValueError):
            run_suite(ALL_IDS, n_max=-1, N_max=2)
