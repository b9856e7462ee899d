"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All residual checks are exact (zero polynomial, no tolerances); the only
numeric thresholds are the stated runtime budgets.  Run with ``-s`` to see
the per-criterion lines on success:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import pytest

from chebident.cli import run
from chebident.families import Family, FamilySpec, family_poly
from chebident.series import gf_expand
from chebident.triangle import triangle_recurrence, verify_defining_relation
from chebident.verify import (
    verify_U_from_Legendre,
    verify_cor3,
    verify_cor4_reconstructed,
    verify_intro_U_from_T,
    verify_thm2,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)

from _oracles import a1_closed, a_closed, explicit_T, ode_residual

THEOREM_IDS = {"thm2", "cor3", "cor4_reconstructed", "thm5", "thm6", "thm7"}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def identity_suite():
    """Criterion-5 grid, shared with criterion 6; returns (entries, seconds)."""
    start = time.perf_counter()
    entries = []
    for n in range(33):
        entries.append(verify_intro_U_from_T(n))
    for alpha in range(1, 5):
        for n in range(17):
            entries.append(verify_U_from_Legendre(n, alpha))
    theorem_checks = (
        verify_thm2,
        verify_cor3,
        verify_cor4_reconstructed,
        verify_thm5,
        verify_thm6,
        verify_thm7,
    )
    for check in theorem_checks:
        for N in range(1, 5):
            for n in range(13):
                entries.append(check(n, N))
    for N in range(1, 7):
        for n in range(17):
            entries.append(verify_thm2(n, N))
    return entries, time.perf_counter() - start


def test_criterion_1_triangle_golden_rows():
    with criterion(1, "triangle rows 1-4 match golden values in < 1 ms"):
        start = time.perf_counter()
        tri = triangle_recurrence(4)
        elapsed = time.perf_counter() - start
        assert list(tri.rows) == [(1,), (1, 1), (3, 3, 1), (15, 15, 6, 1)]
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_2_closed_form_equivalence():
    with criterion(2, "closed forms equal recurrence (i<=N<=12; a_1 to N=20) in < 1 s"):
        start = time.perf_counter()
        tri = triangle_recurrence(20)
        for N in range(1, 21):
            assert a1_closed(N) == tri.entry(1, N)
        for N in range(2, 13):
            for i in range(2, N + 1):
                assert a_closed(i, N) == tri.entry(i, N), (i, N)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_defining_relation():
    with criterion(3, "series defining relation holds for N<=6 at order 24 in < 30 s"):
        start = time.perf_counter()
        for N in range(1, 7):
            entry = verify_defining_relation(N, 24)
            assert entry.passed, f"N={N}: residual {entry.residual}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_4_family_oracle_equivalence():
    with criterion(4, "recurrences match series oracle (alpha<=4, n<=48) in < 30 s"):
        start = time.perf_counter()
        gf_kinds = (Family.T_GF, Family.U, Family.V, Family.W, Family.LEGENDRE)
        for kind in gf_kinds:
            for alpha in range(1, 5):
                expansion = gf_expand(kind, alpha, 48)
                for n in range(49):
                    assert expansion.coefficient(n) == family_poly(
                        FamilySpec(kind, alpha), n
                    ), (kind, alpha, n)
        for n in range(49):
            assert explicit_T(n) == family_poly(FamilySpec(Family.T_CLASSICAL), n)
        for n in range(33):
            assert ode_residual(Family.T_CLASSICAL, n).is_zero()
            assert ode_residual(Family.U, n).is_zero()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_5_identity_suites(identity_suite):
    with criterion(5, "all identity suites pass with exact zero residuals in < 5 min"):
        entries, elapsed = identity_suite
        failures = [e for e in entries if not e.passed]
        assert not failures, failures[:5]
        for e in entries:
            assert e.residual is not None and e.residual.is_zero()
        assert elapsed < 300.0, f"took {elapsed:.2f} s"


def test_criterion_6_negative_power_cancellation(identity_suite):
    with criterion(6, "every theorem RHS collapses to a true polynomial"):
        entries, _ = identity_suite
        theorem_entries = [e for e in entries if e.identity in THEOREM_IDS]
        assert theorem_entries
        for e in theorem_entries:
            assert e.rhs_polynomial is True, (e.identity, e.n, e.N)


def test_criterion_7_normalization_sentinel():
    with criterion(7, "thm7 with classical first-kind normalization fails for some n >= 1"):
        failing = [
            (n, N)
            for N in range(1, 3)
            for n in range(5)
            if not verify_thm7(n, N, first_kind="classical").passed
        ]
        assert any(n >= 1 for n, _ in failing), failing


def test_criterion_8_cli_determinism(capsys):
    with criterion(8, "CLI verify output is byte-identical and exit codes follow 0/1/2"):
        args = ["verify", "all", "--n-max", "6", "--N-max", "3", "--format", "json"]
        code1 = run(args)
        out1 = capsys.readouterr().out
        code2 = run(args)
        out2 = capsys.readouterr().out
        assert (code1, code2) == (0, 0)
        assert out1 == out2 and out1.encode() == out2.encode()
        assert all(e["pass"] for e in json.loads(out1))

        failing = run(
            ["verify", "thm7", "--n-max", "2", "--N-max", "1", "--first-kind", "classical"]
        )
        capsys.readouterr()
        assert failing == 1

        usage = run(["verify", "all", "--n-max", "6"])  # missing --N-max
        capsys.readouterr()
        assert usage == 2
