"""Symbolic certification of the polynomial-family identities.

Every identity in the catalog is built as two exact Laurent polynomials
(left- and right-hand side) and certified by structural equality; the
pass verdict means the residual LHS - RHS is literally the zero
polynomial.  A numeric mode evaluates both sides at fixed rational sample
points instead (an exact screen that must agree with the symbolic
verdict).

Identity catalog (n >= 0, N >= 1, alpha >= 1; prefix sums run over
l = 0..n unless stated):

  intro_U_from_T        (n+1) U_n = sum_l T~_l U_{n-l}
  U_from_Legendre       U_n = sum_l p_l p_{n-l}
  Ualpha_from_Legendre  U_n^(a) = sum_l p_l^(a) p_{n-l}^(a)
  thm2                  U_n^(N+1) = (1/(2^N N!)) sum_{i=1..N} a_i(N)
                          sum_l C(2N+n-l-i-1, n-l) U_{l+i} x^{i+l-2N-n} (l+i)_i
  cor3                  as thm2 with LHS replaced by sum_l p_l^(N+1) p_{n-l}^(N+1)
  cor4_reconstructed    as thm2 with U_{l+i} replaced by sum_j p_j p_{l+i-j}
  thm5                  sum_l C(N+n-l, n-l) V_l^(N+1) = (1/(2^N N!))
                          sum_{i=1..N} sum_{l=0..i} a_i(N) (i!/l!)
                          sum_{m+s+p=n} C(2N+m-i-1, m) C(i-l+s, s) (p+l)_l
                          x^{i-2N-m} V_{p+l}
  thm6                  the fourth-kind analogue of thm5 with signs
                          (-1)^{n-l} on the left and (-1)^{i-l} (-1)^s inside
  thm7                  2^{N+1} N! sum_{s+m+p=n} C(N+s,s) C(m+N,m) (-1)^m
                          T~_p^(N+1) = [plain sum] + [sign-alternating sum]
                          over i, l with T~_{p+l} factors

First-kind symbols inside thm7 use the generating-function normalization
T~ (family T_gf); `first_kind="classical"` substitutes the classical T_n
instead, which makes the identity fail for some n >= 1 - kept available
as a guard that the normalization matters.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from chebident.exact import binomial, falling_factorial
from chebident.families import Family, FamilySpec, _rows, family_poly
from chebident.laurent import LaurentPoly
from chebident.report import ReportEntry, VerificationReport
from chebident.triangle import triangle_recurrence

__all__ = [
    "IdentityId",
    "compositions3",
    "run_suite",
    "sample_points",
    "suite_cells",
    "verify_cor3",
    "verify_cor4_reconstructed",
    "verify_intro_U_from_T",
    "verify_thm2",
    "verify_thm5",
    "verify_thm6",
    "verify_thm7",
    "verify_U_from_Legendre",
]


class IdentityId(str, Enum):
    INTRO_U_FROM_T = "intro_U_from_T"
    U_FROM_LEGENDRE = "U_from_Legendre"
    UALPHA_FROM_LEGENDRE = "Ualpha_from_Legendre"
    THM2 = "thm2"
    COR3 = "cor3"
    COR4_RECONSTRUCTED = "cor4_reconstructed"
    THM5 = "thm5"
    THM6 = "thm6"
    THM7 = "thm7"


def _u(n: int) -> LaurentPoly:
    return family_poly(FamilySpec(Family.U), n)


def _v(n: int) -> LaurentPoly:
    return family_poly(FamilySpec(Family.V), n)


def _w(n: int) -> LaurentPoly:
    return family_poly(FamilySpec(Family.W), n)


def _tgf(n: int) -> LaurentPoly:
    return family_poly(FamilySpec(Family.T_GF), n)


def _p(n: int) -> LaurentPoly:
    return family_poly(FamilySpec(Family.LEGENDRE), n)


def _prefactor(N: int) -> Fraction:
    return Fraction(1, 2**N * math.factorial(N))


def _combine(coef: dict, base) -> LaurentPoly:
    """sum coef[(k, e)] * x^e * base(k), calling base once per distinct k."""
    bases = {k: base(k) for k in {k for k, _ in coef}}
    return LaurentPoly.combination((c, e, bases[k]) for (k, e), c in coef.items())


@lru_cache(maxsize=None)
def compositions3(n: int) -> tuple:
    """All ordered triples (m, s, p) of nonnegative integers with m+s+p = n."""
    return tuple(
        (m, s, n - m - s) for m in range(n + 1) for s in range(n - m + 1)
    )


@lru_cache(maxsize=None)
def _legendre_selfconv(k: int) -> LaurentPoly:
    """sum_{j=0..k} p_j p_{k-j}; equals U_k (certified by U_from_Legendre)."""
    total = LaurentPoly.zero()
    for j in range(k + 1):
        total = total + _p(j) * _p(k - j)
    return total


# -- side builders -------------------------------------------------------------


def _sides_intro(n: int):
    lhs = (n + 1) * _u(n)
    rhs = LaurentPoly.zero()
    for l in range(n + 1):
        rhs = rhs + _tgf(l) * _u(n - l)
    return lhs, rhs


def _sides_u_from_legendre(n: int, alpha: int):
    lhs = family_poly(FamilySpec(Family.U, alpha), n)
    rhs = LaurentPoly.zero()
    for l in range(n + 1):
        rhs = rhs + family_poly(FamilySpec(Family.LEGENDRE, alpha), l) * family_poly(
            FamilySpec(Family.LEGENDRE, alpha), n - l
        )
    return lhs, rhs


def _thm2_rhs(n: int, N: int, base=_u) -> LaurentPoly:
    row = triangle_recurrence(N).row(N)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1]
        for l in range(n + 1):
            key = (l + i, i + l - 2 * N - n)
            c = ai * binomial(2 * N + n - l - i - 1, n - l) * falling_factorial(l + i, i)
            coef[key] = coef.get(key, 0) + c
    return _prefactor(N) * _combine(coef, base)


def _sides_thm2(n: int, N: int):
    return family_poly(FamilySpec(Family.U, N + 1), n), _thm2_rhs(n, N)


def _sides_cor3(n: int, N: int):
    lhs = LaurentPoly.zero()
    for l in range(n + 1):
        lhs = lhs + family_poly(FamilySpec(Family.LEGENDRE, N + 1), l) * family_poly(
            FamilySpec(Family.LEGENDRE, N + 1), n - l
        )
    return lhs, _thm2_rhs(n, N)


def _sides_cor4(n: int, N: int):
    return (
        family_poly(FamilySpec(Family.U, N + 1), n),
        _thm2_rhs(n, N, base=_legendre_selfconv),
    )


def _triple_sum(n: int, N: int, base, inner_sign: bool, outer_sign: bool) -> LaurentPoly:
    """Common right-hand side of thm5/thm6/thm7 halves.

    sum_{i=1..N} sum_{l=0..i} [sign_out] a_i(N) (i!/l!)
      sum_{m+s+p=n} [sign_in] C(2N+m-i-1, m) C(i-l+s, s) (p+l)_l
        x^{i-2N-m} base(p+l)

    with sign_out = (-1)^{i-l} when outer_sign and sign_in = (-1)^s when
    inner_sign.  The integer weights are summed per (p+l, i-2N-m) first.
    """
    row = triangle_recurrence(N).row(N)
    triples = compositions3(n)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1]
        outer = [binomial(2 * N + m - i - 1, m) for m in range(n + 1)]
        for l in range(i + 1):
            pref = ai * (math.factorial(i) // math.factorial(l))
            if outer_sign and (i - l) % 2:
                pref = -pref
            inner = [binomial(i - l + s, s) for s in range(n + 1)]
            if inner_sign:
                inner[1::2] = [-c for c in inner[1::2]]
            fall = [falling_factorial(p + l, l) for p in range(n + 1)]
            for m, s, p in triples:
                key = (p + l, i - 2 * N - m)
                coef[key] = coef.get(key, 0) + pref * outer[m] * inner[s] * fall[p]
    return _combine(coef, base)


def _sides_thm5(n: int, N: int):
    lhs = LaurentPoly.combination(
        (binomial(N + n - l, n - l), 0, family_poly(FamilySpec(Family.V, N + 1), l))
        for l in range(n + 1)
    )
    rhs = _prefactor(N) * _triple_sum(n, N, _v, inner_sign=False, outer_sign=False)
    return lhs, rhs


def _sides_thm6(n: int, N: int):
    lhs = LaurentPoly.combination(
        (
            (-1) ** (n - l) * binomial(N + n - l, n - l),
            0,
            family_poly(FamilySpec(Family.W, N + 1), l),
        )
        for l in range(n + 1)
    )
    rhs = _prefactor(N) * _triple_sum(n, N, _w, inner_sign=True, outer_sign=True)
    return lhs, rhs


def _sides_thm7(n: int, N: int, first_kind: str = "gf"):
    if first_kind == "gf":
        base = _tgf

        def higher(p):
            return family_poly(FamilySpec(Family.T_GF, N + 1), p)

    elif first_kind == "classical":

        def base(p):
            return family_poly(FamilySpec(Family.T_CLASSICAL), p)

        def higher(p):
            # FamilySpec keeps T_classical at order 1; the guard reads the table.
            return _rows(Family.T_CLASSICAL, N + 1, p)[p]

    else:
        raise ValueError(f"first_kind must be 'gf' or 'classical', got {first_kind!r}")
    weights: dict = {}
    for s, m, p in compositions3(n):
        weights[p] = weights.get(p, 0) + (-1) ** m * binomial(N + s, s) * binomial(m + N, m)
    scale = 2 ** (N + 1) * math.factorial(N)
    lhs = LaurentPoly.combination((scale * c, 0, higher(p)) for p, c in weights.items())
    rhs = _triple_sum(n, N, base, inner_sign=False, outer_sign=False) + _triple_sum(
        n, N, base, inner_sign=True, outer_sign=True
    )
    return lhs, rhs


# -- verification drivers --------------------------------------------------------


# Distinct nonzero p/q in [-2, 2] with 1 <= q <= 12: 4 * sum_{q<=12} phi(q).
_POINT_POOL = 184


def sample_points(count: int = 20, seed: int = 0) -> tuple:
    """``count`` distinct nonzero rationals p/q in [-2, 2], q <= 12, fixed by ``seed``.

    The pool holds 184 such points, so ``count`` must lie in 1..184.
    """
    if not 1 <= count <= _POINT_POOL:
        raise ValueError(f"count must be in 1..{_POINT_POOL}, got {count}")
    rng = random.Random(seed)
    points: list[Fraction] = []
    seen = set()
    while len(points) < count:
        den = rng.randint(1, 12)
        num = rng.randint(-2 * den, 2 * den)
        if num == 0:
            continue
        x0 = Fraction(num, den)
        if x0 in seen:
            continue
        seen.add(x0)
        points.append(x0)
    return tuple(points)


_DEFAULT_POINTS = None


def _default_points() -> tuple:
    global _DEFAULT_POINTS
    if _DEFAULT_POINTS is None:
        _DEFAULT_POINTS = sample_points()
    return _DEFAULT_POINTS


def _check_args(n: int, mode: str, points, **orders: int) -> None:
    """Reject arguments that would make a cell pass vacuously or fail late.

    n < 0 and any order (N or alpha) < 1 would leave the sums empty, and an
    empty point set would pass every numeric cell.  x = 0 is rejected
    because the sides carry negative powers of x.
    """
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"mode must be 'symbolic' or 'numeric', got {mode!r}")
    if points is not None:
        if len(points) == 0:
            raise ValueError("points must not be empty")
        if any(x0 == 0 for x0 in points):
            raise ValueError("points must be nonzero")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for name, value in orders.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _finish(
    identity: str,
    n: int,
    N: int,
    lhs: LaurentPoly,
    rhs: LaurentPoly,
    mode: str,
    track_rhs: bool,
    start: float,
    points,
) -> ReportEntry:
    rhs_polynomial = rhs.is_polynomial() if track_rhs else None
    if mode == "symbolic":
        residual = lhs - rhs
        passed = residual.is_zero()
    else:
        residual = None
        pts = points if points is not None else _default_points()
        passed = all(lhs.evaluate(x0) == rhs.evaluate(x0) for x0 in pts)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ReportEntry(
        identity=identity,
        n=n,
        N=N,
        passed=passed,
        residual=residual,
        rhs_polynomial=rhs_polynomial,
        elapsed_ms=elapsed_ms,
    )


def verify_intro_U_from_T(n: int, mode: str = "symbolic", points=None) -> ReportEntry:
    _check_args(n, mode, points)
    start = time.perf_counter()
    lhs, rhs = _sides_intro(n)
    return _finish("intro_U_from_T", n, 0, lhs, rhs, mode, False, start, points)


def verify_U_from_Legendre(
    n: int, alpha: int = 1, mode: str = "symbolic", points=None
) -> ReportEntry:
    _check_args(n, mode, points, alpha=alpha)
    start = time.perf_counter()
    lhs, rhs = _sides_u_from_legendre(n, alpha)
    identity = "U_from_Legendre" if alpha == 1 else "Ualpha_from_Legendre"
    return _finish(identity, n, alpha, lhs, rhs, mode, False, start, points)


def verify_thm2(n: int, N: int, mode: str = "symbolic", points=None) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_thm2(n, N)
    return _finish("thm2", n, N, lhs, rhs, mode, True, start, points)


def verify_cor3(n: int, N: int, mode: str = "symbolic", points=None) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_cor3(n, N)
    return _finish("cor3", n, N, lhs, rhs, mode, True, start, points)


def verify_cor4_reconstructed(
    n: int, N: int, mode: str = "symbolic", points=None
) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_cor4(n, N)
    return _finish("cor4_reconstructed", n, N, lhs, rhs, mode, True, start, points)


def verify_thm5(n: int, N: int, mode: str = "symbolic", points=None) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_thm5(n, N)
    return _finish("thm5", n, N, lhs, rhs, mode, True, start, points)


def verify_thm6(n: int, N: int, mode: str = "symbolic", points=None) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_thm6(n, N)
    return _finish("thm6", n, N, lhs, rhs, mode, True, start, points)


def verify_thm7(
    n: int, N: int, mode: str = "symbolic", points=None, first_kind: str = "gf"
) -> ReportEntry:
    _check_args(n, mode, points, N=N)
    start = time.perf_counter()
    lhs, rhs = _sides_thm7(n, N, first_kind)
    return _finish("thm7", n, N, lhs, rhs, mode, True, start, points)


# -- suite runner -----------------------------------------------------------------


def suite_cells(identity: IdentityId, n_max: int, N_max: int):
    """Deterministic (N, n) grid per identity; N doubles as alpha where noted."""
    if identity is IdentityId.INTRO_U_FROM_T:
        return [(0, n) for n in range(n_max + 1)]
    if identity is IdentityId.U_FROM_LEGENDRE:
        return [(1, n) for n in range(n_max + 1)]
    if identity is IdentityId.UALPHA_FROM_LEGENDRE:
        return [(alpha, n) for alpha in range(1, N_max + 1) for n in range(n_max + 1)]
    return [(N, n) for N in range(1, N_max + 1) for n in range(n_max + 1)]


def run_suite(
    identities,
    n_max: int,
    N_max: int,
    mode: str = "symbolic",
    first_kind: str = "gf",
    points=None,
) -> VerificationReport:
    """Run the selected identities over the full grid.

    Cells are ordered deterministically by (identity, N, n); the N column
    records alpha for the Legendre convolution identities and 0 for the
    introductory identity, which has no second parameter.
    """
    if n_max < 0 or N_max < 0:
        raise ValueError("n_max and N_max must be >= 0")
    _check_args(n_max, mode, points)
    selected = [i for i in IdentityId if i in {IdentityId(x) for x in identities}]
    report = VerificationReport()
    for identity in selected:
        for N, n in suite_cells(identity, n_max, N_max):
            if identity is IdentityId.INTRO_U_FROM_T:
                entry = verify_intro_U_from_T(n, mode, points)
            elif identity in (IdentityId.U_FROM_LEGENDRE, IdentityId.UALPHA_FROM_LEGENDRE):
                entry = verify_U_from_Legendre(n, N, mode, points)
                if entry.identity != identity.value:
                    entry = dataclasses.replace(entry, identity=identity.value)
            elif identity is IdentityId.THM2:
                entry = verify_thm2(n, N, mode, points)
            elif identity is IdentityId.COR3:
                entry = verify_cor3(n, N, mode, points)
            elif identity is IdentityId.COR4_RECONSTRUCTED:
                entry = verify_cor4_reconstructed(n, N, mode, points)
            elif identity is IdentityId.THM5:
                entry = verify_thm5(n, N, mode, points)
            elif identity is IdentityId.THM6:
                entry = verify_thm6(n, N, mode, points)
            else:
                entry = verify_thm7(n, N, mode, points, first_kind)
            report.entries.append(entry)
    return report
