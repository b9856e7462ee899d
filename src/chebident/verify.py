"""Symbolic certification of the polynomial-family identities.

Every identity in the catalog is built as two exact Laurent polynomials
with integer coefficients, L' and R', and one positive integer d: the
left- and right-hand sides are L'/d and R'/d.  A cell passes when L' and
R' are structurally equal, so the residual LHS - RHS = (L' - R')/d is
literally the zero polynomial; only a failing cell builds that rational
residual, the only rational here.  The sides are assembled from the
integer rows of `families._rows`, read through one getter per (kind,
order), `_base`, and one convolution, `_convolution`.  The denominators
are

  thm2, cor4, thm5, thm6   d = 2^N N!, the prefactor moved to the left
  Legendre convolutions    d = s^n over the rows r_m = s^m p_m^(a) (s = 2
                             for odd a, 1 for even a, see families)
  cor3                     d = s^n 2^N N!
  intro, thm7              d = 1

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

The right-hand sums of thm5, thm6 and thm7 weight a term by the parity of
i-l+s: (1, 1), (1, -1) and, since 1 + (-1)^{i-l} (-1)^s is 2 or 0, (2, 0)
for thm7.  With k = p+l, (i!/l!) (k)_l = i! C(k, l), and c = i-l+s =
n-m-k+i does not depend on l, so Chu-Vandermonde,
sum_l C(k, l) C(c, i-l) = C(n-m+i, i), sums the l-loop.  What is left
is thm2's sum, `_rhs`, applied to the parity running sum
k -> even E_k + odd E_{k-1} of the base row, with E_k = base(k) + E_{k-2}:
the series form of (1 -/+ t)^(-1) G = F.  The integer weights of `_rhs`
depend only on n and the triangle row, and the running sums only on the
base row and the weights, so both are built once and shared by the cells.
thm7's left-hand weights collapse the same way, because
(1-t)^(-N-1) (1+t)^(-N-1) = (1-t^2)^(-N-1).

First-kind symbols inside thm7 use the generating-function normalization
T~ (family T_gf); `first_kind="classical"` substitutes the classical T_n
instead, which makes the identity fail for some n >= 1 - kept available
as a guard that the normalization matters.

One table, `_CATALOG`, holds per identity its side builder, its grid and
whether its right-hand side is checked for being a true polynomial.  Every
public `verify_*` entry point is a call into one driver, `_certify`, which
validates the arguments, builds and compares the sides and times the cell;
`run_suite` and `suite_cells` read the same table.
"""

from __future__ import annotations

import math
import threading
import time
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial

from chebident.exact import _require_int, binomial
from chebident.families import Family, _divide_exact, _rows, _scale
from chebident.laurent import LaurentPoly
from chebident.report import ReportEntry, VerificationReport
from chebident.triangle import triangle_recurrence

__all__ = [
    "IdentityId",
    "run_suite",
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


@lru_cache(maxsize=None)
def _base(kind: Family, alpha: int = 1):
    """The map m -> row m of ``_rows(kind, alpha)``: the order-``alpha`` member
    of family ``kind`` times s^m (see `families._scale`), one per (kind, alpha)."""
    return lambda m: _rows(kind, alpha, m)[m]


def _convolution(f, g, n: int) -> LaurentPoly:
    """sum_{l=0..n} f(l) g(n-l).

    When f is g the terms l and n-l are equal, so each cross product is
    built once and doubled, and a middle square (even n) is added once.
    """
    if f is not g:
        return sum((f(l) * g(n - l) for l in range(n + 1)), LaurentPoly.zero())
    cross = sum((f(l) * f(n - l) for l in range((n + 1) // 2)), LaurentPoly.zero())
    return 2 * cross + (f(n // 2) * f(n // 2) if n % 2 == 0 else LaurentPoly.zero())


@lru_cache(maxsize=None)
def _legendre_selfconv(k: int) -> LaurentPoly:
    """sum_{j=0..k} p_j p_{k-j}; equals U_k (certified by U_from_Legendre).

    The rows are r_j = 2^j p_j, so their self-convolution divides by 2^k.
    """
    r = _base(Family.LEGENDRE)
    return _divide_exact(_convolution(r, r, k), 2**k, f"Legendre self-convolution {k}")


# -- side builders -------------------------------------------------------------
#
# Each builder returns (L', R', d): integer-coefficient sides whose true
# values are L'/d and R'/d, for a positive integer d.


def _sides_intro(n: int):
    u = _base(Family.U)
    return (n + 1) * u(n), _convolution(_base(Family.T_GF), u, n), 1


def _sides_legendre(n: int, alpha: int):
    p, d = _base(Family.LEGENDRE, alpha), _scale(Family.LEGENDRE, alpha) ** n
    return d * _base(Family.U, alpha)(n), _convolution(p, p, n), d


@lru_cache(maxsize=None)
def _rhs_weights(n: int, row: tuple) -> tuple:
    """(k, w_k) pairs: _rhs's integer weight on x^(k-n-2N) base(k), N = len(row)."""
    N = len(row)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1] * math.factorial(i)
        for m in range(n + 1):
            k = n - m + i
            c = ai * binomial(2 * N + m - i - 1, m) * binomial(k, i)
            coef[k] = coef.get(k, 0) + c
    return tuple((k, c) for k, c in coef.items() if c)


def _rhs(n: int, N: int, base) -> LaurentPoly:
    """The right-hand side shared by thm2 through thm7, without a prefactor.

    sum_{i=1..N} sum_{m=0..n} a_i(N) i! C(2N+m-i-1, m) C(n-m+i, i)
      x^{i-2N-m} base(n-m+i)

    This is thm2's l-sum with m = n - l and (K)_i = i! C(K, i).  With
    k = n-m+i the power of x is k-n-2N, so the integer weights are summed
    per k first.  The weight table depends on n and the triangle row only,
    so it is built once per (n, row) and shared by every base.
    """
    weights = _rhs_weights(n, triangle_recurrence(N).row(N))
    return LaurentPoly.combination((c, k - n - 2 * N, base(k)) for k, c in weights)


_running_sums: dict = {}
_running_lock = threading.Lock()


def _parity_sums(base, even: int, odd: int, top: int):
    """The map k -> even E_k + odd E_{k-1} for 0 <= k <= top.

    E_k = base(k) + E_{k-2} sums every other row down from k, so the map
    weights base(j) by ``even`` when k - j is even and by ``odd`` otherwise.
    Its values S_k = even base(k) + odd base(k-1) + S_{k-2} are kept per
    (base, even, odd) and shared by every cell.
    """
    with _running_lock:
        S = _running_sums.setdefault((base, even, odd), [])
        for k in range(len(S), top + 1):
            terms = [(even, 0, base(k))]
            if k >= 1:
                terms.append((odd, 0, base(k - 1)))
            if k >= 2:
                terms.append((1, 0, S[k - 2]))
            S.append(LaurentPoly.combination(terms))
    return S.__getitem__


def _thm2_denominator(N: int) -> int:
    """2^N N!, the denominator of thm2's prefactor."""
    return 2**N * math.factorial(N)


def _sides_thm2(n: int, N: int):
    d = _thm2_denominator(N)
    return d * _base(Family.U, N + 1)(n), _rhs(n, N, _base(Family.U)), d


def _sides_cor3(n: int, N: int):
    p, d_conv = _base(Family.LEGENDRE, N + 1), _scale(Family.LEGENDRE, N + 1) ** n
    d = _thm2_denominator(N)
    return d * _convolution(p, p, n), d_conv * _rhs(n, N, _base(Family.U)), d_conv * d


def _sides_cor4(n: int, N: int):
    d = _thm2_denominator(N)
    return d * _base(Family.U, N + 1)(n), _rhs(n, N, _legendre_selfconv), d


def _sides_thm5_6(kind: Family, sign: int, n: int, N: int):
    """thm5 (V, sign 1) and its fourth-kind analogue thm6 (W, sign -1)."""
    higher = _base(kind, N + 1)
    d = _thm2_denominator(N)
    lhs = LaurentPoly.combination(
        (d * sign ** (n - l) * binomial(N + n - l, n - l), 0, higher(l)) for l in range(n + 1)
    )
    return lhs, _rhs(n, N, _parity_sums(_base(kind), 1, sign, n + N)), d


def _sides_thm7(n: int, N: int, first_kind: str):
    kind = Family.T_GF if first_kind == "gf" else Family.T_CLASSICAL
    base, higher = _base(kind), _base(kind, N + 1)
    # (1-t)^(-N-1) (1+t)^(-N-1) = (1-t^2)^(-N-1): only p = n - 2j survives.
    scale = 2 ** (N + 1) * math.factorial(N)
    lhs = LaurentPoly.combination(
        (scale * binomial(N + j, N), 0, higher(n - 2 * j)) for j in range(n // 2 + 1)
    )
    return lhs, _rhs(n, N, _parity_sums(base, 2, 0, n + N)), 1


# -- the catalog -----------------------------------------------------------------


class _Identity(namedtuple("_Identity", "entry_point params sides fixed_N tracks_rhs")):
    """One catalog row.

    ``entry_point`` names the public ``verify_*`` function and ``params``
    its names for the grid's N and for first_kind, as far as it takes them;
    ``sides(n, **params)`` returns (L', R', d), the integer sides and their
    denominator.  ``fixed_N`` is the grid's only N (alpha) value, or None
    for N = 1..N_max.  ``tracks_rhs`` says whether the report records if
    the right-hand side is a true polynomial.
    """

    __slots__ = ()


_CATALOG = {
    IdentityId.INTRO_U_FROM_T: _Identity("verify_intro_U_from_T", (), _sides_intro, 0, False),
    IdentityId.U_FROM_LEGENDRE: _Identity(
        "verify_U_from_Legendre", ("alpha",), _sides_legendre, 1, False
    ),
    IdentityId.UALPHA_FROM_LEGENDRE: _Identity(
        "verify_U_from_Legendre", ("alpha",), _sides_legendre, None, False
    ),
    IdentityId.THM2: _Identity("verify_thm2", ("N",), _sides_thm2, None, True),
    IdentityId.COR3: _Identity("verify_cor3", ("N",), _sides_cor3, None, True),
    IdentityId.COR4_RECONSTRUCTED: _Identity(
        "verify_cor4_reconstructed", ("N",), _sides_cor4, None, True
    ),
    IdentityId.THM5: _Identity(
        "verify_thm5", ("N",), partial(_sides_thm5_6, Family.V, 1), None, True
    ),
    IdentityId.THM6: _Identity(
        "verify_thm6", ("N",), partial(_sides_thm5_6, Family.W, -1), None, True
    ),
    IdentityId.THM7: _Identity("verify_thm7", ("N", "first_kind"), _sides_thm7, None, True),
}


# -- verification driver ---------------------------------------------------------


def _check_args(n: int, first_kind: str = "gf", **orders: int) -> None:
    """Reject arguments that would make a cell pass vacuously or fail late.

    n < 0 and any order (N or alpha) < 1 would leave the sums empty.  A
    bool or non-int index is a TypeError: True would certify as n = 1 and
    report "n": true.
    """
    if first_kind not in ("gf", "classical"):
        raise ValueError(f"first_kind must be 'gf' or 'classical', got {first_kind!r}")
    for name, value, least in (("n", n, 0), *((k, v, 1) for k, v in orders.items())):
        _require_int(name, value)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _certify(identity: IdentityId, n: int, **params) -> ReportEntry:
    """Certify one cell of ``identity``: validate, build both sides, compare, time.

    ``params`` are the entry point's own arguments (N or alpha, first_kind).
    The report's N column holds alpha for the Legendre convolutions and 0
    for the introductory identity.
    """
    _check_args(n, **params)
    row = _CATALOG[identity]
    start = time.perf_counter()
    lhs, rhs, d = row.sides(n, **params)
    rhs_polynomial = rhs.is_polynomial() if row.tracks_rhs else None
    passed = lhs == rhs
    # Only a failure pays for the rationals: its residual is (L' - R')/d.
    residual = LaurentPoly.zero() if passed else LaurentPoly(((lhs - rhs) / d).terms)
    return ReportEntry(
        identity=identity.value,
        n=n,
        N=params.get("N", params.get("alpha", 0)),
        passed=passed,
        residual=residual,
        rhs_polynomial=rhs_polynomial,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def verify_intro_U_from_T(n: int) -> ReportEntry:
    return _certify(IdentityId.INTRO_U_FROM_T, n)


def verify_U_from_Legendre(n: int, alpha: int = 1) -> ReportEntry:
    identity = IdentityId.U_FROM_LEGENDRE if alpha == 1 else IdentityId.UALPHA_FROM_LEGENDRE
    return _certify(identity, n, alpha=alpha)


def verify_thm2(n: int, N: int) -> ReportEntry:
    return _certify(IdentityId.THM2, n, N=N)


def verify_cor3(n: int, N: int) -> ReportEntry:
    return _certify(IdentityId.COR3, n, N=N)


def verify_cor4_reconstructed(n: int, N: int) -> ReportEntry:
    return _certify(IdentityId.COR4_RECONSTRUCTED, n, N=N)


def verify_thm5(n: int, N: int) -> ReportEntry:
    return _certify(IdentityId.THM5, n, N=N)


def verify_thm6(n: int, N: int) -> ReportEntry:
    return _certify(IdentityId.THM6, n, N=N)


def verify_thm7(n: int, N: int, first_kind: str = "gf") -> ReportEntry:
    return _certify(IdentityId.THM7, n, N=N, first_kind=first_kind)


# -- suite runner -----------------------------------------------------------------


def _check_grid(n_max: int, N_max: int) -> None:
    """TypeError for a bool or non-int grid bound, ValueError for a negative one."""
    _require_int("n_max", n_max)
    _require_int("N_max", N_max)
    if n_max < 0 or N_max < 0:
        raise ValueError("n_max and N_max must be >= 0")


def suite_cells(identity: IdentityId, n_max: int, N_max: int):
    """Deterministic (N, n) grid per identity; N doubles as alpha where noted.

    Raises TypeError for a bool or non-int bound and ValueError for a
    negative one.
    """
    _check_grid(n_max, N_max)
    fixed = _CATALOG[IdentityId(identity)].fixed_N
    orders = range(1, N_max + 1) if fixed is None else (fixed,)
    return [(N, n) for N in orders for n in range(n_max + 1)]


def _select(identities, n_max: int, N_max: int) -> list:
    """The selected identities in catalog order, each with cells on the grid.

    Raises ValueError for a negative grid, an empty selection or an identity
    the grid gives no cells, any of which would otherwise pass vacuously,
    and TypeError for a bool or non-int bound or a single id (a str) in
    place of a collection of them.
    """
    _check_grid(n_max, N_max)
    if isinstance(identities, str):
        raise TypeError(f"identities must be a collection of ids, got {identities!r}")
    wanted = {IdentityId(x) for x in identities}
    if not wanted:
        raise ValueError("identities must name at least one identity")
    selected = [i for i in IdentityId if i in wanted]
    empty = [i.value for i in selected if not suite_cells(i, n_max, N_max)]
    if empty:
        raise ValueError(
            f"n_max={n_max}, N_max={N_max} selects no cells for " + ", ".join(empty)
        )
    return selected


def run_suite(
    identities, n_max: int, N_max: int, first_kind: str = "gf"
) -> VerificationReport:
    """Run the selected identities over the full grid.

    Cells are ordered deterministically by (identity, N, n); the N column
    records alpha for the Legendre convolution identities and 0 for the
    introductory identity, which has no second parameter.
    """
    selected = _select(identities, n_max, N_max)
    _check_args(n_max, first_kind)
    report = VerificationReport()
    for identity in selected:
        row = _CATALOG[identity]
        # Looked up on the module, not bound at import, so that wrappers
        # installed there (tracing, counting) see every cell.
        check = globals()[row.entry_point]
        for N, n in suite_cells(identity, n_max, N_max):
            params = dict(zip(row.params, (N, first_kind)))
            entry = check(n, **params)
            if entry.identity != identity.value:  # Ualpha_from_Legendre at alpha = 1
                entry = entry._replace(identity=identity.value)
            report.entries.append(entry)
    return report
