"""Symbolic certification of the polynomial-family identities.

Every identity in the catalog is built as two exact Laurent polynomials
in x with integer coefficients, L' and R', and one positive integer d:
the left- and right-hand sides are L'/d and R'/d.  A cell passes when L'
and R' are structurally equal, so the residual LHS - RHS = (L' - R')/d is
literally the zero polynomial; only a failing cell builds it, the only
rational here.  The sides are assembled from the integer rows of
`families._rows`, whose list per (kind, order) a cell fetches once and
reads by index, and one convolution, `_convolution`, which
accumulates all of its products in one term map and prunes it once.  The
defining relation's sides are its t^0 coefficients, which decide it (see
`triangle`).  The denominators are

  thm2, cor4, thm5, thm6   d = 2^N N!, the prefactor moved to the left
  Legendre convolutions    d = s^n over the rows r_m = s^m p_m^(a) (s = 2
                             for odd a, 1 for even a, see families)
  cor3                     d = s^n 2^N N!
  intro, thm7              d = 1
  defining relation        d = 1 (see `triangle._sides_defining_relation`)

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

Both sides of thm5, thm6 and thm7 are q(t)^(-alpha) applied to a
family's rows, q = 1 - t, 1 + t and 1 - t^2 the numerators of V, W and T~
(see families): `_unfilter` builds H = q^(-alpha) G from q^alpha H = G,
at most alpha+1 terms per row, kept per (kind, alpha, q).  The left side
is d H_n at alpha = N+1: the weights C(N+n-l, n-l) (+/-1)^(n-l) are
(1 -/+ t)^(-N-1)'s, and thm7's collapse by (1-t)^(-N-1) (1+t)^(-N-1) =
(1-t^2)^(-N-1).  On the right a term is weighted by the parity of
i-l+s: (1, 1), (1, -1) and, since 1 + (-1)^{i-l} (-1)^s is 2 or 0, (2, 0)
for thm7.  With k = p+l, (i!/l!) (k)_l = i! C(k, l), and c = i-l+s =
n-m-k+i does not depend on l, so Chu-Vandermonde,
sum_l C(k, l) C(c, i-l) = C(n-m+i, i), sums the l-loop.  What is left is
thm2's sum, `_rhs`, over the rows of q^(-1) G at alpha = 1 (twice that
for thm7, whose (2, 0) weights are twice (1, 0)'s; `_rhs` is linear).
For V, W and T~ these rows are U's, q^(-1) (q F) = F with F = 1/D, and
so are cor4's Legendre self-convolutions (sum_j p_j p_{k-j} = U_k).

So all of these right sides are thm2's sum.  `_rows_or_U` keeps, per
base, the length of its prefix of rows that equal U's.  It builds and
compares (structurally, up to the first that differs) only rows past
that prefix, and hands `_rhs` U's own row list only when every row a
cell reads lies in it.  Over U's rows `_rhs` builds the sum once per
(n, triangle row) and keeps it, so thm2, cor3, cor4, thm5, thm6 and thm7
share one sum per (n, N).  A base with a differing row (classical T in
thm7, or a perturbed row) is summed over its own rows, so no verdict
rests on the identities that justify the sharing.  Each Legendre
self-convolution is built once per (alpha, n).  Every kept sequence
grows through one helper, `laurent._extended`: a cell builds only the
entries past those kept, and none needs a lock.

First-kind symbols inside thm7 use the generating-function normalization
T~ (family T_gf); `first_kind="classical"` substitutes the classical T_n
instead, which makes the identity fail for some n >= 1 - kept available
as a guard that the normalization matters.

One table, `_CATALOG`, holds per identity its side builder, its grid and
whether its right-hand side is checked for being a true polynomial.  Its
last row, "defining_relation", is the defining relation of the triangle
a_i(N); it is no `IdentityId`, so no grid selects it.  Every public
`verify_*` entry point, `triangle.verify_defining_relation` included, is a
call into one driver, `_certify`, which validates the arguments, builds
and compares the sides and times the cell; `run_suite` and `suite_cells`
read the same table.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial

from chebident import _backend as _k
from chebident.families import Family, _divide_exact, _rows, _scale
from chebident.laurent import LaurentPoly, _extended, _require_int
from chebident.report import ReportEntry, VerificationReport
from chebident.triangle import _sides_defining_relation, triangle_recurrence

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


_ZERO = LaurentPoly.zero()  # immutable, so one instance serves every passing cell


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


def _convolution(f: list, g: list, n: int) -> LaurentPoly:
    """sum_{l=0..n} f[l] g[n-l] over two row lists.

    Every product is accumulated into one term map, pruned once at the end,
    so no partial sum is built.  When f is g the terms l and n-l are equal,
    so each cross product is accumulated once and the total doubled, and a
    middle square (even n) is added once.
    """
    acc: dict = {}
    if f is not g:
        for l in range(n + 1):
            _k.iadd_mul(acc, f[l]._terms, g[n - l]._terms)
        return LaurentPoly._raw(_k.prune_zeros(acc))
    for l in range((n + 1) // 2):
        _k.iadd_mul(acc, f[l]._terms, f[n - l]._terms)
    cross = LaurentPoly._raw(_k.prune_zeros(acc))
    return 2 * cross + (f[n // 2] * f[n // 2] if n % 2 == 0 else _ZERO)


@lru_cache(maxsize=None)
def _legendre_convolution(alpha: int, n: int) -> LaurentPoly:
    """sum_l r_l r_{n-l} over the integer Legendre rows r of order alpha,
    built once per (alpha, n) and shared by U_from_Legendre, cor3 and cor4."""
    p = _rows(Family.LEGENDRE, alpha, n)
    return _convolution(p, p, n)


def _legendre_selfconv(k: int) -> LaurentPoly:
    """sum_{j=0..k} p_j p_{k-j}; equals U_k (certified by U_from_Legendre).

    The rows are r_j = 2^j p_j, so their self-convolution divides by 2^k.
    """
    return _divide_exact(_legendre_convolution(1, k), 2**k, f"Legendre self-convolution {k}")


# -- side builders -------------------------------------------------------------
#
# Each builder returns (L', R', d): two `LaurentPoly` sides with integer
# coefficients whose true values are L'/d and R'/d, for a positive integer
# d.  Rows are read by index from the lists of `_rows`, fetched once per
# cell up to the highest row the cell reads.


def _sides_intro(n: int):
    u = _rows(Family.U, 1, n)
    return (n + 1) * u[n], _convolution(_rows(Family.T_GF, 1, n), u, n), 1


def _sides_legendre(n: int, alpha: int):
    d = _scale(Family.LEGENDRE, alpha) ** n
    return d * _rows(Family.U, alpha, n)[n], _legendre_convolution(alpha, n), d


def _rhs_weights(n: int, row: tuple) -> tuple:
    """(k, w_k) pairs: _rhs's integer weight on x^(k-n-2N) base[k], N = len(row)."""
    N = len(row)
    coef: dict = {}
    for i in range(1, N + 1):
        ai = row[i - 1] * math.factorial(i)
        for m in range(n + 1):
            k = n - m + i
            c = ai * math.comb(2 * N + m - i - 1, m) * math.comb(k, i)
            coef[k] = coef.get(k, 0) + c
    return tuple((k, c) for k, c in coef.items() if c)


_thm2_sums: dict = {}


def _rhs(n: int, N: int, base: list) -> LaurentPoly:
    """The right-hand side shared by thm2 through thm7, without a prefactor.

    sum_{i=1..N} sum_{m=0..n} a_i(N) i! C(2N+m-i-1, m) C(n-m+i, i)
      x^{i-2N-m} base[n-m+i]

    This is thm2's l-sum with m = n - l and (K)_i = i! C(K, i).  With
    k = n-m+i the power of x is k-n-2N, so the integer weights are summed
    per k first.  Over U's own row list the sum is thm2's; it is built
    once per (n, triangle row) and kept, and every cell whose base rows
    equal U's (see `_rows_or_U`) takes it.
    """
    row = triangle_recurrence(N).rows[N - 1]
    shared = base is _rows(Family.U, 1, 0)
    if shared and (n, row) in _thm2_sums:
        return _thm2_sums[n, row]
    rhs = LaurentPoly.combination((c, k - n - 2 * N, base[k]) for k, c in _rhs_weights(n, row))
    # Threads that race here build equal sums; setdefault keeps the first.
    return _thm2_sums.setdefault((n, row), rhs) if shared else rhs


@lru_cache(maxsize=None)
def _q_taps(alpha: int, c: int, lag: int) -> tuple:
    """(C(alpha, k) c^k, k lag) for k = 1..alpha: q(t)^alpha past its 1, q = 1 + c t^lag.

    Built here, not read from `families._taps`, which filtered G: taps
    shared by the filter and this inverse would cancel any error in them.
    """
    return tuple((math.comb(alpha, k) * c**k, k * lag) for k in range(1, alpha + 1))


# (kind, alpha, c, lag) -> rows 0.. of q(t)^(-alpha) G, q = 1 + c t^lag.
_unfiltered: dict = {}


def _unfilter(kind: Family, alpha: int, c: int, lag: int, n: int) -> list:
    """Rows 0..n (at least) of H = q(t)^(-alpha) G, q = 1 + c t^lag and G
    the order-alpha rows of ``kind``, kept per (kind, alpha, c, lag).

    q^alpha H = G gives each row from G's and at most alpha earlier ones:

        H_m = G_m - sum_{k=1..alpha} C(alpha, k) c^k H_{m - k lag}.
    """
    key = kind, alpha, c, lag
    H = _unfiltered.get(key, ())
    if len(H) > n:
        return H
    G, taps = _rows(kind, alpha, n), _q_taps(alpha, c, lag)

    def step(H, m):
        return LaurentPoly.combination(
            [(1, 0, G[m])] + [(-coef, 0, H[m - back]) for coef, back in taps if back <= m]
        )

    H = _unfiltered[key] = _extended(H, n, step)
    return H


# key -> how many leading rows of the base equal U's.  Every value stored is
# true of the rows.
_prefix: dict = {}


def _rows_or_U(key, top: int) -> list:
    """Rows 0..top (at least) of the base ``key`` names, or U's row list if they all equal U's.

    ``key`` is (kind, c, lag) for `_unfilter` of family ``kind`` at order 1,
    or Family.LEGENDRE for `_legendre_selfconv`.  The length of the prefix
    of rows that equal U's is kept per key.  A cell whose rows lie inside
    it gets U's list, builds nothing, and so takes thm2's shared sum from
    `_rhs`.  Any other cell builds the rows past the rows it has, compares
    them with U's structurally up to the first that differs, and sums its
    own rows unless none does.  The Legendre self-convolutions keep no
    list: they start from U's prefix.
    """
    U = _rows(Family.U, 1, top)
    prefix = _prefix.get(key, 0)
    if top < prefix:
        return U
    if key is Family.LEGENDRE:
        rows = _extended(U[:prefix], top, lambda rows, k: _legendre_selfconv(k))
    else:
        kind, c, lag = key
        rows = _unfilter(kind, 1, c, lag, top)
    while prefix <= top and rows[prefix] == U[prefix]:
        prefix += 1
    _prefix[key] = prefix
    return U if top < prefix else rows


def _thm2_denominator(N: int) -> int:
    """2^N N!, the denominator of thm2's prefactor."""
    return 2**N * math.factorial(N)


def _sides_thm2(n: int, N: int):
    d = _thm2_denominator(N)
    return d * _rows(Family.U, N + 1, n)[n], _rhs(n, N, _rows(Family.U, 1, n + N)), d


def _sides_cor3(n: int, N: int):
    d, d_conv = _thm2_denominator(N), _scale(Family.LEGENDRE, N + 1) ** n
    rhs = d_conv * _rhs(n, N, _rows(Family.U, 1, n + N))
    return d * _legendre_convolution(N + 1, n), rhs, d_conv * d


def _sides_cor4(n: int, N: int):
    d = _thm2_denominator(N)
    rhs = _rhs(n, N, _rows_or_U(Family.LEGENDRE, n + N))
    return d * _rows(Family.U, N + 1, n)[n], rhs, d


def _sides_thm5_6(kind: Family, c: int, lag: int, n: int, N: int):
    """thm5 (V, c = -1) and thm6 (W, c = 1), q(t) = 1 + c t^lag with lag = 1:
    d H_n for H = q^(-N-1) G against thm2's sum over the base q^(-1) G."""
    d = _thm2_denominator(N)
    lhs = d * _unfilter(kind, N + 1, c, lag, n)[n]
    return lhs, _rhs(n, N, _rows_or_U((kind, c, lag), n + N)), d


def _sides_thm7(c: int, lag: int, n: int, N: int, first_kind: str):
    """thm7, q(t) = 1 - t^2: thm5's sides for T~ (or classical T), doubled.

    Its prefactor 2^(N+1) N! stays on the left and twice thm2's sum is its
    right side, so d = 1.
    """
    kind = Family.T_GF if first_kind == "gf" else Family.T_CLASSICAL
    lhs = 2 * _thm2_denominator(N) * _unfilter(kind, N + 1, c, lag, n)[n]
    return lhs, 2 * _rhs(n, N, _rows_or_U((kind, c, lag), n + N)), 1


# -- the catalog -----------------------------------------------------------------


class _Identity(namedtuple("_Identity", "entry_point params sides fixed_N tracks_rhs")):
    """One catalog row.

    ``entry_point`` names the public ``verify_*`` function and ``params``
    its names for the grid's N and for first_kind, as far as it takes them;
    ``sides`` takes that function's arguments by name and returns (L', R', d).
    ``fixed_N`` is the grid's only N (alpha) value, or None
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
        "verify_thm5", ("N",), partial(_sides_thm5_6, Family.V, -1, 1), None, True
    ),
    IdentityId.THM6: _Identity(
        "verify_thm6", ("N",), partial(_sides_thm5_6, Family.W, 1, 1), None, True
    ),
    IdentityId.THM7: _Identity(
        "verify_thm7", ("N", "first_kind"), partial(_sides_thm7, -1, 2), None, True
    ),
    # Not an IdentityId: certified per N at one series order, off the grid.
    "defining_relation": _Identity(
        "verify_defining_relation", ("N",), _sides_defining_relation, None, False
    ),
}


# -- verification driver ---------------------------------------------------------


def _check_args(first_kind: str = "gf", **indices: int) -> None:
    """Reject arguments that would make a cell pass vacuously or fail late.

    ``indices`` go by their entry point's names.  N and alpha below 1 and
    any other index (n, order, a grid bound) below 0 would leave the sums
    empty, and an order below 3N would not prove the defining relation.  A
    bool or non-int index is a TypeError: True would certify as n = 1 and
    report "n": true.
    """
    if first_kind not in ("gf", "classical"):
        raise ValueError(f"first_kind must be 'gf' or 'classical', got {first_kind!r}")
    for name, value in indices.items():
        if type(value) is not int:
            _require_int(name, value)
        least = int(name in ("N", "alpha"))
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    order, N = indices.get("order"), indices.get("N")
    if order is not None and order < 3 * N:
        raise ValueError(f"series order {order} must be at least 3N={3 * N}")


def _certify(identity: str, **params) -> ReportEntry:
    """Certify one cell of ``identity``: validate, build both sides, compare, time.

    ``params`` are the entry point's own arguments by name.  The report's
    n column holds the series order for the defining relation, and its N
    column alpha for the Legendre convolutions and 0 for the introductory
    identity.
    """
    _check_args(**params)
    row = _CATALOG[identity]
    start = time.perf_counter()
    lhs, rhs, d = row.sides(**params)
    rhs_polynomial = rhs.is_polynomial() if row.tracks_rhs else None
    passed = lhs == rhs
    # Only a failure pays for the rationals.
    residual = _ZERO if passed else LaurentPoly(((lhs - rhs) / d).terms)
    return ReportEntry(
        identity,
        params.get("n", params.get("order")),
        params.get("N", params.get("alpha", 0)),
        passed,
        residual,
        rhs_polynomial,
        (time.perf_counter() - start) * 1000.0,
    )


def verify_intro_U_from_T(n: int) -> ReportEntry:
    return _certify("intro_U_from_T", n=n)


def verify_U_from_Legendre(n: int, alpha: int = 1) -> ReportEntry:
    identity = "U_from_Legendre" if alpha == 1 else "Ualpha_from_Legendre"
    return _certify(identity, n=n, alpha=alpha)


def verify_thm2(n: int, N: int) -> ReportEntry:
    return _certify("thm2", n=n, N=N)


def verify_cor3(n: int, N: int) -> ReportEntry:
    return _certify("cor3", n=n, N=N)


def verify_cor4_reconstructed(n: int, N: int) -> ReportEntry:
    return _certify("cor4_reconstructed", n=n, N=N)


def verify_thm5(n: int, N: int) -> ReportEntry:
    return _certify("thm5", n=n, N=N)


def verify_thm6(n: int, N: int) -> ReportEntry:
    return _certify("thm6", n=n, N=N)


def verify_thm7(n: int, N: int, first_kind: str = "gf") -> ReportEntry:
    return _certify("thm7", n=n, N=N, first_kind=first_kind)


# -- suite runner -----------------------------------------------------------------


def suite_cells(identity: IdentityId, n_max: int, N_max: int):
    """Deterministic (N, n) grid per identity; N doubles as alpha where noted.

    Raises TypeError for a bool or non-int bound and ValueError for a
    negative one.
    """
    _check_args(n_max=n_max, N_max=N_max)
    fixed = _CATALOG[IdentityId(identity)].fixed_N
    orders = range(1, N_max + 1) if fixed is None else (fixed,)
    return [(N, n) for N in orders for n in range(n_max + 1)]


def _select(identities, n_max: int, N_max: int) -> list:
    """(identity, cells) pairs for the selected identities, in catalog order.

    Each identity's grid is built once, here.

    Raises ValueError for a negative grid, an empty selection or an identity
    the grid gives no cells, any of which would otherwise pass vacuously,
    and TypeError for a bool or non-int bound or a single id (a str) in
    place of a collection of them.
    """
    _check_args(n_max=n_max, N_max=N_max)
    if isinstance(identities, str):
        raise TypeError(f"identities must be a collection of ids, got {identities!r}")
    wanted = {IdentityId(x) for x in identities}
    if not wanted:
        raise ValueError("identities must name at least one identity")
    selected = [(i, suite_cells(i, n_max, N_max)) for i in IdentityId if i in wanted]
    empty = [i.value for i, cells in selected if not cells]
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
    _check_args(first_kind)
    report = VerificationReport()
    for identity, cells in selected:
        row = _CATALOG[identity]
        name = identity.value
        # Looked up on the module, not bound at import, so that wrappers
        # installed there (tracing, counting) see every cell.
        check = globals()[row.entry_point]
        for N, n in cells:
            params = dict(zip(row.params, (N, first_kind)))
            entry = check(n, **params)
            if entry.identity != name:  # Ualpha_from_Legendre at alpha = 1
                entry = entry._replace(identity=name)
            report.entries.append(entry)
    return report
