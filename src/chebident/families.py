"""The polynomial families and their convolution powers, from one recurrence.

The order-alpha power of every family has the generating function
q(t)^alpha (1 - 2xt + t^2)^(-lambda) (DLMF 18.12), with

    kind         numerator q(t)   lambda      order 1
    U            1                alpha       U_n = C_n^(1)
    V, W         1 - t, 1 + t     alpha       third and fourth kind
    T_gf         1 - t^2          alpha       T~_0 = 1, T~_n = 2 T_n (n >= 1)
    T_classical  1 - xt           alpha       T_n
    Legendre     1                alpha / 2   p_n = C_n^(1/2)

Gegenbauer rows come from  m C_m = 2(m+lambda-1) x C_{m-1} - (m+2lambda-2)
C_{m-2}, C_0 = 1, kept in one integer table per a = 2 lambda.  For integer
lambda the table holds C_m itself.  For half-integer lambda = a/2 it holds
R_m = 2^m C_m, from

    m R_m = 2(2m+a-2) x R_{m-1} - 4(m+a-2) R_{m-2},

which stays integral: with t -> 2t the generating function becomes
((1-4u)^(-1/2))^a with u = xt - t^2, and (1-4u)^(-1/2) = sum C(2k,k) u^k.
Both recurrences divide by m exactly; a remainder raises, it is never
rounded.  Row m of a family is the filter sum_k [t^k] q(t)^alpha * C_{m-k},
at most alpha+1 taps; for q = 1 it is the table row itself, shared, not
copied.

`_rows` is the one row store: integer rows for every kind and order, row
m scaled by s^m, where s = `_scale(kind, alpha)` is 2 for half-integer
lambda (Legendre at odd alpha) and 1 otherwise.  `family_poly` and
`family_polys` are the only code that divides by s^m, so rationals appear
only in the public Legendre rows at odd alpha; `verify` convolves the
integer rows and carries s^n as a denominator.

T_gf and T_classical are deliberately separate families: mixing them up
shifts every identity by factors of 2.  FamilySpec allows T_classical at
order 1 only; thm7's normalization guard reads higher orders via `_rows`.
Rows are cached per 2 lambda and per (kind, alpha), extended lazily and
append-only behind a lock; returned polynomials are immutable.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from chebident.exact import _require_int, binomial
from chebident.laurent import LaurentPoly

__all__ = [
    "Family",
    "FamilySpec",
    "family_poly",
    "family_polys",
    "explicit_T",
    "ode_residual",
]


class Family(str, Enum):
    T_CLASSICAL = "T_classical"
    T_GF = "T_gf"
    U = "U"
    V = "V"
    W = "W"
    LEGENDRE = "Legendre"


class FamilySpec(namedtuple("FamilySpec", "kind alpha")):
    """A family together with its convolution order (1 = base family)."""

    __slots__ = ()

    def __new__(cls, kind: Family, alpha: int = 1):
        kind = Family(kind)
        _require_int("alpha", alpha)
        if alpha < 1:
            raise ValueError(f"family order must be >= 1, got {alpha}")
        if kind is Family.T_CLASSICAL and alpha != 1:
            raise ValueError(
                "T_classical has no higher orders; use T_gf for convolution powers"
            )
        return super().__new__(cls, kind, alpha)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and so _replace) skips __new__; keep the checks.
        return cls(*iterable)


_X = LaurentPoly.x_power(1)

# kind -> (c, e, d, h): numerator q(t) = 1 + c x^e t^d, lambda = alpha / h
_TABLE = {
    Family.U: (0, 0, 0, 1),
    Family.V: (-1, 0, 1, 1),
    Family.W: (1, 0, 1, 1),
    Family.T_GF: (-1, 0, 2, 1),
    Family.T_CLASSICAL: (-1, 1, 1, 1),
    Family.LEGENDRE: (0, 0, 0, 2),
}

_gegenbauer: dict[int, list[LaurentPoly]] = {}
_cache: dict[tuple[Family, int], list[LaurentPoly]] = {}
_lock = threading.Lock()


def _divide_exact(p: LaurentPoly, m: int, what: str) -> LaurentPoly:
    """p / m for an integer polynomial p; a remainder raises, it is never rounded."""
    quotient = {}
    for e, c in p.terms.items():
        quotient[e], r = divmod(c, m)
        if r:
            raise ArithmeticError(f"{what}: {c} x^{e} is not divisible by {m}")
    return LaurentPoly._raw(quotient)


def _gegenbauer_rows(a: int, n: int) -> list[LaurentPoly]:
    """Integer rows 0..n (at least) of the table for lambda = a/2: C_m, or
    2^m C_m when a is odd.  Caller holds _lock."""
    s = 1 + a % 2  # the table's row m is s^m C_m
    rows = _gegenbauer.setdefault(a, [LaurentPoly.one()])
    for m in range(len(rows), n + 1):
        taps = [(s * (2 * m + a - 2), 1, rows[m - 1])]
        if m >= 2:
            taps.append((-s * s * (m + a - 2), 0, rows[m - 2]))
        what = f"Gegenbauer row {m} for 2 lambda = {a}"
        rows.append(_divide_exact(LaurentPoly.combination(taps), m, what))
    return rows


def _scale(kind: Family, alpha: int) -> int:
    """s with family row m = _rows(kind, alpha, m)[m] / s^m: 2 for half-integer lambda."""
    return 2 if alpha % _TABLE[kind][3] else 1


def _rows(kind: Family, alpha: int, n: int) -> list[LaurentPoly]:
    """Integer rows 0..n (at least) of the order-alpha power of any family,
    row m scaled by s^m (see `_scale`).  For q = 1 this is the Gegenbauer
    table itself."""
    rows = _cache.get((kind, alpha), ())
    if len(rows) > n:
        return rows  # append-only: rows 0..n are complete, no lock needed
    c, e, d, h = _TABLE[kind]
    with _lock:
        base = _gegenbauer_rows(2 * alpha // h, n)
        # q = 1: the family rows are the table rows, shared, so nothing is left to fill.
        rows = _cache.setdefault((kind, alpha), base if c == 0 else [])
        taps = [(binomial(alpha, k) * c**k, e * k, d * k) for k in range(alpha + 1)]
        for m in range(len(rows), n + 1):
            rows.append(
                LaurentPoly.combination(
                    (coef, shift, base[m - lag]) for coef, shift, lag in taps if lag <= m
                )
            )
        return rows


def _divided(row: LaurentPoly, d: int) -> LaurentPoly:
    """row / d, sharing ``row`` itself when d = 1; exact quotients stay int."""
    if d == 1:
        return row
    quotient = {}
    for e, c in row._terms.items():
        q, r = divmod(c, d)
        quotient[e] = Fraction(c, d) if r else q
    return LaurentPoly._raw(quotient)


def family_poly(spec: FamilySpec, n: int) -> LaurentPoly:
    """Degree-n member of the family, always a true polynomial."""
    _require_int("n", n)
    if n < 0:
        raise ValueError(f"polynomial index must be >= 0, got {n}")
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(spec)
    return _divided(_rows(spec.kind, spec.alpha, n)[n], _scale(spec.kind, spec.alpha) ** n)


def family_polys(spec: FamilySpec, n_max: int) -> list[LaurentPoly]:
    """Members 0..n_max of the family, as a list."""
    _require_int("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(spec)
    s = _scale(spec.kind, spec.alpha)
    rows = _rows(spec.kind, spec.alpha, n_max)
    return [_divided(rows[m], s**m) for m in range(n_max + 1)]


def explicit_T(n: int) -> LaurentPoly:
    """Closed form for the classical first-kind polynomial:

    T_n(x) = sum_{m=0..floor(n/2)} C(n, 2m) x^(n-2m) (x^2-1)^m
    """
    _require_int("n", n)
    if n < 0:
        raise ValueError(f"polynomial index must be >= 0, got {n}")
    x2m1 = LaurentPoly({2: 1, 0: -1})
    total = LaurentPoly.zero()
    for m in range(n // 2 + 1):
        total = total + binomial(n, 2 * m) * (x2m1**m).shift(n - 2 * m)
    return total


def ode_residual(kind: Family, n: int) -> LaurentPoly:
    """Residual of the matching second-order differential equation.

    T_classical solves (1-x^2) y'' - x y' + n^2 y = 0 and U solves
    (1-x^2) y'' - 3x y' + n(n+2) y = 0; the residual is identically zero
    when the recurrences are right.
    """
    kind = Family(kind)
    if kind not in (Family.T_CLASSICAL, Family.U):
        raise ValueError(f"no differential-equation check for family {kind.value}")
    y = family_poly(FamilySpec(kind), n)
    y1 = y.derivative()
    y2 = y1.derivative()
    one_minus_x2 = LaurentPoly({0: 1, 2: -1})
    if kind is Family.T_CLASSICAL:
        return one_minus_x2 * y2 - _X * y1 + (n * n) * y
    return one_minus_x2 * y2 - 3 * (_X * y1) + (n * (n + 2)) * y
