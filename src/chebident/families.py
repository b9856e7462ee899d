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
Each table row is built in one pass over its exponents, the step and its
division by m together; the division is exact, and a remainder raises, it
is never rounded.  Row m of a family is the filter
sum_k [t^k] q(t)^alpha * C_{m-k}, at most alpha+1 taps built once per
(kind, alpha); for q = 1 it is the table row itself, shared, not copied.
W is the exception: (1+t)^alpha (1-2xt+t^2)^(-alpha) is V's generating
function at (-x, -t), so W_m(x) = (-1)^m V_m(-x), and W's row m is V's with
the sign of every coefficient of x^e flipped when m + e is odd.  The
series oracle filters W by its own (1+t)^alpha, so it still checks this.

`_rows` is the one row store: integer rows for every kind and order, row
m scaled by s^m, where s = `_scale(kind, alpha)` is 2 for half-integer
lambda (Legendre at odd alpha) and 1 otherwise.  `family_poly` and
`family_polys` divide by s^m with `LaurentPoly /` (this module imports no
`fractions`), so rationals appear only in the public Legendre rows at odd
alpha; `verify` convolves the integer rows and carries s^n as a
denominator.

T_gf and T_classical are deliberately separate families: mixing them up
shifts every identity by factors of 2.  FamilySpec allows T_classical at
order 1 only; thm7's normalization guard reads higher orders via `_rows`.
Rows are kept in one store, `_cache`, one list per (kind, alpha), grown
lazily by `laurent._extended`, with no lock.  The table for 2 lambda = a is
the list of (U, a/2) for even a and of (Legendre, a) for odd a; Legendre
at even order delegates to U and keeps no list.  Returned polynomials are
immutable.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from math import comb

from chebident.laurent import LaurentPoly, _extended, _require_int

__all__ = ["Family", "FamilySpec", "family_poly", "family_polys"]


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


# kind -> (c, e, d, h): numerator q(t) = 1 + c x^e t^d, lambda = alpha / h.
# Only `_scale` reads W's entry: W's rows are V's reflected.
_TABLE = {
    Family.U: (0, 0, 0, 1),
    Family.V: (-1, 0, 1, 1),
    Family.W: (1, 0, 1, 1),
    Family.T_GF: (-1, 0, 2, 1),
    Family.T_CLASSICAL: (-1, 1, 1, 1),
    Family.LEGENDRE: (0, 0, 0, 2),
}

_cache: dict[tuple[Family, int], list[LaurentPoly]] = {}


def _gegenbauer_row(a: int, rows: list, m: int) -> LaurentPoly:
    """Integer row m of the table for lambda = a/2 (C_m, or 2^m C_m when a
    is odd), from its rows m-1 and m-2 in ``rows``."""
    if m == 0:
        return LaurentPoly.one()
    s = 1 + a % 2  # the table's row m is s^m C_m
    # One pass over row m's exponents (those of m's parity): the step
    # m R_m = c1 x R_{m-1} + c2 R_{m-2} and its exact division by m.
    c1, c2 = s * (2 * m + a - 2), -s * s * (m + a - 2)
    r1 = rows[m - 1]._terms
    r2 = rows[m - 2]._terms if m >= 2 else {}
    row = {}
    for e in range(m % 2, m + 1, 2):
        c = c1 * r1.get(e - 1, 0) + c2 * r2.get(e, 0)
        q, r = divmod(c, m)
        if r:
            raise ArithmeticError(
                f"Gegenbauer row {m} for 2 lambda = {a}: {c} x^{e} is not divisible by {m}"
            )
        if q:
            row[e] = q
    return LaurentPoly._raw(row)


def _scale(kind: Family, alpha: int) -> int:
    """s with family row m = _rows(kind, alpha, m)[m] / s^m: 2 for half-integer lambda."""
    return 2 if alpha % _TABLE[kind][3] else 1


@lru_cache(maxsize=None)
def _taps(alpha: int, c: int, e: int, d: int) -> tuple:
    """(coefficient, x-shift, t-lag) taps of q(t)^alpha for q = 1 + c x^e t^d."""
    return tuple((comb(alpha, k) * c**k, e * k, d * k) for k in range(alpha + 1))


def _rows(kind: Family, alpha: int, n: int) -> list[LaurentPoly]:
    """Integer rows 0..n (at least) of the order-alpha power of any family,
    row m scaled by s^m (see `_scale`), kept in `_cache` per (kind, alpha).

    U and odd-order Legendre run the Gegenbauer step; even-order Legendre
    is U's list at alpha/2, the same list; V, T_gf and T_classical filter
    U's rows at alpha by their taps; W's rows are V's reflected.
    """
    rows = _cache.get((kind, alpha), ())
    if len(rows) > n:
        return rows
    c, e, d, h = _TABLE[kind]
    # Each branch chooses the row step; `_extended` runs it.
    if kind is Family.W:
        # W_m(x) = (-1)^m V_m(-x): (1+t)^alpha D(x,t)^(-alpha) is V's generating
        # function at (-x, -t).
        v = _rows(Family.V, alpha, n)

        def step(rows, m):
            return LaurentPoly._raw({k: -b if (m + k) % 2 else b for k, b in v[m]._terms.items()})

    elif c:
        u, taps = _rows(Family.U, alpha, n), _taps(alpha, c, e, d)

        def step(rows, m):
            return LaurentPoly.combination(
                (coef, shift, u[m - lag]) for coef, shift, lag in taps if lag <= m
            )

    elif kind is Family.LEGENDRE and alpha % 2 == 0:
        # Integer lambda = alpha/2: the rows are U's at alpha/2, shared, not
        # copied.  No entry is kept: it would go stale once U's list is replaced.
        return _rows(Family.U, alpha // 2, n)
    else:
        step = partial(_gegenbauer_row, 2 * alpha // h)
    rows = _cache[kind, alpha] = _extended(rows, n, step)
    return rows


def family_poly(spec: FamilySpec, n: int) -> LaurentPoly:
    """Degree-n member of the family, always a true polynomial."""
    _require_int("n", n)
    if n < 0:
        raise ValueError(f"polynomial index must be >= 0, got {n}")
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(spec)
    row, s = _rows(spec.kind, spec.alpha, n)[n], _scale(spec.kind, spec.alpha)
    return row if s == 1 else row / s**n


def family_polys(spec: FamilySpec, n_max: int) -> list[LaurentPoly]:
    """Members 0..n_max of the family, as a list."""
    _require_int("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(spec)
    s = _scale(spec.kind, spec.alpha)
    rows = _rows(spec.kind, spec.alpha, n_max)
    return rows[: n_max + 1] if s == 1 else [rows[m] / s**m for m in range(n_max + 1)]
