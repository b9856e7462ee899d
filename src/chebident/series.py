"""The series oracle: generating functions expanded as truncated series in t.

Every generating function is expanded here independently of the
recurrence route in `chebident.families`, and the two are required to
agree coefficient by coefficient.  `gf_expand` reads no family rows and
does not run their three-term recurrence.  It writes every order-alpha
generating function as one formula, q(t)^alpha (1 - 2xt + t^2)^(-alpha/h),
from its own table of numerators q and divisors h (h = 2 for Legendre, 1
otherwise).  The denominator factor comes from the explicit Gegenbauer sum
(the binomial series in t(2x - t)), over integers, for integer and
half-integer lambda alike; it is built once per (2 lambda, order) and
shared by every kind with that lambda.  The numerator q(t)^alpha has at
most d alpha + 1 scalar coefficients (d = deg q), so it is applied as that
many taps on the factor's rows, not as a series product; for q = 1 the
factor is the expansion.

`TruncatedSeries` is the read-only result: the coefficients of t^0 ..
t^order as exact Laurent polynomials in x.  It has no arithmetic; callers
read rows and combine them with `LaurentPoly.combination`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from chebident.families import Family
from chebident.laurent import LaurentPoly, _require_int

__all__ = ["TruncatedSeries", "gf_expand"]


class TruncatedSeries:
    """Formal power series in t kept to a fixed order, coefficients in x.

    Only `gf_expand` builds one; there is no public constructor."""

    __slots__ = ("_coeffs",)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TruncatedSeries":
        s = object.__new__(cls)
        s._coeffs = coeffs
        return s

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, m: int) -> LaurentPoly:
        """Coefficient of t^m."""
        _require_int("m", m)
        if not 0 <= m <= self.order:
            raise IndexError(f"coefficient {m} outside truncation order {self.order}")
        return self._coeffs[m]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        inner = ", ".join(f"t^{m}: {c}" for m, c in enumerate(self._coeffs))
        return f"TruncatedSeries(order={self.order}; {inner})"


# -- generating functions -----------------------------------------------------

# kind -> (numerator q(t) coefficients, h): the order-alpha generating
# function is q(t)^alpha (1 - 2xt + t^2)^(-alpha/h) (DLMF 18.12).
_GF = {
    Family.U: ((1,), 1),
    Family.V: ((1, -1), 1),
    Family.W: ((1, 1), 1),
    Family.T_GF: ((1, 0, -1), 1),
    Family.LEGENDRE: ((1,), 2),
}


@lru_cache(maxsize=None)
def _gegenbauer_sum(a: int, order: int) -> TruncatedSeries:
    """(1 - 2xt + t^2)^(-a/2) to t^order, from the explicit Gegenbauer sum.

    With lambda = a/2, the binomial series in t(2x - t) gives
    sum_k (lambda)_k/k! t^k (2x - t)^k (DLMF 18.5.10).  Over integers, with
    I_k = 4^k (a/2)_k / k! from k I_k = 2(a + 2k - 2) I_{k-1}:

        2^m [t^m] = sum_{k+j=m} I_k C(k, j) (-1)^j x^(k-j).

    Row m is divided by 2^m once.  For even a the division is exact and the
    row stays integer-typed; for odd a a remainder makes a Fraction.  Every
    other division is exact or raises: nothing is rounded.
    """
    weights = [1]
    for k in range(1, order + 1):
        weight, r = divmod(2 * (a + 2 * k - 2) * weights[-1], k)
        if r:
            raise ArithmeticError(f"Gegenbauer weight {k} for 2 lambda = {a} is not an integer")
        weights.append(weight)
    rows = []
    for m in range(order + 1):
        scale, terms = 1 << m, {}
        for k in range((m + 1) // 2, m + 1):
            c = weights[k] * comb(k, m - k)
            if (m - k) % 2:
                c = -c
            q, r = divmod(c, scale)
            if r and a % 2 == 0:
                raise ArithmeticError(
                    f"Gegenbauer sum row {m} for 2 lambda = {a}: "
                    f"{c} x^{2 * k - m} is not divisible by {scale}"
                )
            terms[2 * k - m] = Fraction(c, scale) if r else q
        rows.append(LaurentPoly._raw(terms))
    return TruncatedSeries._raw(tuple(rows))


def gf_expand(kind, alpha: int, order: int) -> TruncatedSeries:
    """Expand the order-alpha generating function q(t)^alpha (1-2xt+t^2)^(-lambda).

    q is 1-t^2, 1, 1-t, 1+t, 1 for T_gf, U, V, W, Legendre, and lambda is
    alpha, except alpha/2 for Legendre.  The denominator factor is the
    explicit Gegenbauer sum (`_gegenbauer_sum`), one integer formula for
    every lambda, shared by every kind with the same 2 lambda.  Row m is
    sum_j [t^j] q(t)^alpha * factor_(m-j), the at most d alpha + 1 taps of
    the numerator (d = deg q); for q = 1 it is the factor row itself.
    """
    kind = Family(kind)
    _require_int("alpha", alpha)
    _require_int("order", order)
    if alpha < 1:
        raise ValueError(f"generating-function order must be >= 1, got {alpha}")
    if kind is Family.T_CLASSICAL:
        raise ValueError(
            "T_classical is not generated by its own series here; use T_gf"
        )
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    numerator, h = _GF[kind]
    factor = _gegenbauer_sum(2 * alpha // h, order)
    if numerator == (1,):
        return factor
    taps = [1]  # [t^j] q(t)^alpha, by repeated scalar convolution
    for _ in range(alpha):
        prev, taps = taps, [0] * (len(taps) + len(numerator) - 1)
        for i, p in enumerate(prev):
            for j, q in enumerate(numerator):
                taps[i + j] += p * q
    rows = factor.coeffs
    return TruncatedSeries._raw(
        tuple(
            LaurentPoly.combination((c, 0, rows[m - j]) for j, c in enumerate(taps[: m + 1]))
            for m in range(order + 1)
        )
    )
