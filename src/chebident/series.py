"""Truncated formal power series in t with Laurent-polynomial coefficients.

This is the oracle machinery: every generating function is expanded here
independently of the recurrence route in `chebident.families`, and the
two are required to agree coefficient by coefficient.  `gf_expand` reads
no family rows and does not run their three-term recurrence.  It writes
every order-alpha generating function as one formula,
q(t)^alpha (1 - 2xt + t^2)^(-alpha/h), from its own table of numerators q
and divisors h (h = 2 for Legendre, 1 otherwise).  The denominator factor
comes from the explicit Gegenbauer sum (the binomial series in t(2x - t)),
over integers, for integer and half-integer lambda alike; it is built once
per (2 lambda, order) and shared by every kind with that lambda.  The
numerator q(t)^alpha has at most d alpha + 1 scalar coefficients (d =
deg q), so it is applied as that many taps on the factor's rows, not as a
series product; for q = 1 the factor is the expansion.

A series carries its truncation order explicitly.  Arithmetic between two
series truncates to the shorter operand (verification drivers naturally
produce staggered orders after differentiation), and all coefficient
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from chebident import _backend as _k
from chebident.exact import _require_int, binomial
from chebident.families import Family
from chebident.laurent import LaurentPoly

__all__ = [
    "TruncatedSeries",
    "denominator_series",
    "gf_expand",
    "x_minus_t_inverse_pow",
    "x_minus_t_pow",
]


def _as_poly(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    raise TypeError(f"series coefficients must be LaurentPoly, got {type(value).__name__}")


class TruncatedSeries:
    """Formal power series in t kept to a fixed order, coefficients in x."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        polys = [_as_poly(c) for c in coeffs]
        if order is None:
            if not polys:
                raise ValueError("a series needs an order or at least one coefficient")
            order = len(polys) - 1
        _require_int("order", order)
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        if len(polys) < order + 1:
            polys.extend([LaurentPoly.zero()] * (order + 1 - len(polys)))
        self._coeffs = tuple(polys[: order + 1])

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TruncatedSeries":
        s = object.__new__(cls)
        s._coeffs = coeffs
        return s

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([LaurentPoly.one()], order)

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

    def truncate(self, order: int) -> "TruncatedSeries":
        _require_int("order", order)
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return TruncatedSeries._raw(self._coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    # -- arithmetic (all truncating to the shorter operand) ------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries._raw(
            tuple(
                LaurentPoly._raw(_k.add_terms(a._terms, b._terms))
                for a, b in zip(self._coeffs, other._coeffs)
            )[: order + 1]
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return TruncatedSeries._raw(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            raw = _k.cauchy_mul(
                [c._terms for c in self._coeffs],
                [c._terms for c in other._coeffs],
                order,
            )
            return TruncatedSeries._raw(tuple(LaurentPoly._raw(d) for d in raw))
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "TruncatedSeries":
        """Multiply every coefficient by a scalar or a fixed polynomial."""
        factor = _as_poly(factor)
        return TruncatedSeries._raw(tuple(c * factor for c in self._coeffs))

    def pow(self, k: int) -> "TruncatedSeries":
        """k-fold product (k >= 1), truncated at this series' order."""
        _require_int("k", k)
        if k < 1:
            raise ValueError(f"series power must be >= 1, got {k}")
        result = self
        base = self
        k -= 1
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = pow

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse via the standard coefficient recurrence.

        Requires the constant term (in t) to be a nonzero constant in x:
        b_0 = 1/a_0 and b_m = -(1/a_0) sum_{j=1..m} a_j b_{m-j}.
        """
        a0 = self._coeffs[0]
        if a0._terms.keys() != {0}:
            raise ValueError(
                "series is not invertible: constant coefficient must be a nonzero constant"
            )
        inv0 = Fraction(1) / a0.coefficient(0)
        if inv0.denominator == 1:
            inv0 = int(inv0)  # keep integer-only series integer-typed
        neg = [_k.scale_terms(c._terms, -inv0) for c in self._coeffs]
        out = [{0: inv0}]
        for m in range(1, self.order + 1):
            acc: dict = {}
            for j in range(1, m + 1):
                if neg[j]:
                    _k.iadd_mul(acc, neg[j], out[m - j])
            out.append(_k.prune_zeros(acc))
        return TruncatedSeries._raw(tuple(LaurentPoly._raw(d) for d in out))

    def sqrt(self) -> "TruncatedSeries":
        """The square root r with r_0 = 1 of a series s with constant term 1.

        From r^2 = s: r_m = (s_m - sum_{j=1..m-1} r_j r_{m-j}) / 2.  The
        recurrence runs on R_m = 4^m r_m, the root of s(4t) = 1 + 4u, which
        is integral wherever s is (sqrt(1 + 4u) has integer coefficients),
        so an integer series divides into Fractions only at the end.
        """
        if self._coeffs[0]._terms != {0: 1}:
            raise ValueError("series square root needs constant coefficient 1")
        out, neg = [{0: 1}], [None]
        for m in range(1, self.order + 1):
            acc = _k.scale_terms(self._coeffs[m]._terms, 4**m)
            for j in range(1, m):
                _k.iadd_mul(acc, neg[j], out[m - j])
            out.append(LaurentPoly(_k.scale_terms(acc, Fraction(1, 2)))._terms)
            neg.append(_k.scale_terms(out[m], -1))
        return TruncatedSeries._raw(
            tuple(LaurentPoly(_k.scale_terms(d, Fraction(1, 4**m))) for m, d in enumerate(out))
        )

    def derivative_t(self) -> "TruncatedSeries":
        """d/dt: coefficient m of the result is (m+1) * coefficient m+1; order drops by 1."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        return TruncatedSeries._raw(
            tuple((m + 1) * self._coeffs[m + 1] for m in range(self.order))
        )

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


def denominator_series(order: int) -> TruncatedSeries:
    """The common denominator 1 - 2xt + t^2 as a series in t."""
    _require_int("order", order)
    return TruncatedSeries(
        [LaurentPoly.one(), LaurentPoly.x_power(1, -2), LaurentPoly.one()], order
    )


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
            c = (-1) ** (m - k) * weights[k] * binomial(k, m - k)
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


def x_minus_t_inverse_pow(k: int, order: int) -> TruncatedSeries:
    """(x - t)^(-k) for k >= 1: coefficient of t^m is C(k-1+m, m) x^(-k-m)."""
    _require_int("k", k)
    _require_int("order", order)
    if k < 1:
        raise ValueError(f"inverse power must be >= 1, got {k}")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    return TruncatedSeries._raw(
        tuple(
            LaurentPoly.x_power(-k - m, binomial(k - 1 + m, m))
            for m in range(order + 1)
        )
    )


def x_minus_t_pow(k: int, order: int) -> TruncatedSeries:
    """(x - t)^k for k >= 0, exactly: coefficient of t^j is C(k, j) (-1)^j x^(k-j)."""
    _require_int("k", k)
    _require_int("order", order)
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return TruncatedSeries(
        [
            LaurentPoly.x_power(k - j, (-1) ** j * binomial(k, j))
            for j in range(min(k, order) + 1)
        ],
        order,
    )
