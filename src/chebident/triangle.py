"""The coefficient triangle a_i(N) of the derivative expansion of F.

For F(t, x) = 1/(1 - 2tx + t^2) the N-fold power satisfies

    2^N N! F^(N+1) = sum_{i=1..N} a_i(N) (x-t)^(i-2N) F^(i),

where F^(i) is the i-th t-derivative.  The integer coefficients a_i(N)
obey the recurrence

    a_1(N+1)     = (2N-1) a_1(N)
    a_i(N+1)     = a_{i-1}(N) + (2N-i) a_i(N)      (2 <= i <= N)
    a_{N+1}(N+1) = a_N(N)

seeded by a_1(1) = 1.  The recurrence is normative here; the closed forms
(`a1_closed`, `a_closed`) are independent cross-checks, and
`verify_defining_relation` certifies the defining relation itself.  With
D = 1 - 2xt + t^2, multiplying the relation by (x-t)^(2N) D^(N+1) clears
every denominator and leaves a polynomial identity in t of degree <= 2N,
which is checked exactly; nothing is inverted.  A PASS therefore proves
the relation for all t-orders.  The `order` argument names the t-series
comparison the certificate stands for and must be >= 3N, the order at
which that comparison would reach t^(2N).

Entries grow superexponentially (a_1(13) = 23!! > 3*10^11), hence exact
big integers throughout.
"""

from __future__ import annotations

import math
import threading
import time
from collections import namedtuple
from fractions import Fraction

from chebident.exact import _require_int, double_factorial, falling_factorial
from chebident.laurent import LaurentPoly
from chebident.report import ReportEntry
from chebident.series import TruncatedSeries, denominator_series, x_minus_t_pow

__all__ = [
    "Triangle",
    "triangle_recurrence",
    "a1_closed",
    "a_closed",
    "verify_defining_relation",
]


class Triangle(namedtuple("Triangle", "rows")):
    """Rows N = 1..N_max of the coefficients [a_1(N), ..., a_N(N)], as ``rows``,
    a tuple of int tuples."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def row(self, N: int) -> tuple[int, ...]:
        _require_int("N", N)
        if not 1 <= N <= self.n_max:
            raise IndexError(f"row {N} outside 1..{self.n_max}")
        return self.rows[N - 1]

    def entry(self, i: int, N: int) -> int:
        """a_i(N) for 1 <= i <= N."""
        _require_int("i", i)
        row = self.row(N)
        if not 1 <= i <= N:
            raise IndexError(f"entry index {i} outside 1..{N}")
        return row[i - 1]


_rows_cache: list[tuple[int, ...]] = [(1,)]
_lock = threading.Lock()


def _rows_up_to(n_max: int) -> list[tuple[int, ...]]:
    with _lock:
        while len(_rows_cache) < n_max:
            prev = _rows_cache[-1]
            N = len(_rows_cache)
            nxt = [(2 * N - 1) * prev[0]]
            nxt.extend(prev[i - 2] + (2 * N - i) * prev[i - 1] for i in range(2, N + 1))
            nxt.append(prev[-1])
            _rows_cache.append(tuple(nxt))
        return _rows_cache[:n_max]


def triangle_recurrence(n_max: int) -> Triangle:
    """Build rows 1..n_max by the recurrence (cached across calls)."""
    _require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return Triangle(tuple(_rows_up_to(n_max)))


def a1_closed(N: int) -> int:
    """Closed form a_1(N) = (2N-3)!!, with (-1)!! = 1."""
    _require_int("N", N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return double_factorial(2 * N - 3)


def _bounded_tuples(nvars: int, limit: int):
    """All tuples of nvars nonnegative integers with sum <= limit."""
    if nvars == 0:
        yield ()
        return
    for head in range(limit + 1):
        for tail in _bounded_tuples(nvars - 1, limit - head):
            yield (head,) + tail


def a_closed(i: int, N: int) -> int:
    """Nested-sum closed form for a_i(N), 2 <= i <= N.

    a_i(N) = sum over k_1..k_{i-1} >= 0 with sum <= N-i of
        2^K * prod_{j=2..i} (N - sum_{l=j..i-1} k_l - (2i+2-j)/2)_{k_{j-1}}
            * (2(N - i - K) - 1)!!
    with K = sum k_j.  The falling factorials have half-integer bases for
    odd j, so the sum is accumulated in exact rationals; it must collapse
    to a positive integer, anything else signals an index-pattern error.
    """
    _require_int("i", i)
    _require_int("N", N)
    if not 2 <= i <= N:
        raise ValueError(f"need 2 <= i <= N, got i={i}, N={N}")
    total = Fraction(0)
    for ks in _bounded_tuples(i - 1, N - i):
        K = sum(ks)
        term = Fraction(2**K)
        for j in range(2, i + 1):
            tail = sum(ks[l - 1] for l in range(j, i))
            base = N - tail - Fraction(2 * i + 2 - j, 2)
            term *= falling_factorial(base, ks[j - 2])
        term *= double_factorial(2 * (N - i - K) - 1)
        total += term
    if total.denominator != 1 or total <= 0:
        raise ArithmeticError(
            f"closed form for a_{i}({N}) evaluated to {total}, expected a positive integer"
        )
    return int(total)


def verify_defining_relation(N: int, order: int) -> ReportEntry:
    """Certify 2^N N! F^(N+1) = sum_i a_i(N) (x-t)^(i-2N) F^(i) for all t-orders.

    With D = 1 - 2xt + t^2 and F^(i) = P_i / D^(i+1), where P_0 = 1 and
    P_i = P_{i-1}' D - i P_{i-1} D', multiplying through by
    (x-t)^(2N) D^(N+1) clears every denominator.  What remains is the
    polynomial identity

        2^N N! (x-t)^(2N) = sum_{i=1..N} a_i(N) (x-t)^i P_i D^(N-i)

    in t, of degree <= 2N (deg_t P_i <= i), checked exactly with series
    of order 2N, so a PASS proves the relation for all t-orders.
    ``order`` is the t-order of the series comparison this certificate
    stands for (differentiating i times costs i orders, so that
    comparison reaches t^(order-N)).  The series difference is the
    polynomial difference times D^(-N-1), whose constant term is 1, so
    both have the same lowest nonzero coefficient, at some t^k with
    k <= 2N.  ``order`` must be >= 3N, so that k <= order - N; a smaller
    order raises ValueError.  Failure is reported, not raised; the
    residual recorded on failure is that lowest nonzero coefficient.
    """
    _require_int("N", N)
    _require_int("order", order)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if order < 3 * N:
        raise ValueError(f"series order {order} must be at least 3N={3 * N}")
    start = time.perf_counter()

    degree = 2 * N
    D = denominator_series(degree)
    x_t = x_minus_t_pow(1, degree)
    row = _rows_up_to(N)[N - 1]

    # Horner in D: after step i, rhs = sum_{j<=i} a_j (x-t)^j P_j D^(i-j).
    # D' = -2(x-t), so P_i = P_{i-1}' D + 2i (x-t) P_{i-1}; P_{i-1}' is
    # padded back to order 2N, which is exact since deg_t P_{i-1} < 2N.
    P = TruncatedSeries.one(degree)
    rhs = TruncatedSeries.zero(degree)
    for i in range(1, N + 1):
        P = TruncatedSeries(P.derivative_t().coeffs, degree) * D + (2 * i) * (x_t * P)
        rhs = rhs * D + row[i - 1] * (x_minus_t_pow(i, degree) * P)
    lhs = (2**N * math.factorial(N)) * x_minus_t_pow(2 * N, degree)

    residual = next((c for c in (lhs - rhs).coeffs if not c.is_zero()), LaurentPoly.zero())
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ReportEntry(
        identity="defining_relation",
        n=order,
        N=N,
        passed=residual.is_zero(),
        residual=residual,
        rhs_polynomial=None,
        elapsed_ms=elapsed_ms,
    )
