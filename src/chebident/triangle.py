"""The coefficient triangle a_i(N) of the derivative expansion of F.

For F(t, x) = 1/(1 - 2tx + t^2) the N-fold power satisfies

    2^N N! F^(N+1) = sum_{i=1..N} a_i(N) (x-t)^(i-2N) F^(i),

where F^(i) is the i-th t-derivative.  The integer coefficients a_i(N)
obey the recurrence

    a_1(N+1)     = (2N-1) a_1(N)
    a_i(N+1)     = a_{i-1}(N) + (2N-i) a_i(N)      (2 <= i <= N)
    a_{N+1}(N+1) = a_N(N)

seeded by a_1(1) = 1.  In one term,

    a_i(N) = C(2N-i-1, i-1) (2N-2i-1)!! = (n+k)! / (2^k (n-k)! k!)

with n = N-1 and k = N-i: the coefficient triangle of the Bessel
polynomials (Grosswald, Bessel Polynomials, LNM 698; OEIS A001498).  The
recurrence is normative here; the closed forms (`a1_closed`, `a_closed`)
are independent cross-checks.

With D = 1 - 2xt + t^2, u = x - t and F^(i) = P_i / D^(i+1), where P_0 = 1
and P_{i+1} = P_i' D + 2(i+1) u P_i (' = d/dt), multiplying the relation by
u^(2N) D^(N+1) leaves the polynomial identity E_N = 0 in t, of degree <= 2N:

    E_N = 2^N N! u^(2N) - sum_{i=1..N} a_i(N) u^i P_i D^(N-i).

`verify_defining_relation` certifies it for one N.  It holds for every N by
induction.  The series difference E_N u^(-2N) D^(-N-1), differentiated in t
and divided by u, is the next one, so

    E_{N+1} = [u D d/dt + 2N D + 2(N+1) u^2] E_N.

That operator maps 2^N N! u^(2N) to 2^(N+1) (N+1)! u^(2N+2), and
u^j P_j D^(N-j) to (2N-j) u^j P_j D^(N+1-j) + u^(j+1) P_{j+1} D^(N-j),
which is the triangle recurrence; and E_1 = 2u^2 - u P_1 = 0.
tests/test_sympy_oracle.py proves both steps with N, j and lambda symbolic,
for D^(-lambda-N), (lambda)_N and 2(lambda+j) in place of D^(-1-N), N! and
2(j+1).

Entries grow superexponentially (a_1(13) = 23!! > 3*10^11), hence exact
big integers throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from chebident.exact import _require_int, double_factorial, falling_factorial
from chebident.laurent import LaurentPoly

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


_triangles: dict[int, Triangle] = {}


def triangle_recurrence(n_max: int) -> Triangle:
    """Rows 1..n_max by the recurrence.

    One `Triangle` is kept per ``n_max``.  It is an immutable tuple of int
    tuples, so every caller shares it and no lock is needed.  A missing one
    is built on the kept triangle for n_max - 1, sharing its rows, when
    there is one, and from a_1(1) = 1 otherwise.
    """
    _require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    tri = _triangles.get(n_max)
    if tri is None:
        below = _triangles.get(n_max - 1)
        rows = list(below.rows) if below else [(1,)]
        for N in range(len(rows), n_max):
            prev = rows[-1]
            nxt = [(2 * N - 1) * prev[0]]
            nxt.extend(prev[i - 2] + (2 * N - i) * prev[i - 1] for i in range(2, N + 1))
            nxt.append(prev[-1])
            rows.append(tuple(nxt))
        # Threads that race here build equal triangles; setdefault keeps the first.
        tri = _triangles.setdefault(n_max, Triangle(tuple(rows)))
    return tri


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


def _taps(seq, m, taps):
    """(c, k, seq[m - j]) for the (c, k, j) in ``taps`` with m - j inside ``seq``.

    Fed to `LaurentPoly.combination`, this is coefficient m of
    sum c x^k t^j * seq, for a t-polynomial ``seq`` (a list indexed by
    t-power).
    """
    return ((c, k, seq[m - j]) for c, k, j in taps if 0 <= m - j < len(seq))


# D = 1 - 2xt + t^2 as (c, k, j) taps: c x^k t^j.
_D_TAPS = ((1, 0, 0), (-2, 1, 1), (1, 0, 2))


def _sides_defining_relation(N: int, order: int):
    """The two sides of E_N = 0 (see the module docstring) as (L', R', 1).

    L' and R' are exact t-polynomials, lists of x-coefficients indexed by
    t-power, with nothing truncated: deg_t P_i <= i, and R', summed by
    Horner in D, has deg_t <= 2i after step i.  Every coefficient is one
    `LaurentPoly.combination` of monomial taps, so no series and no
    polynomial product runs:

        P_i[m] = (m+1) P_{i-1}[m+1] + 2(i-m) x P_{i-1}[m] + (m-1-2i) P_{i-1}[m-1]
        R'_i[m] = R'_{i-1}[m] - 2x R'_{i-1}[m-1] + R'_{i-1}[m-2]
                  + sum_j a_i(N) C(i,j) (-1)^j x^(i-j) P_i[m-j]
        L'[m] = 2^N N! C(2N,m) (-1)^m x^(2N-m)
    """
    row = triangle_recurrence(N).rows[N - 1]
    P = [LaurentPoly.one()]
    rhs: list = []
    for i in range(1, N + 1):
        P = [
            LaurentPoly.combination(
                _taps(P, m, ((m + 1, 0, -1), (2 * (i - m), 1, 0), (m - 1 - 2 * i, 0, 1)))
            )
            for m in range(i + 1)
        ]
        # a_i(N) (x-t)^i as taps.
        x_t = [(row[i - 1] * math.comb(i, j) * (-1) ** j, i - j, j) for j in range(i + 1)]
        rhs = [
            LaurentPoly.combination(chain(_taps(rhs, m, _D_TAPS), _taps(P, m, x_t)))
            for m in range(2 * i + 1)
        ]
    scale = 2**N * math.factorial(N)
    lhs = [
        LaurentPoly.x_power(2 * N - m, scale * math.comb(2 * N, m) * (-1) ** m)
        for m in range(2 * N + 1)
    ]
    return lhs, rhs, 1


def verify_defining_relation(N: int, order: int):
    """Certify 2^N N! F^(N+1) = sum_i a_i(N) (x-t)^(i-2N) F^(i) for all t-orders.

    A PASS is E_N = 0 coefficient by coefficient.  ``order``, the report's
    n, is the t-order of the series comparison this certificate stands for:
    differentiating i times costs i orders, so it reaches t^(order-N).  The
    series difference is E_N times D^(-N-1), whose constant term is 1, so
    both have the same lowest nonzero coefficient, at some t^k with
    k <= 2N.  ``order`` must be >= 3N, so that k <= order - N; a smaller
    order raises ValueError.  Failure is reported, not raised, with that
    lowest nonzero coefficient as the residual.
    """
    from chebident.verify import _certify  # verify imports this module

    return _certify("defining_relation", N=N, order=order)
