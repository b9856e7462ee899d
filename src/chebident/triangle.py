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
recurrence is normative here.  The closed forms are independent
cross-checks and live with the tests, as `a1_closed` and `a_closed` in
tests/_oracles.py.

With D = 1 - 2xt + t^2, u = x - t and F^(i) = P_i / D^(i+1), where P_0 = 1
and P_{i+1} = P_i' D + 2(i+1) u P_i (' = d/dt), multiplying the relation by
u^(2N) D^(N+1) leaves the polynomial identity E_N = 0 in t, of degree <= 2N:

    E_N = 2^N N! u^(2N) - sum_{i=1..N} a_i(N) u^i P_i D^(N-i).

In u and c = 1 - x^2, which are algebraically independent, D = u^2 + c
and d/dt = -d/du.  So P_i is a homogeneous integer polynomial of weight i
(u of weight 1, c of weight 2), and E_N one of weight 2N:
E_N = sum_{s=0..N} e_s u^(2N-2s) c^s, N+1 integers.  The tests check
P_i's weight through its closed form, `p_row` in tests/_oracles.py,
against sympy's t-derivatives of 1/D.

It is certified at t = 0 alone.  There u = x and c = 1 - x^2, so with
y = x^2 the t^0 coefficient of E_N is sum_s e_s y^(N-s) (1-y)^s: the e_s
in the Bernstein basis of degree N in y, whose N+1 polynomials are
linearly independent.  So that coefficient is zero exactly when every e_s
is, that is when E_N = 0, and a failing E_N always has its lowest nonzero
t-coefficient at t^0.  At t = 0 also D = 1 and P_i = F^(i)(0) = i! U_i(x),
so that coefficient is

    2^N N! x^(2N) - sum_{i=1..N} a_i(N) i! x^i U_i(x),

thm2's (n, N) = (0, N) cell times x^(2N), one weighted sum over U's rows.

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

from chebident.families import Family, _rows
from chebident.laurent import LaurentPoly, _extended, _require_int

__all__ = ["Triangle", "triangle_recurrence", "verify_defining_relation"]


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


def _next_triangle(triangles: list, m: int) -> Triangle:
    """Rows 1..m+1: those of ``triangles[m - 1]``, shared, and row m+1 by the
    recurrence, one formula with a_0(m) = a_(m+1)(m) = 0; a_1(1) = 1 for m = 0."""
    if m == 0:
        return Triangle(((1,),))
    rows = triangles[m - 1].rows
    a = (0, *rows[-1], 0)
    return Triangle(rows + (tuple([a[i - 1] + (2 * m - i) * a[i] for i in range(1, m + 2)]),))


# Entry m is the Triangle of rows 1..m+1, grown by `_extended`.
_triangles: list = []


def triangle_recurrence(n_max: int) -> Triangle:
    """Rows 1..n_max by the recurrence.

    One immutable `Triangle` per ``n_max`` is kept in `_triangles` and shared;
    each shares the row tuples of the one for n_max - 1.
    """
    global _triangles
    _require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    kept = _triangles
    if len(kept) < n_max:
        kept = _triangles = _extended(kept, n_max - 1, _next_triangle)
    return kept[n_max - 1]


def _sides_defining_relation(N: int, order: int):
    """The t^0 coefficients of the two sides of E_N = 0, as (L', R', 1):

        L' = 2^N N! x^(2N),
        R' = sum_{i=1..N} a_i(N) i! x^i U_i,

    one combination over U's kept rows (see the module docstring), so no
    product runs.  It is thm2's (0, N) cell times x^(2N).
    """
    row = triangle_recurrence(N).rows[N - 1]
    U = _rows(Family.U, 1, N)
    rhs = LaurentPoly.combination(
        (a * math.factorial(i), i, U[i]) for i, a in enumerate(row, 1)
    )
    return LaurentPoly.x_power(2 * N, 2**N * math.factorial(N)), rhs, 1


def verify_defining_relation(N: int, order: int):
    """Certify 2^N N! F^(N+1) = sum_i a_i(N) (x-t)^(i-2N) F^(i) for all t-orders.

    A PASS is E_N = 0, decided by its t^0 coefficient (see the module
    docstring).  ``order``, the report's n, is the t-order of the series
    comparison this certificate stands for: differentiating i times costs
    i orders, so it reaches t^(order-N).  The series difference is E_N
    times D^(-N-1), whose constant term is 1, so both have the same lowest
    nonzero coefficient, and for a failing E_N that is the t^0 one.
    ``order`` must be >= 3N, so that the comparison reaches t^(2N), the
    degree of E_N; a smaller order raises ValueError.  Failure is
    reported, not raised, with that t^0 coefficient as the residual.
    """
    from chebident.verify import _certify  # verify imports this module

    return _certify("defining_relation", N=N, order=order)
