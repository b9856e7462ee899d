import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import pytest

from chebident import _backend, triangle, verify
from chebident.families import Family
from chebident.laurent import LaurentPoly
from chebident.series import gf_expand
from chebident.triangle import Triangle, triangle_recurrence, verify_defining_relation

from _oracles import (
    a1_closed,
    a_closed,
    double_factorial,
    explicit_T,
    falling_factorial,
    power,
    shift,
)

GOLDEN_ROWS = [(1,), (1, 1), (3, 3, 1), (15, 15, 6, 1)]


def defining_relation_series(N, order):
    """The defining relation compared as t-series up to t^(order-N).

    An independent reference for the cleared-denominator certificate, read
    off the oracle's rows: F^(N+1) is gf_expand(U, N+1), coefficient l of
    the i-th t-derivative of F is i! C(l+i, i) U_(l+i) with U_k the rows of
    gf_expand(U, 1), and (x-t)^k is applied as the binomial taps
    C(k, j) (-1)^j x^(k-j).  Returns (passed, residual), where the residual
    is the lowest nonzero t-coefficient of the difference.
    """
    u = gf_expand("U", 1, order).coeffs
    f_power = gf_expand("U", N + 1, order - N).coeffs
    row = triangle.triangle_recurrence(N).rows[N - 1]
    scale = 2**N * math.factorial(N)
    for m in range(order - N + 1):
        lhs = LaurentPoly.combination(
            (scale * math.comb(2 * N, j) * (-1) ** j, 2 * N - j, f_power[m - j])
            for j in range(min(2 * N, m) + 1)
        )
        rhs = LaurentPoly.combination(
            (
                a * math.comb(i, j) * (-1) ** j * math.factorial(i) * math.comb(m - j + i, i),
                i - j,
                u[m - j + i],
            )
            for i, a in enumerate(row, 1)
            for j in range(min(i, m) + 1)
        )
        if lhs != rhs:
            return False, lhs - rhs
    return True, LaurentPoly.zero()


class TestRecurrence:
    def test_golden_rows(self):
        tri = triangle_recurrence(4)
        assert list(tri.rows) == GOLDEN_ROWS

    def test_row_five(self):
        # hand-iterated from row 4: [7*15, 15+6*15, 15+5*6, 6+4*1, 1]
        assert triangle_recurrence(5).row(5) == (105, 105, 45, 10, 1)

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            triangle_recurrence(0)

    def test_invariants_up_to_20(self):
        tri = triangle_recurrence(20)
        for N in range(1, 21):
            row = tri.row(N)
            assert len(row) == N
            assert row[-1] == 1
            assert row[0] == double_factorial(2 * N - 3)
            assert all(a > 0 for a in row)

    def test_bessel_polynomial_triangle(self):
        # a_i(N) = C(2N-i-1, i-1) (2N-2i-1)!! = (n+k)!/(2^k (n-k)! k!) with
        # n = N-1, k = N-i: the Bessel-polynomial coefficient triangle
        # (Grosswald, LNM 698; OEIS A001498).
        tri = triangle_recurrence(80)
        for N in range(1, 81):
            for i in range(1, N + 1):
                expected = math.comb(2 * N - i - 1, i - 1) * double_factorial(2 * N - 2 * i - 1)
                assert tri.entry(i, N) == expected, (i, N)

    def test_recurrence_restatement(self):
        # a_i(N+1) - a_{i-1}(N) - (2N-i) a_i(N) = 0 for 2 <= i <= N
        tri = triangle_recurrence(21)
        for N in range(2, 21):
            for i in range(2, N + 1):
                assert (
                    tri.entry(i, N + 1)
                    - tri.entry(i - 1, N)
                    - (2 * N - i) * tri.entry(i, N)
                    == 0
                )

    def test_one_step_expansion(self):
        # a_i(N+1) = sum_{k=0..N+1-i} 2^k (N - i/2)_k a_{i-1}(N-k), where the
        # deepest term uses a_{i-1}(i-1) = 1
        tri = triangle_recurrence(13)
        for N in range(1, 13):
            for i in range(2, N + 2):
                total = Fraction(0)
                for k in range(N + 1 - i + 1):
                    total += (
                        2**k
                        * falling_factorial(N - Fraction(i, 2), k)
                        * tri.entry(i - 1, N - k)
                    )
                assert total == tri.entry(i, N + 1)


class TestKeptTriangles:
    def test_one_triangle_per_n_max(self, monkeypatch):
        kept = [triangle_recurrence(n) for n in range(1, 16)]
        assert all(triangle_recurrence(n) is kept[n - 1] for n in range(1, 16))
        # A cold store builds the same rows again, as new objects.
        monkeypatch.setattr(triangle, "_triangles", [])
        for n in reversed(range(1, 16)):
            fresh = triangle_recurrence(n)
            assert fresh == kept[n - 1] and fresh is not kept[n - 1]
            assert fresh.rows == tuple(kept[14].rows[:n])

    def test_ascending_calls_extend_the_kept_triangle(self, monkeypatch):
        monkeypatch.setattr(triangle, "_triangles", [])
        ascending = [triangle_recurrence(n) for n in range(1, 41)]
        for below, tri in zip(ascending, ascending[1:]):
            assert all(a is b for a, b in zip(below.rows, tri.rows))
        monkeypatch.setattr(triangle, "_triangles", [])
        descending = [triangle_recurrence(n) for n in reversed(range(1, 41))]
        assert [t.rows for t in reversed(descending)] == [t.rows for t in ascending]
        # The build starts from the kept n_max - 1 triangle, not from a second
        # store: rows 1..5 of a kept triangle made of fresh tuples are reused.
        kept = Triangle(tuple(tuple([*row]) for row in ascending[4].rows))
        monkeypatch.setattr(triangle, "_triangles", [*ascending[:4], kept])
        assert all(a is b for a, b in zip(kept.rows, triangle_recurrence(6).rows))
        assert triangle_recurrence(6) == ascending[5]

    def test_concurrent_callers_get_equal_triangles(self, monkeypatch):
        expected = {n: triangle_recurrence(n) for n in range(1, 31)}
        monkeypatch.setattr(triangle, "_triangles", [])

        def build(i):
            order = list(range(1, 31))
            if i % 2:
                order.reverse()
            return {n: triangle_recurrence(n) for n in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(build, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        assert all(triangle_recurrence(n) == expected[n] for n in expected)


class TestTriangleAccess:
    def test_entry_and_row_bounds(self):
        tri = triangle_recurrence(3)
        assert tri.entry(2, 3) == 3
        with pytest.raises(IndexError):
            tri.row(4)
        with pytest.raises(IndexError):
            tri.entry(4, 3)
        with pytest.raises(IndexError):
            tri.entry(0, 2)

    def test_value_semantics(self):
        tri = Triangle(((1,), (1, 1)))
        assert tri.n_max == 2


class TestClosedForms:
    @pytest.mark.parametrize("N,expected", [(1, 1), (2, 1), (3, 3), (4, 15), (6, 945)])
    def test_a1_values(self, N, expected):
        assert a1_closed(N) == expected

    def test_a1_matches_recurrence(self):
        tri = triangle_recurrence(20)
        for N in range(1, 21):
            assert a1_closed(N) == tri.entry(1, N)

    @pytest.mark.parametrize("i,N,expected", [(2, 4, 15), (3, 4, 6), (2, 2, 1)])
    def test_a_closed_values(self, i, N, expected):
        assert a_closed(i, N) == expected

    def test_diagonal_is_one(self):
        for i in range(2, 9):
            assert a_closed(i, i) == 1

    def test_matches_recurrence_to_12(self):
        tri = triangle_recurrence(12)
        for N in range(2, 13):
            for i in range(2, N + 1):
                assert a_closed(i, N) == tri.entry(i, N)

    @pytest.mark.parametrize("i,N", [(1, 3), (0, 2), (5, 4)])
    def test_rejects_out_of_range(self, i, N):
        with pytest.raises(ValueError):
            a_closed(i, N)

    def test_a1_rejects_bad_n(self):
        with pytest.raises(ValueError):
            a1_closed(0)


class TestDefiningRelation:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_passes_at_order_16(self, N):
        entry = verify_defining_relation(N, 16)
        assert entry.passed
        assert entry.residual.is_zero()
        assert entry.identity == "defining_relation"
        assert (entry.N, entry.n) == (N, 16)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_defining_relation(0, 8)
        with pytest.raises(ValueError):
            verify_defining_relation(4, 3)

    @pytest.mark.parametrize("N", [1, 2, 5, 10])
    def test_order_below_degree_bound_rejected(self, N, monkeypatch):
        # D^(N+1) (LHS - RHS) has t-degree <= 2N; the comparison reaches
        # t^(order-N), so an order below 3N would not prove the relation.
        # It is rejected before any side is built: calling sides=None
        # would raise TypeError instead.
        row = verify._CATALOG["defining_relation"]
        monkeypatch.setitem(verify._CATALOG, "defining_relation", row._replace(sides=None))
        message = rf"^series order {3 * N - 1} must be at least 3N={3 * N}$"
        with pytest.raises(ValueError, match=message):
            verify_defining_relation(N, 3 * N - 1)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 12, 16, 24, 32, 48, 64, 80])
    def test_passes_at_degree_bound(self, N):
        assert verify_defining_relation(N, 3 * N).passed

    def test_combinations_grow_linearly_in_N(self, monkeypatch):
        # The right side is one weighted sum over U's kept rows, so a cell
        # makes exactly one combination, whatever N.
        combination = LaurentPoly.combination.__func__
        calls = []

        def counted(cls, items):
            calls.append(None)
            return combination(cls, items)

        monkeypatch.setattr(LaurentPoly, "combination", classmethod(counted))
        for N in range(1, 17):
            calls.clear()
            assert verify_defining_relation(N, 3 * N).passed
            assert len(calls) == 1, (N, len(calls))

    def test_sides_are_thm2_at_n_zero(self):
        # The t^0 coefficients of E_N are thm2's (0, N) cell times x^(2N).
        for N in range(1, 41):
            lhs, rhs, d = triangle._sides_defining_relation(N, 3 * N)
            thm2_lhs, thm2_rhs, _ = verify._sides_thm2(0, N)
            scale = LaurentPoly.x_power(2 * N)
            assert d == 1
            assert (lhs, rhs) == (scale * thm2_lhs, scale * thm2_rhs), N

    def test_work_does_not_depend_on_order(self):
        # The certificate is a degree-2N polynomial identity; order only
        # names the series comparison it stands for.
        entry = verify_defining_relation(3, 10**5)
        assert entry.passed
        assert entry.n == 100000

    def test_runs_no_product(self, monkeypatch):
        # Both sides are sums of x-monomials with integer weights: neither
        # the x-convolution nor the series product may run.
        def forbidden(*args):
            raise AssertionError("the defining relation ran a product")

        monkeypatch.setattr(_backend, "iadd_mul", forbidden)
        for N in range(1, 9):
            assert verify_defining_relation(N, 80).passed

    @pytest.mark.parametrize("N", range(1, 9))
    def test_perturbed_U_row_fails(self, N, monkeypatch):
        # Every coefficient of every U_i the cell reads is load-bearing:
        # a_i(N) i! > 0, so a change of U_i's coefficient changes R'.
        rows = triangle._rows(Family.U, 1, N)[: N + 1]
        cases = [(i, e) for i in range(1, N + 1) for e in rows[i].terms]
        for (i, e), delta in product(cases, (1, -3)):
            bad = list(rows)
            bad[i] = rows[i] + LaurentPoly.x_power(e, delta)
            monkeypatch.setattr(triangle, "_rows", lambda kind, alpha, n, bad=bad: bad)
            entry = verify_defining_relation(N, 3 * N)
            assert not entry.passed, (i, e, delta)
            assert not entry.residual.is_zero()

    def test_perturbed_row_fails(self, monkeypatch):
        rows = triangle_recurrence(3).rows
        bad = rows[:2] + ((rows[2][0], rows[2][1] + 1, rows[2][2]),)
        monkeypatch.setattr(triangle, "triangle_recurrence", lambda n_max: Triangle(bad[:n_max]))
        entry = verify_defining_relation(3, 16)
        assert not entry.passed
        assert not entry.residual.is_zero()


class TestSeriesRouteAgreement:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_both_routes_pass(self, N):
        for order in (3 * N, 40):
            assert verify_defining_relation(N, order).passed
            assert defining_relation_series(N, order) == (True, LaurentPoly.zero())

    @pytest.mark.parametrize("N", [*range(1, 9), 12, 16])
    def test_perturbed_rows_fail_with_equal_residuals(self, N, monkeypatch):
        rows = triangle_recurrence(N).rows
        orders = (3 * N, 3 * N + 5, 40) if N <= 8 else (3 * N,)
        for i, delta, order in product(range(N), (1, -3), orders):
            row = list(rows[-1])
            row[i] += delta
            bad = rows[:-1] + (tuple(row),)
            monkeypatch.setattr(
                triangle, "triangle_recurrence", lambda n_max: Triangle(bad[:n_max])
            )
            entry = verify_defining_relation(N, order)
            assert not entry.passed
            assert (entry.passed, entry.residual) == defining_relation_series(N, order)


def even_falling(k, N):
    """k (k-2) ... (k-2N+2)."""
    return math.prod(k - 2 * j for j in range(N))


def connection_sum(row, k):
    """sum_i (-1)^(N-i) a_i(N) (k)_i for the row [a_1(N), ..., a_N(N)]."""
    N = len(row)
    return sum((-1) ** (N - i) * a * math.perm(k, i) for i, a in enumerate(row, 1))


class TestConnectionCoefficients:
    # With u = x - t the relation is the operator identity
    # (u^-1 d/dt)^N f = sum_i a_i(N) u^(i-2N) d^i f / dt^i for any f; on
    # f = u^k, with d/dt = -d/du, it reads
    # k (k-2) ... (k-2N+2) = sum_i (-1)^(N-i) a_i(N) (k)_i.  Both sides have
    # degree N in k, so k = 0..N decides it.  Integers only: no polynomial
    # and no code of either route that builds the relation's sides.
    def test_holds_up_to_N_60(self):
        for N, row in enumerate(triangle_recurrence(60).rows, 1):
            for k in range(N + 1):
                assert even_falling(k, N) == connection_sum(row, k), (N, k)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_perturbed_entry_breaks_it(self, N):
        row = triangle_recurrence(N).rows[-1]
        for i, delta in product(range(N), (1, -3)):
            bad = list(row)
            bad[i] += delta
            assert any(even_falling(k, N) != connection_sum(bad, k) for k in range(N + 1))


# Each public function that takes an index, its valid arguments, and the
# names of the index arguments by position.
INDEX_CALLS = [
    (gf_expand, ("U", 2, 3), {1: "alpha", 2: "order"}),
    (verify_defining_relation, (1, 3), {0: "N", 1: "order"}),
    (triangle_recurrence, (2,), {0: "n_max"}),
    (a1_closed, (2,), {0: "N"}),
    (a_closed, (2, 3), {0: "i", 1: "N"}),
    (LaurentPoly.x_power, (2,), {0: "e"}),
    (shift, (LaurentPoly.one(), 2), {1: "k"}),
    (power, (LaurentPoly.one(), 2), {1: "k"}),
    (explicit_T, (2,), {0: "n"}),
    (LaurentPoly.one().coefficient, (2,), {0: "e"}),
    (gf_expand("U", 1, 3).coefficient, (2,), {0: "m"}),
    (triangle_recurrence(3).row, (2,), {0: "N"}),
    (triangle_recurrence(3).entry, (1, 2), {0: "i", 1: "N"}),
]


class TestIntegerArguments:
    # True would run as 1 and 2.0 as 2; 1.5 would fail late, if at all.
    @pytest.mark.parametrize("bad", [True, 1.5, 2.0], ids=["bool", "float", "integral-float"])
    @pytest.mark.parametrize(
        "fn,args,position,name",
        [
            (fn, args, position, name)
            for fn, args, names in INDEX_CALLS
            for position, name in names.items()
        ],
        ids=[
            f"{fn.__name__}-{name}" for fn, _, names in INDEX_CALLS for name in names.values()
        ],
    )
    def test_rejects_non_int_index(self, fn, args, position, name, bad):
        fn(*args)
        args = list(args)
        args[position] = bad
        with pytest.raises(TypeError, match=rf"^{name} must be an int"):
            fn(*args)
