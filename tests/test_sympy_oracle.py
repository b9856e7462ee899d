"""Family rows and the series oracle against sympy's own Chebyshev,
Legendre and Gegenbauer code.

Both of the package's routes are checked here against a third one: the
Gegenbauer recurrence behind `family_polys`, and `series.gf_expand`, which
expands q(t)^alpha (1 - 2xt + t^2)^(-lambda) from the explicit Gegenbauer
sum and reads no family rows.

The last tests pin the P-rows of tests/_oracles.py in u = x - t,
c = 1 - x^2, and the t = 0 values i! U_i that the defining relation reads,
against sympy's t-derivatives of 1/D, and are symbolic proofs: the
induction step and base case of the defining relation for every N and
lambda (see triangle.py), and the one-term Bessel form of a_i(N) for
every N.
"""

import functools
from fractions import Fraction

import pytest

from chebident.families import Family, FamilySpec, _rows, family_polys
from chebident.series import gf_expand

from _oracles import p_row

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
T = sympy.Symbol("t")
N_MAX = 24

# The numerators q(t) of the families whose lambda is alpha.
NUMERATORS = {Family.U: 1, Family.V: 1 - T, Family.W: 1 + T, Family.T_GF: 1 - T**2}


@functools.cache
def gegenbauer(n, lam):
    return sympy.gegenbauer(n, lam, X)


def terms_of(expr):
    poly = sympy.Poly(sympy.expand(expr), X)
    return {
        e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms() if c != 0
    }


def assert_rows(kind, alpha, reference, rows=None):
    if rows is None:
        rows = family_polys(FamilySpec(kind, alpha), N_MAX)
    for n, row in enumerate(rows):
        assert row.terms == terms_of(reference(n)), (kind, alpha, n)


@pytest.mark.parametrize(
    "kind,reference",
    [
        (Family.T_CLASSICAL, lambda n: sympy.chebyshevt(n, X)),
        (Family.U, lambda n: sympy.chebyshevu(n, X)),
        (Family.LEGENDRE, lambda n: sympy.legendre(n, X)),
    ],
)
def test_base_families(kind, reference):
    assert_rows(kind, 1, reference)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_u_powers_are_gegenbauer(alpha):
    assert_rows(Family.U, alpha, lambda n: sympy.gegenbauer(n, alpha, X))


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_legendre_powers_are_gegenbauer(alpha):
    half = sympy.Rational(alpha, 2)
    assert_rows(Family.LEGENDRE, alpha, lambda n: sympy.gegenbauer(n, half, X))


@pytest.mark.parametrize("alpha", range(1, 7))
def test_legendre_series_oracle_is_gegenbauer(alpha):
    half = sympy.Rational(alpha, 2)
    rows = gf_expand(Family.LEGENDRE, alpha, N_MAX).coeffs
    assert_rows(Family.LEGENDRE, alpha, lambda n: sympy.gegenbauer(n, half, X), rows)


@pytest.mark.parametrize("kind", list(NUMERATORS))
@pytest.mark.parametrize("alpha", range(1, 7))
def test_series_oracle_is_filtered_gegenbauer(kind, alpha):
    # [t^n] q^alpha (1-2xt+t^2)^(-alpha) = sum_k [t^k] q^alpha * C_{n-k}^(alpha)
    q = sympy.Poly(NUMERATORS[kind] ** alpha, T).all_coeffs()[::-1]
    rows = gf_expand(kind, alpha, N_MAX).coeffs

    def reference(n):
        return sum(c * gegenbauer(n - k, alpha) for k, c in enumerate(q[: n + 1]))

    assert_rows(kind, alpha, reference, rows)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_scaled_legendre_table_is_gegenbauer(alpha):
    # The integer rows verify convolves: s^m C_m^(alpha/2), s = 2 for odd alpha.
    rows, s = _rows(Family.LEGENDRE, alpha, N_MAX), 2 if alpha % 2 else 1
    half = sympy.Rational(alpha, 2)
    reference = lambda n: s**n * sympy.gegenbauer(n, half, X)  # noqa: E731
    assert_rows(Family.LEGENDRE, alpha, reference, rows[: N_MAX + 1])
    assert all(type(c) is int for row in rows for c in row.terms.values())


# -- the triangle, proved for every N ------------------------------------------
#
# triangle.py's induction: E_(N+1) = [u D d/dt + 2N D + 2(lambda+N) u^2] E_N
# with u = x - t, D = 1 - 2xt + t^2.  Expressions are written in the symbols
# u and D (positive, so that u^j / u^j cancels) and P, P' for a generic
# P_j and its t-derivative; d/dt then acts by the chain rule.

LAM, NN, J, I = sympy.symbols("lambda N j i")
U, D = sympy.symbols("u D", positive=True)
P, DP = sympy.symbols("P P'")


def _ddt(expr):
    """d/dt of an expression in u, D and P: u' = -1, D' = -2u, P' = DP."""
    return -sympy.diff(expr, U) - 2 * U * sympy.diff(expr, D) + DP * sympy.diff(expr, P)


def _induction_operator(E):
    return U * D * _ddt(E) + 2 * NN * D * E + 2 * (LAM + NN) * U**2 * E


def test_chain_rule_derivatives():
    u, D_xt = X - T, 1 - 2 * X * T + T**2
    assert sympy.diff(u, T) == -1
    assert sympy.expand(sympy.diff(D_xt, T) + 2 * u) == 0


def test_p_rows_are_the_derivatives_of_one_over_D():
    # The closed-form P-rows, homogeneous of weight i in u = x - t and
    # c = 1 - x^2, against sympy's own t-derivatives:
    # d^i/dt^i (1/D) = P_i(x - t, 1 - x^2) / D^(i+1).
    u, c, D_xt = X - T, 1 - X**2, 1 - 2 * X * T + T**2
    for i in range(1, 9):
        P_i = sum(p * u ** (i - 2 * k) * c**k for k, p in enumerate(p_row(i)))
        assert sympy.cancel(sympy.diff(1 / D_xt, T, i) - P_i / D_xt ** (i + 1)) == 0, i


def test_derivatives_of_one_over_D_at_zero_are_U_rows():
    # What the defining relation reads at t = 0: D = 1 there, so
    # P_i = d^i/dt^i (1/D) = i! U_i(x).
    D_xt = 1 - 2 * X * T + T**2
    for i in range(13):
        at_zero = sympy.diff(1 / D_xt, T, i).subs(T, 0)
        assert sympy.expand(at_zero - sympy.factorial(i) * sympy.chebyshevu(i, X)) == 0, i


def test_defining_relation_induction_step():
    # Divided by u^j D^(N-j), the image of u^j P D^(N-j) is
    # (2N-j) D P + u (P' D + 2(lambda+j) u P): the triangle recurrence's
    # (2N-j) a_j(N) and a_j(N) u^(j+1) P_(j+1) D^(N-j).
    divided = _induction_operator(U**J * P * D ** (NN - J)) / (U**J * D ** (NN - J))
    step = (2 * NN - J) * D * P + U * D * DP + 2 * (LAM + J) * U**2 * P
    assert sympy.simplify(divided - step) == 0


def test_defining_relation_constant_term_and_base_case():
    # op(u^(2N)) = 2(lambda+N) u^(2N+2): 2^N (lambda)_N u^(2N) steps to
    # 2^(N+1) (lambda)_(N+1) u^(2N+2).
    image = _induction_operator(U ** (2 * NN))
    assert sympy.simplify(image - 2 * (LAM + NN) * U ** (2 * NN + 2)) == 0
    # E_1 = 2 lambda u^2 - a_1(1) u P_1, with P_1 = P_0' D + 2 lambda u P_0, P_0 = 1.
    P1 = _ddt(sympy.Integer(1)) * D + 2 * LAM * U
    assert sympy.simplify(2 * LAM * U**2 - U * P1) == 0


def _bessel(i, N):
    """a_i(N) = (2N-i-1)! / ((i-1)! (N-i)! 2^(N-i)), the Bessel-polynomial triangle."""
    f = sympy.factorial
    return f(2 * N - i - 1) / (f(i - 1) * f(N - i) * 2 ** (N - i))


def _is_one(ratio) -> bool:
    return sympy.simplify(sympy.combsimp(ratio)) == 1


def test_bessel_form_satisfies_the_recurrence():
    # With N and i symbolic: the interior step
    # a_i(N+1) = a_{i-1}(N) + (2N-i) a_i(N) and the first column
    # a_1(N+1) = (2N-1) a_1(N); then the diagonal a_N(N) = 1 and the seed.
    assert _is_one((_bessel(I - 1, NN) + (2 * NN - I) * _bessel(I, NN)) / _bessel(I, NN + 1))
    assert _is_one(_bessel(1, NN + 1) / ((2 * NN - 1) * _bessel(1, NN)))
    assert _is_one(_bessel(NN, NN))
    assert _bessel(1, 1) == 1
