"""Independent cross-checks that the tests compare the package against.

Nothing in `chebident` calls these: no CLI path, no verdict and no
benchmark workload.  They are closed forms and textbook operations,
written separately from the routes they check:

  * `a1_closed` and `a_closed`, the closed forms of the coefficient
    triangle, against `triangle_recurrence`, which is normative;
  * `p_row`, the integer numerator P_i of F^(i) = P_i / D^(i+1) in
    u = x - t and c = 1 - x^2, whose weight-homogeneity the defining
    relation's Bernstein argument rests on;
  * `double_factorial` and `falling_factorial`, the scalars they use;
  * `explicit_T`, the closed form of the classical first-kind polynomial,
    and `ode_residual`, the differential equations of T and U, against
    the family rows;
  * `power`, `shift` and `derivative` on Laurent polynomials;
  * `parse` and `from_triples`, which read back the text that
    `LaurentPoly.__str__` and `LaurentPoly.to_triples` write, so a round
    trip checks both writers.

Each raises on bad input as the package's own entry points do: TypeError
for a bool or non-int index, ValueError for an index out of range.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from chebident.families import Family, FamilySpec, family_poly
from chebident.laurent import LaurentPoly, _require_int

# -- scalars ------------------------------------------------------------------


def double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with the empty-product convention (-1)!! = 1."""
    _require_int("m", m)
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial: need odd m >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def falling_factorial(x, k: int):
    """Falling factorial (x)_k = x(x-1)...(x-k+1), with (x)_0 = 1.

    ``x`` must be an int or a Fraction, so the product is exact; a bool,
    a float or any other type raises TypeError.
    """
    if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
        raise TypeError(f"x must be an int or a Fraction, got {type(x).__name__}")
    _require_int("k", k)
    if k < 0:
        raise ValueError(f"falling_factorial: negative order {k}")
    out = 1
    for j in range(k):
        out *= x - j
    return out


# -- Laurent polynomial operations --------------------------------------------


def power(p: LaurentPoly, k: int) -> LaurentPoly:
    """p^k for k >= 0, by repeated squaring."""
    _require_int("k", k)
    if k < 0:
        raise ValueError(f"polynomial power must be an integer >= 0, got {k}")
    result = LaurentPoly.one()
    base = p
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def shift(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times x^k: every exponent increases by k; p itself when k = 0."""
    _require_int("k", k)
    if k == 0:
        return p
    return LaurentPoly({e + k: c for e, c in p.terms.items()})


def derivative(p: LaurentPoly) -> LaurentPoly:
    """Termwise d/dx: c*x^e maps to c*e*x^(e-1)."""
    return LaurentPoly({e - 1: c * e for e, c in p.terms.items() if e != 0})


# -- reading back what LaurentPoly writes ---------------------------------------

_TERM_RE = re.compile(
    r"""^(?:
        (?P<num>\d+)(?:/(?P<den>\d+))?(?:\*(?P<xa>x(?:\^(?P<ea>-?\d+))?))?
        | (?P<xb>x(?:\^(?P<eb>-?\d+))?)
    )$""",
    re.VERBOSE,
)

_DECIMAL_INT = re.compile(r"-?[0-9]+")


def parse(text: str) -> LaurentPoly:
    """Parse the canonical text rendering back into a polynomial."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:].lstrip()
    chunks = re.split(r"\s([+-])\s", s)
    terms: dict = {}
    pending_sign = sign
    for i, chunk in enumerate(chunks):
        if i % 2 == 1:
            pending_sign = 1 if chunk == "+" else -1
            continue
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        if m.group("xb") is not None:
            num, den = 1, 1
            exp = int(m.group("eb")) if m.group("eb") else 1
        else:
            num = int(m.group("num"))
            den = int(m.group("den")) if m.group("den") else 1
            if den == 0:
                raise ValueError(f"zero denominator in term {chunk.strip()!r}")
            if m.group("xa") is not None:
                exp = int(m.group("ea")) if m.group("ea") else 1
            else:
                exp = 0
        coeff = Fraction(pending_sign * num, den)
        terms[exp] = terms.get(exp, 0) + coeff
    return LaurentPoly(terms)


def from_triples(triples) -> LaurentPoly:
    """Inverse of `LaurentPoly.to_triples`.  Each field is an int or a
    decimal-integer string (the CLI's JSON writes numerators and
    denominators as strings); anything else raises TypeError, and a zero
    denominator ValueError."""
    terms: dict = {}
    for triple in triples:
        if len(triple) != 3:
            raise ValueError(f"expected [exponent, numerator, denominator], got {triple!r}")
        e, num, den = (_triple_int(v, triple) for v in triple)
        if den == 0:
            raise ValueError(f"zero denominator in triple {triple!r}")
        terms[e] = terms.get(e, 0) + Fraction(num, den)
    return LaurentPoly(terms)


def _triple_int(value, triple) -> int:
    """One field of a triple as an int; nothing is rounded or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        return int(value)
    raise TypeError(
        f"triple fields must be int or decimal-integer str, got {value!r} in {triple!r}"
    )


# -- the coefficient triangle in closed form ------------------------------------


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


def p_row(i: int) -> tuple:
    """P_i of F^(i) = P_i / D^(i+1), D = 1 - 2xt + t^2, in u = x - t and c = 1 - x^2.

    D = u^2 + c and d/dt = -d/du, so P_i is homogeneous of weight i (u of
    weight 1, c of weight 2): entry k is the integer coefficient of
    u^(i-2k) c^k.  With c = b^2, 1/D is the imaginary part of
    1/(b (u - ib)), so differentiating i times in t gives the closed form

        P_i[k] = i! (-1)^k C(i+1, 2k+1)       (0 <= k <= i/2).
    """
    _require_int("i", i)
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    f = math.factorial(i)
    return tuple(f * (-1) ** k * math.comb(i + 1, 2 * k + 1) for k in range(i // 2 + 1))


# -- the first and second kinds -------------------------------------------------


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
        total = total + math.comb(n, 2 * m) * shift(power(x2m1, m), n - 2 * m)
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
    y1 = derivative(y)
    y2 = derivative(y1)
    x = LaurentPoly.x_power(1)
    one_minus_x2 = LaurentPoly({0: 1, 2: -1})
    if kind is Family.T_CLASSICAL:
        return one_minus_x2 * y2 - x * y1 + (n * n) * y
    return one_minus_x2 * y2 - 3 * (x * y1) + (n * (n + 2)) * y
