"""Exact Laurent polynomials in a single variable x.

A `LaurentPoly` is a finite sum of integer powers of x, negative exponents
allowed, with exact rational coefficients.  The term map is kept canonical
(no zero coefficients), so equality is plain structural equality of the
map - the verification layer's pass/fail test needs no tolerance.

Values are immutable: every operation returns a new polynomial, and
instances are safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction

from chebident import _backend as _k
from chebident.exact import _require_int

__all__ = ["LaurentPoly"]


def _as_coeff(c):
    """Normalize an input coefficient to int or Fraction; reject other types."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _is_scalar(c) -> bool:
    """Whether c is an int or Fraction scalar; a bool is not (True * p would be p)."""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


_TERM_RE = re.compile(
    r"""^(?:
        (?P<num>\d+)(?:/(?P<den>\d+))?(?:\*(?P<xa>x(?:\^(?P<ea>-?\d+))?))?
        | (?P<xb>x(?:\^(?P<eb>-?\d+))?)
    )$""",
    re.VERBOSE,
)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over exact rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        normalized = {}
        if terms:
            for e, c in terms.items():
                _require_int("exponent", e)
                c = _as_coeff(c)
                if c:
                    normalized[e] = c
        self._terms = normalized

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # Trusted constructor: terms must already be canonical.
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        c = _as_coeff(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def x_power(cls, e: int, c=1) -> "LaurentPoly":
        """c * x^e."""
        _require_int("e", e)
        c = _as_coeff(c)
        return cls._raw({e: c} if c else {})

    @classmethod
    def combination(cls, items) -> "LaurentPoly":
        """sum c * x^k * p over the (c, k, p) triples in ``items``.

        The weights c are int or Fraction; zero weights are skipped.  The
        sum is accumulated in one term map and pruned once at the end, so
        a weighted sum of many polynomials costs one pass over their terms
        instead of one copy of the growing total per term.
        """
        acc: dict = {}
        for c, k, p in items:
            if c:
                _k.iadd_scaled_shifted(acc, p._terms, c, k)
        return cls._raw(_k.prune_zeros(acc))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the canonical exponent -> coefficient map."""
        return dict(self._terms)

    def coefficient(self, e: int):
        """Coefficient of x^e (0 when absent)."""
        _require_int("e", e)
        return self._terms.get(e, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_polynomial(self) -> bool:
        """True iff no negative exponents remain (the zero polynomial counts)."""
        return not self._terms or min(self._terms) >= 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_k.add_terms(self._terms, other._terms))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentPoly._raw(_k.mul_terms(self._terms, other._terms))
        if type(other) is int or _is_scalar(other):
            return LaurentPoly._raw(_k.scale_terms(self._terms, other))
        return NotImplemented

    def __rmul__(self, other):
        if type(other) is int or _is_scalar(other):
            return LaurentPoly._raw(_k.scale_terms(self._terms, other))
        return NotImplemented

    def __truediv__(self, other):
        if _is_scalar(other):
            if other == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return LaurentPoly._raw(_k.scale_terms(self._terms, Fraction(1) / other))
        return NotImplemented

    def __pow__(self, k: int):
        _require_int("k", k)
        if k < 0:
            raise ValueError(f"polynomial power must be an integer >= 0, got {k}")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k: every exponent increases by k."""
        _require_int("k", k)
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self._terms.items()})

    def derivative(self) -> "LaurentPoly":
        """Termwise d/dx: c*x^e maps to c*e*x^(e-1)."""
        return LaurentPoly._raw(
            {e - 1: c * e for e, c in self._terms.items() if e != 0}
        )

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- canonical text / serialization --------------------------------------

    def __str__(self):
        """Canonical text: descending exponents, e.g. ``4*x^2 - 1``, ``1/2*x^-3``."""
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            num, den = self._terms[e].as_integer_ratio()
            negative = num < 0
            num = abs(num)
            q = str(num) if den == 1 else f"{num}/{den}"
            if e == 0:
                body = q
            else:
                xpart = "x" if e == 1 else f"x^{e}"
                body = xpart if (num == 1 and den == 1) else f"{q}*{xpart}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self!s})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text rendering back into a polynomial."""
        s = text.strip()
        if s == "0":
            return cls.zero()
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
        return cls(terms)

    def to_triples(self) -> list:
        """[exponent, numerator, denominator] triples, descending exponents."""
        out = []
        for e in sorted(self._terms, reverse=True):
            num, den = self._terms[e].as_integer_ratio()
            out.append([e, num, den])
        return out

    @classmethod
    def from_triples(cls, triples) -> "LaurentPoly":
        """Inverse of `to_triples`.  Each field is an int or a decimal-integer
        string (the CLI's JSON writes numerators and denominators as strings);
        anything else raises TypeError, and a zero denominator ValueError."""
        terms: dict = {}
        for triple in triples:
            if len(triple) != 3:
                raise ValueError(f"expected [exponent, numerator, denominator], got {triple!r}")
            e, num, den = (_triple_int(v, triple) for v in triple)
            if den == 0:
                raise ValueError(f"zero denominator in triple {triple!r}")
            terms[e] = terms.get(e, 0) + Fraction(num, den)
        return cls(terms)


_DECIMAL_INT = re.compile(r"-?[0-9]+")


def _triple_int(value, triple) -> int:
    """One field of a triple as an int; nothing is rounded or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        return int(value)
    raise TypeError(
        f"triple fields must be int or decimal-integer str, got {value!r} in {triple!r}"
    )
