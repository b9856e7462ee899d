"""Exact Laurent polynomials in a single variable x.

A `LaurentPoly` is a finite sum of integer powers of x, negative exponents
allowed, with exact rational coefficients.  The term map is kept canonical
(no zero coefficients), so equality is plain structural equality of the
map - the verification layer's pass/fail test needs no tolerance.
Division by a scalar, `p / d`, is exact: a quotient coefficient is an
int where it is integral, else a Fraction.

Values are immutable: every operation returns a new polynomial, and
instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction

from chebident import _backend as _k

__all__ = ["LaurentPoly"]


def _require_int(name: str, value) -> None:
    """Reject bools and non-integers before they reach range() or a recurrence."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _extended(seq, n: int, step):
    """``seq`` if it has entries 0..n, else a new, longer list that starts with
    it, entry m built as step(entries, m).  ``seq`` is never extended in place,
    so a list once handed out never changes, and a store that only replaces
    its lists by these holds complete lists and needs no lock."""
    if len(seq) > n:
        return seq
    entries = list(seq)
    for m in range(len(entries), n + 1):
        entries.append(step(entries, m))
    return entries


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
            quotient = {}
            for e, c in self._terms.items():
                q, r = divmod(c, other)
                quotient[e] = Fraction(c, other) if r else q
            return LaurentPoly._raw(quotient)
        return NotImplemented

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

    def to_triples(self) -> list:
        """[exponent, numerator, denominator] triples, descending exponents."""
        out = []
        for e in sorted(self._terms, reverse=True):
            num, den = self._terms[e].as_integer_ratio()
            out.append([e, num, den])
        return out
