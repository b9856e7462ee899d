"""Exact scalar arithmetic and combinatorial primitives.

Every coefficient in this package is an exact rational.  `BigRational` is
the stdlib `fractions.Fraction`, which already guarantees the canonical
form we rely on: lowest terms, positive denominator, zero stored as 0/1.
Plain `int` is used interchangeably wherever a value is known to be an
integer; Python promotes mixed int/Fraction arithmetic exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

BigRational = Fraction

__all__ = ["BigRational", "binomial", "double_factorial", "falling_factorial"]


def _require_int(name: str, value) -> None:
    """Reject bools and non-integers before they reach range() or a recurrence."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def binomial(top: int, k: int) -> int:
    """Binomial coefficient C(top, k) with C(top, k) = 0 for k > top.

    Negative ``top`` is rejected: every binomial occurring in the verified
    identities has a nonnegative top, so a negative value indicates a
    transcription error upstream.  Bools and non-ints raise TypeError.
    """
    # Inline so that plain ints (verify's per-term calls) pay no extra call.
    if type(top) is not int or type(k) is not int:
        _require_int("top", top)
        _require_int("k", k)
    if top < 0:
        raise ValueError(f"binomial: negative top {top}")
    if k < 0:
        raise ValueError(f"binomial: negative k {k}")
    if k > top:
        return 0
    return math.comb(top, k)


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

    ``x`` may be an int or a Fraction; the product is exact either way.
    """
    _require_int("k", k)
    if k < 0:
        raise ValueError(f"falling_factorial: negative order {k}")
    out = 1
    for j in range(k):
        out *= x - j
    return out
