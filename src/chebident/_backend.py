"""Hot arithmetic kernels on term maps.

A Laurent polynomial is represented by a dict mapping integer exponents to
nonzero exact coefficients (int or Fraction).  These are the package's
only kernels and carry essentially all of its runtime.  `laurent` calls
them through this module's attributes, so a profiler can wrap them here;
the module keeps its name for that reason.

The x-convolution is written once, as the in-place `iadd_mul`, which
`mul_terms` (the `LaurentPoly` product) accumulates through.
`LaurentPoly.combination`, a weighted sum of shifted polynomials,
accumulates through `iadd_scaled_shifted`.  Subtraction is addition of the
negation.

Returned dicts are always canonical (no zero coefficients) except for the
in-place `iadd_scaled_shifted` and `iadd_mul`, whose accumulator the
caller prunes once at the end via `prune_zeros`.  When nothing cancelled,
`prune_zeros` returns the accumulator itself instead of a copy, so its
caller must own the dict it passes (`mul_terms` and
`LaurentPoly.combination` each pass a fresh one).
"""

from __future__ import annotations


def add_terms(a, b):
    """Canonical sum of two term maps."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            out[e] = c
        else:
            v = v + c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def scale_terms(a, c):
    """c * a for a scalar c; the zero scalar yields the empty map."""
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def mul_terms(a, b):
    """Exact convolution of two term maps (exponents add)."""
    out = {}
    iadd_mul(out, a, b)
    return prune_zeros(out)


def iadd_scaled_shifted(acc, src, c, k):
    """In place: acc += c * x^k * src.  May leave explicit zeros in acc."""
    for e, v in src.items():
        e2 = e + k
        w = acc.get(e2)
        acc[e2] = v * c if w is None else w + v * c


def iadd_mul(acc, a, b):
    """In place: acc += a * b.  May leave explicit zeros in acc."""
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = acc.get(e)
            acc[e] = ca * cb if v is None else v + ca * cb


def prune_zeros(d):
    """Canonical form of d: d itself when no coefficient is zero, else a
    pruned copy (d is left untouched)."""
    if all(d.values()):
        return d
    return {e: v for e, v in d.items() if v}
