"""Span tracing of chebident's module boundaries, from outside the package.

`Tracer.install()` replaces the public functions and methods at each layer
boundary with thin wrappers, at the attribute the caller looks them up
through (for example `chebident.verify.family_poly`, not
`chebident.families.family_poly`, because verify imported the name).
Each wrapped call appends one span (name, parent span, start, end) to
flat in-memory arrays; nothing is written until `write()` at the end.

Layers are the package's modules; a span named "kernels.add_terms" belongs
to layer "kernels".  A layer's self time is the duration of its spans minus
the part of them that their child spans cover.  Calls are single-threaded
and properly nested, so a child's whole duration lies inside its parent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

KERNELS = (
    "add_terms",
    "sub_terms",
    "scale_terms",
    "mul_terms",
    "cauchy_mul",
    "iadd_scaled_shifted",
)

LAURENT_METHODS = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "rmul",
    "__truediv__": "truediv",
    "__pow__": "pow",
    "shift": "shift",
    "derivative": "derivative",
    "evaluate": "evaluate",
}

SERIES_METHODS = {
    "__add__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "scale": "scale",
    "pow": "pow",
    "__pow__": "pow",
    "inverse": "inverse",
    "derivative_t": "derivative_t",
}

VERIFY_FUNCTIONS = (
    "run_suite",
    "verify_intro_U_from_T",
    "verify_U_from_Legendre",
    "verify_thm2",
    "verify_cor3",
    "verify_cor4_reconstructed",
    "verify_thm5",
    "verify_thm6",
    "verify_thm7",
)

IDENTITIES = (
    "intro_U_from_T",
    "U_from_Legendre",
    "Ualpha_from_Legendre",
    "thm2",
    "cor3",
    "cor4_reconstructed",
    "thm5",
    "thm6",
    "thm7",
)

# Work done by one kernel call: terms touched, or coefficient
# multiplications for the two products.
_KERNEL_OPS = {
    "add_terms": lambda a, b: len(a) + len(b),
    "sub_terms": lambda a, b: len(a) + len(b),
    "scale_terms": lambda a, c: len(a),
    "mul_terms": lambda a, b: len(a) * len(b),
    "iadd_scaled_shifted": lambda acc, src, c, k: len(src),
    "cauchy_mul": lambda a, b, order: _cauchy_ops(a, b, order),
}


def _cauchy_ops(a, b, order):
    la = [len(d) for d in a]
    lb = [len(d) for d in b]
    return sum(la[j] * lb[m - j] for m in range(order + 1) for j in range(m + 1))


def _coeff_bits(c) -> int:
    num, den = c.as_integer_ratio()
    return max(abs(num).bit_length(), den.bit_length())


class _FamilyRequests:
    """Row requests seen at the families boundary, for reuse and size counts."""

    def __init__(self):
        self.keys = set()
        self.rows = set()
        self.calls = 0
        self.repeats = 0
        self.max_terms = 0
        self.max_coeff_bits = 0

    def record(self, spec, n, polys, many):
        kind, alpha = (spec.kind.value, spec.alpha) if hasattr(spec, "alpha") else (str(spec), 1)
        key = (kind, alpha, n, many)
        self.calls += 1
        if key in self.keys:
            self.repeats += 1
            return
        self.keys.add(key)
        self.rows.update((kind, alpha, m) for m in (range(n + 1) if many else (n,)))
        for p in polys:
            terms = p.terms
            self.max_terms = max(self.max_terms, len(terms))
            if terms:
                self.max_coeff_bits = max(
                    self.max_coeff_bits, max(_coeff_bits(c) for c in terms.values())
                )


class Tracer:
    """Records one span per call at every wrapped boundary."""

    def __init__(self):
        self.names: list[str] = []
        self.ids = array("B")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.ops: Counter = Counter()
        self.families = _FamilyRequests()
        self._stack = [-1]

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return  # not a boundary in this version of the package: reads 0
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every layer boundary of the imported chebident package."""
        from chebident import families as families_mod
        from chebident import series, triangle, verify
        from chebident.laurent import LaurentPoly
        from chebident.report import VerificationReport

        backend = sys.modules.get("chebident._backend")
        for k in KERNELS:
            self._wrap(backend, k, f"kernels.{k}", self._count_ops(k))
        for attr, short in LAURENT_METHODS.items():
            self._wrap(LaurentPoly, attr, f"laurent.{short}")
        for attr, short in SERIES_METHODS.items():
            self._wrap(series.TruncatedSeries, attr, f"series.{short}")
        self._wrap(series, "gf_expand", "series.gf_expand")
        fam = self.families
        self._wrap(
            verify, "family_poly", "families.family_poly",
            lambda p, spec, n: fam.record(spec, n, (p,), False),
        )
        for owner in (series, families_mod):
            self._wrap(
                owner, "family_polys", "families.family_polys",
                lambda ps, spec, n_max: fam.record(spec, n_max, ps, True),
            )
        self._wrap(verify, "binomial", "exact.binomial")
        self._wrap(verify, "falling_factorial", "exact.falling_factorial")
        self._wrap(verify, "triangle_recurrence", "triangle.rows")
        self._wrap(triangle, "verify_defining_relation", "triangle.defining_relation")
        for f in VERIFY_FUNCTIONS:
            self._wrap(verify, f, f"verify.{f}")
        self._wrap(VerificationReport, "render", "report.render")

    def _count_ops(self, kernel):
        ops, measure = self.ops, _KERNEL_OPS[kernel]

        def after(result, *args, **kwargs):
            ops[kernel] += measure(*args, **kwargs)

        return after

    def write(self, path):
        """Write the spans out: one JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "count": len(self.ids),
                "arrays": [["name_id", "B"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    def layer_metrics(self, entries) -> dict:
        """Per-layer counts and times from the recorded spans."""
        n = len(self.names)
        total = [0] * n
        covered = [0] * n
        calls = [0] * n
        ids = self.ids
        for nid, parent, start, end in zip(ids, self.parents, self.starts, self.ends):
            d = end - start
            total[nid] += d
            calls[nid] += 1
            if parent >= 0:
                covered[ids[parent]] += d

        def by_name(name, table):
            return table[self.names.index(name)] if name in self.names else 0

        def layer_self_s(layer):
            return sum(
                total[i] - covered[i]
                for i, name in enumerate(self.names)
                if name.split(".", 1)[0] == layer
            ) / 1e9

        def layer_calls(prefix):
            return sum(c for name, c in zip(self.names, calls) if name.startswith(prefix))

        fam = self.families
        m = {
            "verify.cells": layer_calls("verify.verify_"),
            **{f"verify.{i}.s": 0.0 for i in IDENTITIES},
            "verify.self_s": layer_self_s("verify"),
            "exact.calls": layer_calls("exact."),
            "exact.s": sum(
                t for name, t in zip(self.names, total) if name.startswith("exact.")
            ) / 1e9,
            "families.calls": fam.calls,
            "families.distinct_rows": len(fam.rows),
            "families.hit_ratio": fam.repeats / fam.calls if fam.calls else 0.0,
            "families.self_s": layer_self_s("families"),
            "families.max_terms": fam.max_terms,
            "families.max_coeff_bits": fam.max_coeff_bits,
            "series.mul.calls": by_name("series.mul", calls),
            "series.inverse.calls": by_name("series.inverse", calls),
            "series.self_s": layer_self_s("series"),
            "triangle.rows.calls": by_name("triangle.rows", calls),
            "triangle.self_s": layer_self_s("triangle"),
            "laurent.ops": layer_calls("laurent."),
            "laurent.shift.calls": by_name("laurent.shift", calls),
            "laurent.self_s": layer_self_s("laurent"),
        }
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = by_name(f"kernels.{k}", calls)
            m[f"kernels.{k}.ops"] = self.ops[k]
            m[f"kernels.{k}.s"] = by_name(f"kernels.{k}", total) / 1e9
        m["report.render.s"] = by_name("report.render", total) / 1e9
        # Per-identity time comes from the report entries: run_suite calls
        # verify_U_from_Legendre for two identities, so the span name alone
        # cannot tell them apart.
        for e in entries:
            if e.identity in IDENTITIES:
                m[f"verify.{e.identity}.s"] += e.elapsed_ms / 1000.0
        return m
