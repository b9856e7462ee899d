"""Verification report entries and their pretty/JSON/CSV renderings.

Rendered output is deterministic by default: the per-entry wall-clock
milliseconds are real in memory but render as 0 unless timings are
explicitly requested, so identical inputs always produce identical bytes.
With timings, JSON and CSV give them to the microsecond (pretty to 0.1 ms),
so a sub-millisecond cell does not read 0.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

__all__ = ["ReportEntry", "VerificationReport"]


class ReportEntry(
    namedtuple(
        "ReportEntry", "identity n N passed residual rhs_polynomial elapsed_ms"
    )
):
    """Outcome of one verification cell: ``identity`` (str), ``n`` and ``N``
    (int), ``passed`` (bool), ``residual``, ``rhs_polynomial`` and
    ``elapsed_ms`` (float).  Frozen: ``_replace`` makes a changed copy.

    ``residual`` is the exact LHS - RHS LaurentPoly, zero on pass.
    ``rhs_polynomial`` records whether the right-hand side collapsed to a
    true polynomial (negative powers of x cancel); None when the check does
    not apply.
    """

    __slots__ = ()


def _ms(entry: ReportEntry, timings: bool):
    """Milliseconds to the microsecond when timings are requested, else the literal 0."""
    return round(entry.elapsed_ms, 3) if timings else 0


class VerificationReport:
    """Ordered collection of verification cells."""

    def __init__(self, entries: list[ReportEntry] | None = None):
        self.entries = [] if entries is None else entries

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={self.entries!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.passed]

    # -- rendering -----------------------------------------------------------

    def render(self, fmt: str, timings: bool = False) -> str:
        if fmt == "pretty":
            return self.render_pretty(timings)
        if fmt == "json":
            return self.render_json(timings)
        if fmt == "csv":
            return self.render_csv(timings)
        raise ValueError(f"unknown format {fmt!r}")

    def render_pretty(self, timings: bool = False) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            line = f"{status} {e.identity} N={e.N} n={e.n}"
            if not e.passed:
                line += f" residual: {e.residual}"
            if e.rhs_polynomial is False:
                line += " [rhs not a polynomial]"
            if timings:
                line += f" ({e.elapsed_ms:.1f} ms)"
            lines.append(line)
        failed = len(self.failures())
        total = len(self.entries)
        lines.append(
            f"{total - failed}/{total} cells passed"
            if failed
            else f"all {total} cells passed"
        )
        return "\n".join(lines) + "\n"

    def render_json(self, timings: bool = False) -> str:
        rows = [
            {
                "identity": e.identity,
                "n": e.n,
                "N": e.N,
                "pass": e.passed,
                "residual": str(e.residual),
                "ms": _ms(e, timings),
            }
            for e in self.entries
        ]
        return json.dumps(rows, separators=(",", ":")) + "\n"

    def render_csv(self, timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "n", "N", "pass", "residual", "ms"])
        for e in self.entries:
            writer.writerow(
                [
                    e.identity,
                    e.n,
                    e.N,
                    "true" if e.passed else "false",
                    str(e.residual),
                    _ms(e, timings),
                ]
            )
        return buf.getvalue()
