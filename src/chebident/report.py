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
from dataclasses import dataclass, field

from chebident.laurent import LaurentPoly

__all__ = ["ReportEntry", "VerificationReport"]


@dataclass(frozen=True)
class ReportEntry:
    """Outcome of one verification cell.

    ``residual`` is the exact LHS - RHS polynomial in symbolic mode (zero
    on pass) and None in numeric mode, which compares values only.
    ``rhs_polynomial`` records whether the right-hand side collapsed to a
    true polynomial (negative powers of x cancel); None when the check does
    not apply.
    """

    identity: str
    n: int
    N: int
    passed: bool
    residual: LaurentPoly | None
    rhs_polynomial: bool | None
    elapsed_ms: float

    def residual_text(self) -> str:
        return "" if self.residual is None else str(self.residual)


def _ms(entry: ReportEntry, timings: bool):
    """Milliseconds to the microsecond when timings are requested, else the literal 0."""
    return round(entry.elapsed_ms, 3) if timings else 0


@dataclass
class VerificationReport:
    """Ordered collection of verification cells."""

    entries: list[ReportEntry] = field(default_factory=list)

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
            if not e.passed and e.residual is not None:
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
                "residual": e.residual_text(),
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
                    e.residual_text(),
                    _ms(e, timings),
                ]
            )
        return buf.getvalue()
