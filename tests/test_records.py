"""The record types: repr, equality, hashing, immutability and construction.

The repr strings are pinned as literals; they are what the dataclass
versions of these records printed, and user scripts and doctests read them.
"""

import csv
import io
import json
from fractions import Fraction

import pytest

from chebident.families import Family, FamilySpec
from chebident.laurent import LaurentPoly
from chebident.report import ReportEntry, VerificationReport
from chebident.triangle import Triangle, triangle_recurrence
from chebident.verify import run_suite

ENTRY_ARGS = ("thm2", 3, 2, True, LaurentPoly.zero(), True, 1.5)
ENTRY_KWARGS = dict(
    identity="thm2",
    n=3,
    N=2,
    passed=True,
    residual=LaurentPoly.zero(),
    rhs_polynomial=True,
    elapsed_ms=1.5,
)


class TestRepr:
    @pytest.mark.parametrize(
        "record,text",
        [
            (FamilySpec(Family.U), "FamilySpec(kind=<Family.U: 'U'>, alpha=1)"),
            (
                FamilySpec("Legendre", 3),
                "FamilySpec(kind=<Family.LEGENDRE: 'Legendre'>, alpha=3)",
            ),
            (
                ReportEntry(*ENTRY_ARGS),
                "ReportEntry(identity='thm2', n=3, N=2, passed=True, "
                "residual=LaurentPoly(0), rhs_polynomial=True, elapsed_ms=1.5)",
            ),
            (
                ReportEntry("cor3", 1, 1, False, LaurentPoly({2: 1, -1: -3}), None, 0.25),
                "ReportEntry(identity='cor3', n=1, N=1, passed=False, "
                "residual=LaurentPoly(x^2 - 3*x^-1), rhs_polynomial=None, elapsed_ms=0.25)",
            ),
            (triangle_recurrence(3), "Triangle(rows=((1,), (1, 1), (3, 3, 1)))"),
            (VerificationReport(), "VerificationReport(entries=[])"),
            (
                VerificationReport([ReportEntry(*ENTRY_ARGS)]),
                "VerificationReport(entries=[ReportEntry(identity='thm2', n=3, N=2, "
                "passed=True, residual=LaurentPoly(0), rhs_polynomial=True, "
                "elapsed_ms=1.5)])",
            ),
        ],
        ids=["spec", "spec-legendre", "entry", "entry-failed", "triangle", "report", "report-1"],
    )
    def test_pinned(self, record, text):
        assert repr(record) == text


# (positional constructor, keyword constructor, a field, another value for it)
FROZEN = [
    pytest.param(
        lambda: FamilySpec(Family.V, 2), lambda: FamilySpec(kind="V", alpha=2), "alpha", 3,
        id="spec",
    ),
    pytest.param(
        lambda: ReportEntry(*ENTRY_ARGS), lambda: ReportEntry(**ENTRY_KWARGS), "passed", False,
        id="entry",
    ),
    pytest.param(
        lambda: triangle_recurrence(2), lambda: Triangle(rows=((1,), (1, 1))), "rows", (),
        id="triangle",
    ),
]


class TestFrozenRecords:
    @pytest.mark.parametrize("make,make_kw,field,value", FROZEN)
    def test_equal_and_same_hash(self, make, make_kw, field, value):
        a, b = make(), make_kw()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("make,make_kw,field,value", FROZEN)
    def test_fields_cannot_be_assigned(self, make, make_kw, field, value):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("make,make_kw,field,value", FROZEN)
    def test_replace_makes_a_new_record(self, make, make_kw, field, value):
        record = make()
        changed = record._replace(**{field: value})
        assert getattr(changed, field) == value
        assert type(changed) is type(record)
        assert changed != record and record == make()

    def test_spec_coerces_and_validates(self):
        assert FamilySpec("U").kind is Family.U
        assert FamilySpec(Family.W).alpha == 1
        with pytest.raises(ValueError):
            FamilySpec("nope")
        with pytest.raises(ValueError):
            FamilySpec(Family.U, 0)
        with pytest.raises(TypeError):
            FamilySpec(Family.U, True)
        with pytest.raises(ValueError):
            FamilySpec(Family.T_CLASSICAL, alpha=2)

    def test_spec_replace_validates(self):
        spec = FamilySpec(Family.U, 2)
        assert spec._replace(kind="Legendre") == FamilySpec(Family.LEGENDRE, 2)
        with pytest.raises(ValueError):
            spec._replace(alpha=0)
        with pytest.raises(ValueError):
            spec._replace(kind=Family.T_CLASSICAL)

    def test_unequal_records(self):
        assert FamilySpec(Family.U) != FamilySpec(Family.U, 2)
        assert ReportEntry(*ENTRY_ARGS) != ReportEntry(**{**ENTRY_KWARGS, "n": 4})


class TestVerificationReport:
    def test_positional_and_keyword(self):
        entries = [ReportEntry(*ENTRY_ARGS)]
        assert VerificationReport(entries).entries is entries
        assert VerificationReport(entries=entries).entries is entries
        assert VerificationReport(entries) == VerificationReport(entries=list(entries))

    def test_default_entries_are_not_shared(self):
        a, b = VerificationReport(), VerificationReport()
        a.entries.append(ReportEntry(*ENTRY_ARGS))
        assert b.entries == [] and a != b

    def test_entries_assignable_and_unhashable(self):
        report = VerificationReport()
        report.entries = [ReportEntry(*ENTRY_ARGS)]
        assert report.all_passed and report.failures() == []
        with pytest.raises(TypeError):
            hash(report)

    def test_equality(self):
        assert VerificationReport() == VerificationReport([])
        assert VerificationReport() != VerificationReport([ReportEntry(*ENTRY_ARGS)])
        assert VerificationReport() != []

    @pytest.mark.parametrize("timings", [False, True])
    def test_csv_matches_the_csv_module(self, timings):
        # render_csv joins its fields with commas and quotes none; csv.writer,
        # which would quote a field holding a comma, a quote or a line break,
        # must write the same bytes.
        residuals = [
            LaurentPoly({-3: Fraction(-5, 4), 0: 2, 2: Fraction(1, 3)}),
            LaurentPoly({-1: -7}),
            LaurentPoly.zero(),
        ]
        entries = [
            ReportEntry("thm7", n, 2, r.is_zero(), r, None, 0.1234567 * (n + 1))
            for n, r in enumerate(residuals)
        ]
        entries += run_suite(["thm7"], 3, 2, first_kind="classical").entries
        assert any(not e.residual.is_polynomial() for e in entries)
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["identity", "n", "N", "pass", "residual", "ms"])
        for e in entries:
            ms = round(e.elapsed_ms, 3) if timings else 0
            writer.writerow(
                [e.identity, e.n, e.N, "true" if e.passed else "false", str(e.residual), ms]
            )
        rendered = VerificationReport(entries).render_csv(timings)
        assert rendered == reference.getvalue()
        assert VerificationReport().render_csv(timings) == "identity,n,N,pass,residual,ms\n"

    @pytest.mark.parametrize("timings", [False, True])
    def test_json_matches_the_json_module(self, timings):
        # render_json writes its rows itself; json.dumps over one dict per
        # row, which escapes what needs escaping, must write the same bytes.
        residuals = [
            LaurentPoly({-3: Fraction(-5, 4), 0: 2, 2: Fraction(1, 3)}),
            LaurentPoly({-1: -7}),
            LaurentPoly.zero(),
        ]
        names = ['quote"d', "back\\slash", 'both\\"']
        entries = [
            ReportEntry(names[n], n, 2, r.is_zero(), r, None, 0.1234567 * (n + 1))
            for n, r in enumerate(residuals)
        ]
        entries += run_suite(["thm7"], 3, 2, first_kind="classical").entries
        entries.append(entries[0])
        assert any(not e.residual.is_polynomial() for e in entries)
        rows = [
            {
                "identity": e.identity,
                "n": e.n,
                "N": e.N,
                "pass": e.passed,
                "residual": str(e.residual),
                "ms": round(e.elapsed_ms, 3) if timings else 0,
            }
            for e in entries
        ]
        reference = json.dumps(rows, separators=(",", ":")) + "\n"
        assert VerificationReport(entries).render_json(timings) == reference
        assert json.loads(reference)[0]["identity"] == 'quote"d'
        assert VerificationReport().render_json(timings) == "[]\n"

    def test_run_suite_relabels_with_replace(self):
        report = run_suite(["Ualpha_from_Legendre"], n_max=1, N_max=1)
        assert [e.identity for e in report.entries] == ["Ualpha_from_Legendre"] * 2
        assert all(type(e) is ReportEntry for e in report.entries)
