"""The record types: repr, equality, hashing, immutability and construction.

The repr strings are pinned as literals; they are what the dataclass
versions of these records printed, and user scripts and doctests read them.
"""

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

    def test_run_suite_relabels_with_replace(self):
        report = run_suite(["Ualpha_from_Legendre"], n_max=1, N_max=1)
        assert [e.identity for e in report.entries] == ["Ualpha_from_Legendre"] * 2
        assert all(type(e) is ReportEntry for e in report.entries)
