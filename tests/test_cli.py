import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chebident import triangle
from chebident.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


class TestPoly:
    def test_pretty_golden(self, capsys):
        code, out = invoke(capsys, "poly", "--family", "U", "--n", "2")
        assert code == 0
        assert out == "4*x^2 - 1\n"

    def test_json_triples(self, capsys):
        code, out = invoke(
            capsys, "poly", "--family", "Legendre", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [[2, "3", "2"], [0, "-1", "2"]]

    def test_csv(self, capsys):
        code, out = invoke(capsys, "poly", "--family", "V", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "1,2,1\n0,-1,1\n"

    def test_higher_order(self, capsys):
        code, out = invoke(capsys, "poly", "--family", "U", "--n", "1", "--alpha", "2")
        assert code == 0
        assert out == "4*x\n"

    def test_classical_higher_order_is_usage_error(self, capsys):
        code = run(["poly", "--family", "T_classical", "--n", "1", "--alpha", "2"])
        capsys.readouterr()
        assert code == 2

    def test_negative_n_is_usage_error(self, capsys):
        code = run(["poly", "--family", "U", "--n", "-3"])
        capsys.readouterr()
        assert code == 2


class TestOutputErrors:
    @pytest.mark.parametrize(
        "argv,empty",
        [
            (["poly", "--family", "U", "--n", "2"], False),
            (["verify", "thm6", "--n-max", "1", "--N-max", "1"], False),
            # --output "$OUT" with OUT unset: an empty path, not stdout.
            (["poly", "--family", "U", "--n", "2"], True),
        ],
        ids=["poly", "verify", "poly-empty-path"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, empty):
        path = tmp_path / "missing" / "out.txt"
        code = run(argv + ["--output", "" if empty else str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("chebident: error: ")
        assert captured.err.count("\n") == 1
        assert not path.exists()


class TestTriangle:
    def test_csv_golden(self, capsys):
        code, out = invoke(capsys, "triangle", "--n-max", "4", "--format", "csv")
        assert code == 0
        assert out == "1\n1,1\n3,3,1\n15,15,6,1\n"

    def test_pretty(self, capsys):
        code, out = invoke(capsys, "triangle", "--n-max", "2")
        assert code == 0
        assert out == "N=1: 1\nN=2: 1 1\n"

    def test_json_schema_and_round_trip(self, capsys):
        code, out = invoke(capsys, "triangle", "--n-max", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[2] == {"N": 3, "a": ["3", "3", "1"]}
        # big integers ride as decimal strings; re-rendering reproduces bytes
        assert json.dumps(rows, separators=(",", ":")) + "\n" == out

    def test_rejects_zero_rows(self, capsys):
        code = run(["triangle", "--n-max", "0"])
        capsys.readouterr()
        assert code == 2


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out = invoke(
            capsys, "verify", "all", "--n-max", "4", "--N-max", "2", "--format", "json"
        )
        assert code == 0
        entries = json.loads(out)
        assert all(e["pass"] for e in entries)
        assert {e["identity"] for e in entries} == {
            "intro_U_from_T",
            "U_from_Legendre",
            "Ualpha_from_Legendre",
            "thm2",
            "cor3",
            "cor4_reconstructed",
            "thm5",
            "thm6",
            "thm7",
        }
        assert set(entries[0]) == {"identity", "n", "N", "pass", "residual", "ms"}

    def test_byte_identical_runs(self, capsys):
        args = ("verify", "all", "--n-max", "3", "--N-max", "2", "--format", "json")
        code1, out1 = invoke(capsys, *args)
        code2, out2 = invoke(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        _, out = invoke(
            capsys, "verify", "thm6", "--n-max", "2", "--N-max", "2", "--format", "json"
        )
        assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out

    def test_single_identity_csv(self, capsys):
        code, out = invoke(
            capsys, "verify", "thm5", "--n-max", "2", "--N-max", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "identity,n,N,pass,residual,ms"
        assert lines[1] == "thm5,0,1,true,0,0"
        assert len(lines) == 4

    def test_mode_option_is_usage_error(self, capsys):
        # There is one exact verdict; no option selects another.
        code = run(["verify", "thm2", "--n-max", "2", "--N-max", "1", "--mode", "numeric"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--mode" in captured.err

    def test_classical_thm7_fails_with_exit_1(self, capsys):
        code, out = invoke(
            capsys,
            "verify", "thm7", "--n-max", "2", "--N-max", "1",
            "--first-kind", "classical",
        )
        assert code == 1
        assert "FAIL" in out

    def test_timings_flag_changes_json(self, capsys):
        args = ("verify", "thm2", "--n-max", "1", "--N-max", "1", "--format", "json")
        _, plain = invoke(capsys, *args)
        _, timed = invoke(capsys, *args, "--timings")
        assert all(e["ms"] == 0 for e in json.loads(plain))
        # Sub-millisecond cells must not truncate to 0.
        assert any(e["ms"] > 0 for e in json.loads(timed))

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = invoke(
            capsys,
            "verify", "thm6", "--n-max", "1", "--N-max", "1",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())[0]["identity"] == "thm6"

    @pytest.mark.parametrize("identity", ["thm2", "Ualpha_from_Legendre", "all"])
    def test_empty_grid_is_usage_error(self, capsys, identity):
        code = run(["verify", identity, "--n-max", "3", "--N-max", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "selects no cells" in captured.err

    def test_unknown_identity_is_usage_error(self, capsys):
        code = run(["verify", "thm9", "--n-max", "1", "--N-max", "1"])
        capsys.readouterr()
        assert code == 2


class TestGoldenDigests:
    # sha256 of the report bytes, recorded before the identity catalog became
    # one table (the 16x6 and 12x5 grids before the Vandermonde collapse of
    # the triple sums); a refactor must reproduce them exactly.  The
    # classical runs pin thm7's failing residuals too.
    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ("--n-max", "8", "--N-max", "3", "--format", "json"),
                "3d2f30fb13025d2f6abdf63f58abd5e386fdc664fb7f16620c2affd0e7517a49",
            ),
            (
                ("--n-max", "6", "--N-max", "3", "--first-kind", "classical", "--format", "csv"),
                "c0631795e2b90b8951bc068e44648a0a73f191f3257edd2d0b1582be248f6e06",
            ),
            (
                ("--n-max", "16", "--N-max", "6", "--format", "json"),
                "ef7a77aac86167487a4be058cc1abaed0c6bbf0441e875a6b52ca30a97410a4b",
            ),
            (
                ("--n-max", "12", "--N-max", "5", "--first-kind", "classical", "--format", "csv"),
                "34f54bc75a7705e90c73d14f75d5af6896bd0dd0168012e1a12e87676f84270d",
            ),
        ],
        ids=[
            "symbolic-json",
            "classical-csv",
            "symbolic-json-16x6",
            "classical-csv-12x5",
        ],
    )
    def test_verify_all(self, capsys, args, digest):
        code, out = invoke(capsys, "verify", "all", *args)
        assert code == (1 if "classical" in args else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPolyTriangleDigests:
    # sha256 of the output bytes at large indices, recorded before poly and
    # triangle shared one format switch; every format of it is pinned.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("poly", "--family", "W", "--n", "48", "--alpha", "4", "--format", "json"),
                "ad8617b19afb9292123fe79cc23c3e571cb9737cfa6824442a9205e7266b585e",
            ),
            (
                ("poly", "--family", "Legendre", "--n", "48", "--alpha", "3", "--format", "json"),
                "32fbb697c4aaf8ddd704ba5477cf15bb37cb1b7e0d189782f4f1aeb0dd8433ef",
            ),
            (
                ("poly", "--family", "Legendre", "--n", "41", "--alpha", "3", "--format", "csv"),
                "cce36267428efff8bb4ca7bd4c02bcb3f58e79ec1d6d6244d203202b7158af1f",
            ),
            (
                ("poly", "--family", "T_classical", "--n", "30"),
                "1de098decece51607b4f2c7b7caa25f660ea4f67fc946878ef43b9603f5963c9",
            ),
            (
                ("triangle", "--n-max", "30"),
                "1548f36983ac5f55bac1121f9de9fbcc3b0ce1ea46a1b2f113ac37d90be10fb0",
            ),
            (
                ("triangle", "--n-max", "30", "--format", "json"),
                "33510412331411328bc39ea72ca858ac101af05694125ebec4a9f91f08b2d502",
            ),
            (
                ("triangle", "--n-max", "30", "--format", "csv"),
                "297d4aaa4571c1d4dbf94a0323a1f977e239e92fe078d7acb77774b545ecf9dd",
            ),
        ],
        ids=[
            "poly-W-json",
            "poly-Legendre-json",
            "poly-Legendre-csv",
            "poly-T_classical-pretty",
            "triangle-pretty",
            "triangle-json",
            "triangle-csv",
        ],
    )
    def test_bytes(self, capsys, argv, digest):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOutputFlags:
    # Every subcommand takes --format and --output; only the two report
    # commands take --timings.
    COMMANDS = {
        "poly": ["poly", "--family", "U", "--n", "3"],
        "triangle": ["triangle", "--n-max", "3"],
        "verify": ["verify", "thm2", "--n-max", "2", "--N-max", "2"],
        "defining-relation": ["defining-relation", "--N-max", "2"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_format_and_output(self, tmp_path, capsys, command, fmt):
        argv = self.COMMANDS[command] + ["--format", fmt]
        code, out = invoke(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / "out.txt"
        code, written = invoke(capsys, *argv, "--output", str(path))
        assert code == 0 and written == ""
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_timings_only_on_reports(self, capsys, command):
        code = run(self.COMMANDS[command] + ["--timings"])
        captured = capsys.readouterr()
        if command in ("poly", "triangle"):
            assert code == 2 and captured.out == ""
            assert "unrecognized arguments: --timings" in captured.err
        else:
            assert code == 0 and captured.out


class TestDefiningRelation:
    def test_passes(self, capsys):
        code, out = invoke(capsys, "defining-relation", "--N-max", "3", "--order", "12")
        assert code == 0
        assert out.splitlines()[0] == "PASS defining_relation N=1 n=12"
        assert out.splitlines()[-1] == "all 3 cells passed"

    def test_order_must_cover_n_max(self, capsys):
        code = run(["defining-relation", "--N-max", "6", "--order", "4"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("--N-max", "10"), ("--N-max", "4", "--order", "11")],
        ids=["default-order", "one-below"],
    )
    def test_order_below_degree_bound_is_usage_error(self, capsys, argv):
        # Below 3 * N-max a PASS would not prove the relation for all t-orders.
        code = run(["defining-relation", *argv])
        assert code == 2
        assert "--order must be >= 3 * --N-max" in capsys.readouterr().err

    def test_order_at_degree_bound_passes(self, capsys):
        code, out = invoke(capsys, "defining-relation", "--N-max", "4", "--order", "12")
        assert code == 0
        assert out.splitlines()[-1] == "all 4 cells passed"

    # sha256 of the report bytes, recorded while the relation was still
    # certified by dense t-series; the cleared-denominator certificate must
    # reproduce them, failing residual included.
    def test_golden_json(self, capsys):
        code, out = invoke(
            capsys, "defining-relation", "--N-max", "8", "--order", "40", "--format", "json"
        )
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "86552ce01434b949b8e973520b80bd8ee6037c5e7803501d0502c803753b349a"
        )

    def test_perturbed_row_golden_json(self, capsys, monkeypatch):
        rows = triangle.triangle_recurrence(3).rows
        bad = rows[:2] + ((rows[2][0], rows[2][1] + 1, rows[2][2]),)
        monkeypatch.setattr(
            triangle, "triangle_recurrence", lambda n_max: triangle.Triangle(bad[:n_max])
        )
        code, out = invoke(
            capsys, "defining-relation", "--N-max", "3", "--order", "12", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)[-1]["residual"] == "-8*x^4 + 2*x^2"
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "f42fe0d54ce5735aa60bdd6cb70d0403fde852b6c1d0931194b8bed277c245ae"
        )


class TestUsage:
    def test_no_command(self, capsys):
        code = run([])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command(self, capsys):
        code = run(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code = run(["verify", "all", "--n-max", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["poly", "--family", "U", "--n", "-3"], "polynomial index must be >= 0, got -3"),
            (["poly", "--family", "U", "--n", "2", "--alpha", "0"], "family order must be >= 1, got 0"),
            (["triangle", "--n-max", "0"], "n_max must be >= 1, got 0"),
            (["verify", "thm2", "--n-max", "-1", "--N-max", "1"], "n_max must be >= 0, got -1"),
        ],
        ids=["poly-n", "poly-alpha", "triangle", "verify"],
    )
    def test_library_errors_are_usage_errors(self, capsys, argv, message):
        # One error path: a ValueError from the library becomes exit 2 with
        # the library's own message.
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.endswith(f"chebident: error: {message}\n")

    def test_help_exits_zero(self, capsys):
        code = run(["--help"])
        capsys.readouterr()
        assert code == 0


class TestColdImport:
    def test_cli_import_loads_no_introspection_modules(self):
        # -S: no site module, so no .pth file can preload anything.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import chebident.cli; "
            "print(' '.join(sorted(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        loaded = set(out.split())
        assert "chebident.cli" in loaded
        # csv and json are imported only by the formats that use them, which
        # the default format never calls.  No row store takes a lock, so
        # nothing imports threading.
        unwanted = {"dataclasses", "inspect", "typing", "ast", "dis", "csv", "json", "threading"}
        assert sorted(loaded & unwanted) == []
