"""The public surface: star-imports, every ``__all__`` entry, the README examples."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import chebident
from chebident.cli import run
from chebident.laurent import LaurentPoly
from chebident.series import TruncatedSeries

MODULES = [chebident] + [
    importlib.import_module(f"chebident.{info.name}")
    for info in pkgutil.iter_modules(chebident.__path__)
]

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
ORACLES = ROOT / "tests" / "_oracles.py"


def test_star_import():
    namespace: dict = {}
    exec("from chebident import *", namespace)
    assert set(chebident.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_names_exist(module):
    # A stale name in __all__ breaks only `from module import *`.
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_pinned():
    # Removing or adding a public name is an API change; make it deliberate.
    assert sorted(chebident.__all__) == [
        "Family",
        "FamilySpec",
        "IdentityId",
        "LaurentPoly",
        "ReportEntry",
        "Triangle",
        "TruncatedSeries",
        "VerificationReport",
        "family_poly",
        "family_polys",
        "gf_expand",
        "run_suite",
        "triangle_recurrence",
        "verify_U_from_Legendre",
        "verify_cor3",
        "verify_cor4_reconstructed",
        "verify_defining_relation",
        "verify_intro_U_from_T",
        "verify_thm2",
        "verify_thm5",
        "verify_thm6",
        "verify_thm7",
    ]


def test_cross_checks_live_only_in_the_tests():
    # The package is the certifier.  What the tests compare it against is
    # defined once, in tests/_oracles.py, and the package never imports it.
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"a_closed", "explicit_T", "parse"} <= names
    names |= {"binomial", "truncate"}
    owners = MODULES + [LaurentPoly, TruncatedSeries]
    assert [(o.__name__, n) for o in owners for n in sorted(names) if hasattr(o, n)] == []
    for path in sorted((ROOT / "src" / "chebident").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert not {m.split(".")[0] for m in imported} & {"tests", "_oracles"}, path


def _readme_block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"README has no {lang} block under '## {heading}'"
    return match.group(1)


def test_readme_python_api_runs():
    code = _readme_block("Python API", "python")
    namespace: dict = {}
    exec(code, namespace)
    # Lines annotated with a Python literal (`expr  # True`) must evaluate to it.
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("  #")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked


def test_readme_cli_runs():
    # Every command in the CLI block must parse and run; a removed option
    # left in the docs is a usage error (exit 2).
    commands = _readme_block("CLI", "sh").splitlines()
    assert commands
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "chebident", line
        expected = 1 if line.partition("#")[2].strip() == "exits 1" else 0
        assert run(argv[1:]) == expected, line
