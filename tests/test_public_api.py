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

MODULES = [chebident] + [
    importlib.import_module(f"chebident.{info.name}")
    for info in pkgutil.iter_modules(chebident.__path__)
]

README = Path(__file__).resolve().parents[1] / "README.md"


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
