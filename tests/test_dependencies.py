"""Every third-party module that chsim imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(source: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module, also
    those inside a function, such as a lazy ``import orjson``."""
    names = set()
    for node in ast.walk(ast.parse(source.read_text(), str(source))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a requirement's name ends where its version or marker starts
    declared = {re.match(r"[A-Za-z0-9._-]+", req)[0].lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set().union(*map(imported_modules, (ROOT / "src" / "chsim").rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"chsim"}
    assert "orjson" in third_party  # the lazy import in metrics is found
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"
