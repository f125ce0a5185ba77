"""Every third-party module the package imports is a declared runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``; relative imports are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_third_party_imports_are_declared():
    sources = sorted((ROOT / "src" / "fairsamp").glob("*.py"))
    imported = set().union(*(imported_top_level_modules(p.read_text(encoding="utf-8")) for p in sources))
    third_party = imported - set(sys.stdlib_module_names) - {"fairsamp"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the package's imports
    assert third_party <= declared_dependencies()


def test_every_python_file_parses_as_the_oldest_supported_python():
    """No file uses syntax newer than the oldest Python that ``requires-python`` admits."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        oldest = re.fullmatch(r">=(\d+)\.(\d+)", tomllib.load(fh)["project"]["requires-python"])
    version = tuple(map(int, oldest.groups()))
    tops = ("src", "tests", "tools", "demos", "perfbench")
    sources = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in sources} == set(tops)  # the scan sees every tree
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
