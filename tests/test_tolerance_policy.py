"""Every numerical threshold of the package is defined once, at the top of ``linalg``."""

import ast
from pathlib import Path

import fairsamp

PACKAGE = Path(fairsamp.__file__).parent


def small_float_literals(path):
    """(line, value) of each float literal with 0 < |value| <= 1e-6 in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-6
    ]


def test_thresholds_are_defined_only_in_linalg():
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line, value in small_float_literals(path)
    ]
    assert found == [], "tolerance literals outside linalg.py: " + ", ".join(found)
