"""The example scripts under ``demos/`` run to the end through the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_five_demo_scripts():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_script_finishes(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
