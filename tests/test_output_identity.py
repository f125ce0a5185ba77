"""``tools/output_identity.py`` on a reduced command list: no difference for one tree, and an edited line found."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import fairsamp
from fairsamp import serialize
from fairsamp.adversary import makarov_traced
from fairsamp.bell import chsh_singlet_scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(fairsamp.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_identity", ROOT / "tools" / "output_identity.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def runs(tool, tmp_path):
    device = tmp_path / "traced.json"
    serialize.dump_json(serialize.device_to_json(makarov_traced()), device)
    return [tool.cli_run("demo", "chsh-singlet"), tool.cli_run("decompose", str(device), "--trials", "2")]


def test_a_tree_against_itself_reports_no_difference(tool, runs, tmp_path):
    assert tool.compare(SRC, SRC, runs, tmp_path / "work") == []


def test_an_edited_line_is_reported(tool, runs, tmp_path):
    edited = tmp_path / "edited"
    shutil.copytree(SRC / "fairsamp", edited / "fairsamp", ignore=shutil.ignore_patterns("__pycache__"))
    cli = edited / "fairsamp" / "cli.py"
    text = cli.read_text()
    assert text.count('"seed": args.seed}') == 1
    cli.write_text(text.replace('"seed": args.seed}', '"seed": args.seed + 1}'))
    (difference,) = tool.compare(SRC, edited, runs, tmp_path / "work")
    device = tmp_path / "traced.json"
    assert difference == (
        f"decompose {device} --trials 2: file traced.decomposition/verification.json differs, "
        """line 3: parent b'  "seed": 0,', change b'  "seed": 1,'"""
    )


def tree_copy(tmp_path: Path) -> Path:
    """A copy of this tree's ``src`` and ``demos`` under ``tmp_path / "tree"``; returns the copy's ``src``."""
    tree = tmp_path / "tree"
    shutil.copytree(SRC / "fairsamp", tree / "src" / "fairsamp", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "demos", tree / "demos")
    return tree / "src"


def test_each_tree_runs_its_own_demos_and_an_edited_line_is_reported(tool, tmp_path):
    src = tree_copy(tmp_path)
    demo = src.parent / "demos" / "01_lossy_devices_and_filters.py"
    text = demo.read_text()
    assert text.count('print("settings:",') == 1
    demo.write_text(text.replace('print("settings:",', 'print("setting labels:",'))
    runs = tool.demo_runs(SRC, src)
    assert [run.name for run in runs] == [f"demos/{path.name}" for path in sorted((ROOT / "demos").glob("*.py"))]
    line = b"('z', 'x') | outcomes: ('+', '-') + noclick"
    assert tool.compare(SRC, src, runs, tmp_path / "work") == [
        "demos/01_lossy_devices_and_filters.py: stdout differs, "
        f"line 1: parent {b'settings: ' + line!r}, change {b'setting labels: ' + line!r}"
    ]


def test_a_demo_in_one_tree_only_is_reported_as_only_in_it(tool, tmp_path):
    src = tree_copy(tmp_path)
    (src.parent / "demos" / "01_lossy_devices_and_filters.py").rename(src.parent / "demos" / "00_renamed.py")
    runs = [run for run in tool.demo_runs(SRC, src) if run.name.startswith(("demos/00", "demos/01"))]
    assert tool.compare(SRC, src, runs, tmp_path / "work") == [
        "demos/00_renamed.py: only in change",
        "demos/01_lossy_devices_and_filters.py: only in parent",
    ]


def test_incomplete_copy_lacks_the_middle_coefficient_and_bound_names_it(tool, tmp_path):
    path = tmp_path / "chsh.json"
    serialize.dump_json(serialize.scenario_to_json(chsh_singlet_scenario()), path)
    copy = tool.without_one_coefficient(path)
    assert copy == tmp_path / "chsh.incomplete.json"
    original, partial = (json.loads(p.read_text()) for p in (path, copy))
    dropped = original["bell"]["coeffs"].pop(8)
    assert partial == original
    seen = tool.observe(SRC, tool.cli_run("bound", str(copy)), tmp_path / "work")
    assert seen["exit code"] == b"1"
    assert seen["stderr"] == (
        f"error: missing coefficient entry for settings {tuple(dropped['x'])!r}, outcomes {tuple(dropped['a'])!r}\n"
    ).encode()


def test_dead_setting_copy_is_erased_by_simulate_and_bound_alike(tool, tmp_path):
    path = tmp_path / "chsh.json"
    serialize.dump_json(serialize.scenario_to_json(chsh_singlet_scenario()), path)
    copy = tool.with_dead_setting(path)
    assert copy == tmp_path / "chsh.dead.json"
    sc = serialize.scenario_from_json(json.loads(copy.read_text()))
    assert sc.devices[0].settings == ("0", "1", "dead")
    assert np.array_equal(sc.devices[0].noclick_element("dead"), np.eye(2))
    dead = [key for key in sc.bell_coeffs if key[0][0] == "dead"]
    assert len(dead) == 2 * 4 and len(sc.bell_coeffs) == 16 + len(dead)
    erased = "Bell coefficients read setting tuples with vanishing acceptance: [('dead', '0'), ('dead', '1')]"
    simulated = tool.observe(SRC, tool.cli_run("simulate", str(copy), "--postselect"), tmp_path / "simulate")
    assert simulated["exit code"] == b"0"
    assert simulated["stderr"] == f"note: bell_value_postselected omitted: {erased}\n".encode()
    bounded = tool.observe(SRC, tool.cli_run("bound", str(copy)), tmp_path / "bound")
    assert bounded["exit code"] == b"1"
    assert bounded["stderr"] == f"error: {erased}\n".encode()


def test_identity_reference_is_written_beside_the_scenario_and_read_by_bound(tool, tmp_path):
    path = tmp_path / "chsh.json"
    serialize.dump_json(serialize.scenario_to_json(chsh_singlet_scenario()), path)
    eye = tool.identity_reference(path)
    assert eye == tmp_path / "eye2.json"
    assert np.array_equal(serialize.matrix_from_json(json.loads(eye.read_text())), np.eye(2))
    seen = tool.observe(SRC, tool.cli_run("bound", str(path), "--mq", str(eye)), tmp_path / "work")
    assert (seen["exit code"], seen["stderr"]) == (b"0", b"")
    report = json.loads(seen["stdout"])
    assert (report["epsilon_total"], report["beta_max"]) == (0.0, 4.0)  # the click elements are I / 4
    assert report["local_bound"] == 2.0
    assert report["certified_margin"] == pytest.approx(2.0 * np.sqrt(2.0) - 2.0, abs=1e-9)  # no deviation to subtract


def test_identity_reference_needs_one_party_dimension(tool, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"parties": [{"dim": 2}, {"dim": 3}]}))
    with pytest.raises(ValueError, match=r"mixed\.json has parties of dimensions \[2, 3\]$"):
        tool.identity_reference(path)
    assert not list(tmp_path.glob("eye*.json"))
