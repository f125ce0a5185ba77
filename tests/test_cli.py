"""Command-line behavior: exit codes, file outputs and demo stability."""

import json

import numpy as np
import pytest

from fairsamp import serialize
from fairsamp.adversary import makarov_traced
from fairsamp.cli import chsh_singlet_scenario, main
from fairsamp.optics import AnalyserSpec, analyser_device, analyser_mq


@pytest.fixture
def traced_file(tmp_path):
    path = tmp_path / "traced.json"
    serialize.dump_json(serialize.device_to_json(makarov_traced()), path)
    return path


@pytest.fixture
def unequal_file(tmp_path):
    spec = AnalyserSpec(eta1=1.0 - 0.2 * 1.05, eta2=0.8, angles=(0.0, np.pi / 4.0), n_max=2)
    path = tmp_path / "unequal.json"
    serialize.dump_json(serialize.device_to_json(analyser_device(spec)), path)
    mq_path = tmp_path / "mq.json"
    serialize.dump_json(serialize.matrix_to_json(analyser_mq(0.8, 2)), mq_path)
    return path, mq_path


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    serialize.dump_json(serialize.scenario_to_json(chsh_singlet_scenario()), path)
    return path


def silent_device():
    """Half-efficiency Z measurement at setting "0"; setting "dead" never clicks."""
    from fairsamp.device import LossyDevice

    return LossyDevice(
        2,
        ["0", "dead"],
        ["+", "-"],
        {
            "0": {"+": 0.5 * np.diag([1.0, 0.0]), "-": 0.5 * np.diag([0.0, 1.0])},
            "dead": {"+": np.zeros((2, 2)), "-": np.zeros((2, 2))},
        },
    )


def dead_scenario_file(tmp_path, bell_coeffs=None):
    """Singlet measured by the silent device and a lossless Z measurement."""
    from fairsamp.bell import BellScenario
    from fairsamp.cli import singlet_state
    from fairsamp.device import projective_qubit_device

    sc = BellScenario([silent_device(), projective_qubit_device({"0": 0.0})], singlet_state(), bell_coeffs)
    path = tmp_path / "dead.json"
    serialize.dump_json(serialize.scenario_to_json(sc), path)
    return path


@pytest.fixture
def dead_file(tmp_path):
    return dead_scenario_file(tmp_path)


@pytest.fixture
def dead_bell_file(tmp_path):
    """The dead-setting scenario with Bell coefficients that read the erased tuple ("dead", "0")."""
    coeffs = {((x, "0"), (a, b)): 1.0 for x in ("0", "dead") for a in "+-" for b in "+-"}
    return dead_scenario_file(tmp_path, coeffs)


class TestCheck:
    def test_fair_device_exits_zero(self, traced_file, capsys):
        assert main(["check", str(traced_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weak"] and payload["strong"] and payload["homogeneous"]
        assert payload["epsilon"] == 0.0

    def test_unfair_device_exits_two_with_epsilon(self, unequal_file, capsys):
        device, mq = unequal_file
        assert main(["check", str(device), "--mq", str(mq)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert not payload["weak"]
        assert payload["epsilon"] == pytest.approx(0.0125, abs=1e-9)
        assert payload["tv_bound"] == pytest.approx(0.0125 / (1.0 - 0.0125), abs=1e-9)

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 1

    def test_incomplete_povm_exits_one_with_residual(self, tmp_path, capsys):
        obj = serialize.device_to_json(makarov_traced())
        obj["povm"]["0"]["noclick"] = serialize.matrix_to_json(0.5 * np.eye(2))
        path = tmp_path / "incomplete.json"
        serialize.dump_json(obj, path)
        assert main(["check", str(path)]) == 1
        assert "completeness" in capsys.readouterr().err

    def test_mq_sets_support(self, unequal_file, tmp_path, capsys):
        device, _ = unequal_file
        identity = tmp_path / "identity.json"
        serialize.dump_json(serialize.matrix_to_json(np.eye(6)), identity)
        main(["check", str(device), "--mq", str(identity)])
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_array_equal(serialize.matrix_from_json(payload["mq"]), np.eye(6))
        np.testing.assert_allclose(serialize.matrix_from_json(payload["support"]), np.eye(6), atol=1e-12)

    def test_dead_setting_erased_from_verdict(self, tmp_path, capsys):
        path = tmp_path / "silent.json"
        serialize.dump_json(serialize.device_to_json(silent_device()), path)
        assert main(["check", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weak"] and payload["strong"] and not payload["homogeneous"]
        assert payload["epsilon"] == 0.0
        assert payload["classical_eff"] == {"0": 0.5, "dead": 0.0}


class TestDecompose:
    def test_writes_three_files(self, traced_file, tmp_path, capsys):
        out = tmp_path / "dc"
        assert main(["decompose", str(traced_file), "-o", str(out), "--trials", "40", "--seed", "3"]) == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["max_deviation"] <= 1e-9
        assert report["trials"] == 40 and report["seed"] == 3
        assert (out / "filter.json").exists() and (out / "lossless.json").exists()

    def test_lossless_file_is_a_valid_device(self, traced_file, tmp_path):
        out = tmp_path / "dc"
        main(["decompose", str(traced_file), "-o", str(out)])
        dev = serialize.device_from_json(json.loads((out / "lossless.json").read_text()))
        assert dev.settings == ("0", "1")


class TestSimulate:
    def test_chsh_singlet_report(self, chsh_file, capsys):
        assert main(["simulate", str(chsh_file), "--postselect"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell_value_postselected"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert report["ideal_deviation"] <= 1e-9
        assert report["acceptance"]["0,0"] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert report["erased"] == []

    def test_raw_only_without_flag(self, chsh_file, capsys):
        assert main(["simulate", str(chsh_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "postselected" not in report

    def test_lossless_scenario_postselection_changes_nothing(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.cli import chsh_coefficients, singlet_state
        from fairsamp.device import projective_qubit_device

        dev_a = projective_qubit_device({"0": 0.0, "1": np.pi / 2.0})
        dev_b = projective_qubit_device({"0": -3.0 * np.pi / 4.0, "1": 3.0 * np.pi / 4.0})
        sc = BellScenario([dev_a, dev_b], singlet_state(), chsh_coefficients())
        path = tmp_path / "lossless.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        report = json.loads(capsys.readouterr().out)
        for label, dist in report["postselected"].items():
            for outs, p in dist.items():
                assert p == pytest.approx(report["raw"][label][outs], abs=1e-12)
        assert report["bell_value_postselected"] == pytest.approx(report["bell_value_raw"], abs=1e-12)

    def test_dead_setting_tuple_flagged_erased(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.cli import singlet_state
        from fairsamp.device import LossyDevice, projective_qubit_device

        silent = LossyDevice(
            2,
            ["0", "dead"],
            ["+", "-"],
            {
                "0": {"+": 0.5 * np.diag([1.0, 0.0]), "-": 0.5 * np.diag([0.0, 1.0])},
                "dead": {"+": np.zeros((2, 2)), "-": np.zeros((2, 2))},
            },
        )
        live = projective_qubit_device({"0": 0.0})
        sc = BellScenario([silent, live], singlet_state())
        path = tmp_path / "dead.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["erased"] == ["dead,0"]
        assert "dead,0" not in report["postselected"]

    def test_dead_setting_still_compared_with_ideal(self, dead_file, capsys):
        assert main(["simulate", str(dead_file), "--postselect"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["erased"] == ["dead,0"]
        assert report["ideal_deviation"] <= 1e-9

    def test_bell_value_reading_erased_tuple_is_noted(self, dead_bell_file, capsys):
        assert main(["simulate", str(dead_bell_file), "--postselect"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert "bell_value_postselected" not in report and "bell_value_raw" in report
        assert err.count("\n") == 1
        assert err.startswith("note: bell_value_postselected omitted") and "('dead', '0')" in err

    def test_no_ideal_experiment_omits_ideal_deviation(self, chsh_file, monkeypatch, capsys):
        from fairsamp.device import ZeroAcceptanceError

        def no_ideal(post, ideal_raw):
            raise ZeroAcceptanceError("global filter acceptance 0.000e+00 vanishes")

        monkeypatch.setattr("fairsamp.cli._max_deviation", no_ideal)
        assert main(["simulate", str(chsh_file), "--postselect"]) == 0
        out, err = capsys.readouterr()
        assert "ideal_deviation" not in json.loads(out)
        assert err.count("\n") == 1 and "global filter acceptance" in err

    def test_never_clicking_device_omits_ideal_deviation(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.cli import singlet_state
        from fairsamp.device import LossyDevice, projective_qubit_device

        blind = LossyDevice(2, ["0"], ["+", "-"], {"0": {"+": np.zeros((2, 2)), "-": np.zeros((2, 2))}})
        sc = BellScenario([blind, projective_qubit_device({"0": 0.0})], singlet_state())
        path = tmp_path / "blind.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["erased"] == ["0,0"] and "ideal_deviation" not in report
        assert "never accepts" in err

    def test_other_ideal_errors_exit_one(self, chsh_file, monkeypatch, capsys):
        from fairsamp.linalg import NotPositiveError

        def broken(post, ideal_raw):
            raise NotPositiveError("outcomes ('+', '+') at settings ('0', '0') has negative probability")

        monkeypatch.setattr("fairsamp.cli._max_deviation", broken)
        assert main(["simulate", str(chsh_file), "--postselect"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: outcomes ('+', '+') at settings ('0', '0')" in err

    def test_separator_in_outcome_label_rejected(self, tmp_path, capsys):
        from fairsamp.cli import singlet_state
        from fairsamp.device import LossyDevice

        def device(outcomes):
            povm = {"z": {outcomes[0]: np.diag([1.0, 0.0]), outcomes[1]: np.diag([0.0, 1.0])}}
            return serialize.device_to_json(LossyDevice(2, ["z"], outcomes, povm))

        obj = {
            "parties": [{"device": device(["p,q", "p"])}, {"device": device(["r", "q,r"])}],
            "state": serialize.matrix_to_json(singlet_state()),
        }
        path = tmp_path / "commas.json"
        serialize.dump_json(obj, path)
        assert main(["simulate", str(path)]) == 1
        assert "'p,q'" in capsys.readouterr().err


class TestBound:
    def test_exact_scenario_bounds_are_zero(self, chsh_file, capsys):
        assert main(["bound", str(chsh_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon_total"] == 0.0
        assert report["measured_joint_deviation"] <= 1e-9
        assert report["beta_max"] == 4.0
        assert report["measured_bell_deviation"] <= report["bell_deviation_bound"] + 1e-9

    def test_two_mismatched_analysers(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.cli import chsh_coefficients, singlet_state
        from fairsamp.device import LossyDevice
        from fairsamp.optics import single_photon_analyser

        def analyser_at(angles):
            raw = single_photon_analyser(0.8, 0.05, list(angles.values()))
            povm = {
                lab: {a: raw.element(s, a) for a in raw.outcomes}
                for lab, s in zip(angles, raw.settings)
            }
            return LossyDevice(2, list(angles), raw.outcomes, povm)

        coeffs = {
            (xs, tuple("D1" if o == "+" else "D2" for o in outs)): c
            for (xs, outs), c in chsh_coefficients().items()
        }
        sc = BellScenario(
            [
                analyser_at({"0": 0.0, "1": np.pi / 4.0}),
                analyser_at({"0": -3.0 * np.pi / 8.0, "1": 3.0 * np.pi / 8.0}),
            ],
            singlet_state(),
            coeffs,
        )
        scenario_path = tmp_path / "analysers.json"
        serialize.dump_json(serialize.scenario_to_json(sc), scenario_path)
        mq_path = tmp_path / "identity.json"
        serialize.dump_json(serialize.matrix_to_json(np.eye(2)), mq_path)

        assert main(["bound", str(scenario_path), "--mq", str(mq_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        for party in report["per_party"]:
            assert party["epsilon"] == pytest.approx(0.0125, abs=1e-9)
        assert report["epsilon_total"] == pytest.approx(1.0 - (1.0 - 0.0125) ** 2, abs=1e-9)
        assert report["measured_bell_deviation"] <= report["bell_deviation_bound"]
        assert report["bell_deviation_bound"] == pytest.approx(
            2.0 * report["epsilon_total"] * 4.0, abs=1e-12
        )


    def test_dead_setting_is_erased(self, dead_file, capsys):
        assert main(["bound", str(dead_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [party["epsilon"] for party in report["per_party"]] == [0.0, 0.0]
        assert report["measured_joint_deviation"] <= 1e-9

    def test_bell_coefficients_reading_erased_tuple_exit_one(self, dead_bell_file, capsys):
        assert main(["bound", str(dead_bell_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "vanishing acceptance" in err and "('dead', '0')" in err


    def test_conjugates_each_party_once(self, chsh_file, monkeypatch, capsys):
        import fairsamp.analysis

        calls = []
        original = fairsamp.analysis._conjugated_clicks

        def counted(dev, pi, pinv):
            calls.append(dev)
            return original(dev, pi, pinv)

        monkeypatch.setattr(fairsamp.analysis, "_conjugated_clicks", counted)
        assert main(["bound", str(chsh_file)]) == 0
        assert len(calls) == 2


MALFORMED_KEYS = pytest.mark.parametrize(
    "entry,message",
    [
        ({"x": ["0", "0"], "a": ["+", "zzz"], "c": 5.0}, "party 1 has no good outcome 'zzz'"),
        ({"x": ["0", "0"], "a": ["+", "noclick"], "c": 5.0}, "party 1 has no good outcome 'noclick'"),
        ({"x": ["0", "0", "0"], "a": ["+", "+"], "c": 1.0}, "expected a tuple of 2 settings"),
    ],
    ids=["unknown-outcome", "noclick", "three-settings"],
)


@MALFORMED_KEYS
@pytest.mark.parametrize("argv", [["simulate"], ["simulate", "--postselect"], ["bound"]], ids=" ".join)
def test_malformed_coefficient_key_exits_one(tmp_path, capsys, entry, message, argv):
    obj = serialize.scenario_to_json(chsh_singlet_scenario())
    obj["bell"]["coeffs"].append(entry)
    path = tmp_path / "bad.json"
    serialize.dump_json(obj, path)
    assert main([*argv, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot load scenario: Bell coefficient for settings") and message in err
    assert err.count("\n") == 1


def test_scenario_commands_never_build_dict_tables(chsh_file, monkeypatch, capsys):
    """``simulate``, ``bound`` and the CHSH demo read the joint table arrays, not their dict view."""
    from fairsamp.bell import BellScenario

    def forbidden(self, tuples):
        raise AssertionError("the dict view joint_raw_tables was called")

    monkeypatch.setattr(BellScenario, "joint_raw_tables", forbidden)
    for argv in (["simulate", "--postselect", str(chsh_file)], ["bound", str(chsh_file)], ["demo", "chsh-singlet"]):
        assert main(argv) == 0


def test_parser_is_built_once_and_runs_the_current_commands(chsh_file, monkeypatch, capsys):
    from fairsamp import cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_bound", lambda args: 7)
    assert main(["bound", str(chsh_file)]) == 7


class TestJointStatisticsReuse:
    """Each command walks the setting tuples once per scenario, sharing every setting prefix's contraction."""

    @pytest.fixture
    def contractions(self, monkeypatch):
        from fairsamp.bell import BellScenario

        calls = []
        original = BellScenario._contract_step

        def counted(self, t, k, stack):
            calls.append(k)
            return original(self, t, k, stack)

        monkeypatch.setattr(BellScenario, "_contract_step", counted)
        return calls

    # Two parties with two settings each: 2 + 2 * 2 = 6 steps per walk, one walk over
    # the measured scenario and one over the ideal one; a step per party and tuple
    # would be 2 * 4 = 8 per walk.
    @pytest.mark.parametrize(
        "argv,expected",
        [(["simulate", "--postselect", "CHSH"], 12), (["bound", "CHSH"], 12), (["demo", "chsh-singlet"], 12)],
    )
    def test_chsh_file(self, chsh_file, contractions, capsys, argv, expected):
        assert main([str(chsh_file) if a == "CHSH" else a for a in argv]) == 0
        assert len(contractions) == expected
        assert contractions == [0, 1, 1, 0, 1, 1] * 2  # party of each step, in walk order


MALFORMED_ENTRIES = pytest.mark.parametrize(
    "entry",
    [[0.5], ["0.5", "0"], 0.5, [0.5, 0.0, 9.0], [float("nan"), 0.0]],
    ids=["short-pair", "strings", "bare-number", "long-pair", "nan"],
)


class TestMalformedMatrix:
    """A bad matrix entry exits 1 with a load error that names the matrix and the entry."""

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @MALFORMED_ENTRIES
    def test_device_entry(self, tmp_path, capsys, command, entry):
        obj = serialize.device_to_json(makarov_traced())
        obj["povm"]["1"]["+"][0][1] = entry
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        argv = [command, str(path)] + (["-o", str(tmp_path / "dc")] if command == "decompose" else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot load device: povm['1']['+']: entry [0][1] is ")

    @pytest.mark.parametrize("command", [["simulate", "--postselect"], ["bound"]])
    @MALFORMED_ENTRIES
    def test_scenario_state_entry(self, tmp_path, capsys, command, entry):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["state"][3][0] = entry
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main([*command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load scenario: state: entry [3][0] is ")

    def test_scenario_party_entry(self, tmp_path, capsys):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["parties"][1]["device"]["povm"]["0"]["-"][1][1] = ["0.5", "0"]
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main(["bound", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load scenario: party 1: povm['0']['-']: entry [1][1] is ")


class TestMalformedFields:
    """A malformed JSON field exits 1 with a load error naming it, not a traceback."""

    @pytest.mark.parametrize(
        "field,value,named",
        [("dim", None, "dim"), ("povm", [], "povm"), ("settings", "01", "settings"), ("outcomes", [1], "outcomes")],
    )
    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_device_field(self, tmp_path, capsys, command, field, value, named):
        obj = serialize.device_to_json(makarov_traced())
        obj[field] = value
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        argv = [command, str(path)] + (["-o", str(tmp_path / "dc")] if command == "decompose" else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot load device: {named} must be ")

    @pytest.mark.parametrize("value", [None, "2.5"])
    @pytest.mark.parametrize("command", [["simulate"], ["simulate", "--postselect"], ["bound"]])
    def test_coefficient_value(self, tmp_path, capsys, command, value):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["bell"]["coeffs"][3]["c"] = value
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main([*command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot load scenario: coeffs[3].c must be a finite JSON number, got {value!r}\n"

    @pytest.mark.parametrize("command", [["simulate"], ["bound"]])
    def test_party_device_field(self, tmp_path, capsys, command):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["parties"][0]["device"]["dim"] = None
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main([*command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load scenario: party 0: dim must be ")


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestOutputIsJsonDumpsText:
    """Every file and stdout a command writes equals json.dumps(indent=2, sort_keys=True) text."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "TRACED"],
            ["check", "UNEQUAL"],
            ["check", "UNEQUAL", "--mq", "MQ"],
            ["simulate", "--postselect", "CHSH"],
            ["simulate", "CHSH"],
            ["bound", "CHSH"],
            ["demo", "makarov"],
            ["demo", "analyser", "--nmax", "2"],
            ["demo", "chsh-singlet"],
            ["demo", "prop2-random", "--count", "3", "--seed", "5"],
        ],
    )
    def test_stdout_and_output_file(self, traced_file, unequal_file, chsh_file, tmp_path, capsys, argv):
        names = {"TRACED": traced_file, "UNEQUAL": unequal_file[0], "MQ": unequal_file[1], "CHSH": chsh_file}
        argv = [str(names.get(a, a)) for a in argv]
        code = main(argv)
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert out == canonical(out)
        path = tmp_path / "out.json"
        assert main([*argv, "-o", str(path)]) == code
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("device", ["TRACED", "UNEQUAL"])
    def test_decompose_files(self, traced_file, unequal_file, tmp_path, device):
        path = traced_file if device == "TRACED" else unequal_file[0]
        out = tmp_path / "dc"
        assert main(["decompose", str(path), "-o", str(out), "--trials", "5"]) == 0
        files = sorted(out.iterdir())
        assert [f.name for f in files] == ["filter.json", "lossless.json", "verification.json"]
        for f in files:
            text = f.read_text(encoding="utf-8")
            assert text == canonical(text)


class TestDemo:
    def test_makarov_demo(self, capsys):
        assert main(["demo", "makarov"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chsh"] == 4.0
        assert report["detection_rate"] == pytest.approx(1.0 / 32.0, abs=1e-12)
        assert report["traced_verdict"]["weak"] and not report["adversary_verdict"]["weak"]

    def test_analyser_demo_single_row(self, capsys):
        assert main(["demo", "analyser", "--eta2", "0.8", "--delta", "0.05", "--nmax", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)["sweep"]
        assert len(rows) == 1
        assert rows[0]["epsilon_numeric"] == pytest.approx(rows[0]["epsilon_closed_form"], abs=1e-9)

    def test_chsh_singlet_demo(self, capsys):
        assert main(["demo", "chsh-singlet"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell_value_postselected"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert report["strong_fair_sampling"] is True

    def test_prop2_random_demo(self, capsys):
        assert main(["demo", "prop2-random", "--count", "4", "--seed", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_deviation"] <= 1e-9

    def test_outputs_are_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["demo", "prop2-random", "--count", "3", "--seed", "5", "-o", str(a)])
        main(["demo", "prop2-random", "--count", "3", "--seed", "5", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_demo_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "nonsense"])
