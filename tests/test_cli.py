"""Command-line behavior: exit codes, file outputs and demo stability."""

import argparse
import ast
import errno
import gc
import inspect
import os
import json
import textwrap

import numpy as np
import pytest

import helpers
from fairsamp import serialize
from fairsamp.adversary import makarov_traced
from fairsamp.bell import chsh_coefficients, chsh_singlet_scenario, singlet_state
from fairsamp.cli import main
from fairsamp.optics import AnalyserSpec, analyser_device, analyser_mq
from fairsamp.sampling import random_fair_sampling_device


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
def singlet_file(tmp_path):
    path = tmp_path / "chsh.json"
    serialize.dump_json(serialize.scenario_to_json(chsh_singlet_scenario()), path)
    return path


def dead_scenario_file(tmp_path, bell_coeffs=None):
    """Singlet measured by the silent device and a lossless Z measurement."""
    from fairsamp.bell import BellScenario
    from fairsamp.device import projective_qubit_device

    sc = BellScenario([helpers.silent_device(), projective_qubit_device({"0": 0.0})], singlet_state(), bell_coeffs)
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

    def test_reference_of_another_dimension_exits_one(self, traced_file, tmp_path, capsys):
        eye3 = tmp_path / "eye3.json"
        serialize.dump_json(serialize.matrix_to_json(np.eye(3)), eye3)
        assert main(["check", str(traced_file), "--mq", str(eye3)]) == 1
        assert capsys.readouterr() == ("", "error: reference operator has shape (3, 3), but the device has dimension 2\n")

    def test_dead_setting_erased_from_verdict(self, tmp_path, capsys):
        path = tmp_path / "silent.json"
        serialize.dump_json(serialize.device_to_json(helpers.silent_device()), path)
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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_one_before_writing(self, traced_file, tmp_path, capsys, trials):
        out = tmp_path / "dec"
        assert main(["decompose", str(traced_file), "--trials", trials, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"
        assert not out.exists()

    def test_negative_seed_exits_one_before_any_work(self, traced_file, tmp_path, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("decompose read its device before checking --seed")

        monkeypatch.setattr(serialize, "load_json", no_work)
        out = tmp_path / "dec"
        assert main(["decompose", str(traced_file), "--seed", "-5", "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -5\n")
        assert not out.exists()

    def test_unusable_output_fails_before_any_work(self, traced_file, tmp_path, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("decompose worked before creating its output directory")

        monkeypatch.setattr(serialize, "load_json", no_work)
        monkeypatch.setattr("fairsamp.cli.canonical_decomposition", no_work)
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["decompose", str(traced_file), "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(out)!r}\n")

    def test_help_describes_the_output_directory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "-h"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "-o OUTPUT, --output OUTPUT output directory (default <device>.decomposition)" in text


class TestUnwritableOutput:
    """An output that cannot be written exits 1 with one ``error:`` line naming the path given."""

    @pytest.mark.parametrize(
        "command,target,code",
        [
            ("check", "missing_dir/x.json", errno.ENOENT),
            ("check", "afile/x.json", errno.ENOTDIR),
            ("check", "adir", errno.EISDIR),
            ("decompose", "afile", errno.EEXIST),
            ("check", ".", errno.EISDIR),
        ],
        ids=[
            "missing directory",
            "file as directory",
            "directory as file",
            "file as output directory",
            "current directory as file",
        ],
    )
    def test_exits_one_naming_the_path(self, traced_file, tmp_path, monkeypatch, capsys, command, target, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        (tmp_path / "adir" / "keep").write_text("")
        assert main([command, str(traced_file), "-o", target]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno {code}] {os.strerror(code)}: {target!r}\n")
        assert not list(tmp_path.rglob("*.tmp"))


class TestSimulate:
    def test_chsh_singlet_report(self, singlet_file, capsys):
        assert main(["simulate", str(singlet_file), "--postselect"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell_value_postselected"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert report["ideal_deviation"] <= 1e-9
        assert report["acceptance"]["0,0"] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert report["erased"] == []

    def test_exact_tables_are_written_as_their_dicts(self, tmp_path, capsys):
        """|0><0| x |0><0| under Z (and X) measurements: exact 0.0 and 1.0 entries, written as ``json`` would."""
        import itertools

        from fairsamp.bell import LABEL_SEP, BellScenario
        from fairsamp.device import projective_qubit_device
        from fairsamp.linalg import projector

        zero = projector(np.array([1.0, 0.0], dtype=complex))
        sc = BellScenario(
            [projective_qubit_device({"z": 0.0, "x": np.pi / 2.0}, 0.5), projective_qubit_device({"z": 0.0})],
            np.kron(zero, zero),
        )
        path = tmp_path / "product.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        out = capsys.readouterr().out
        t = sc.tables()
        raw_labels = [LABEL_SEP.join(outs) for outs in itertools.product(*t.outcomes)]
        good_labels = [LABEL_SEP.join(outs) for outs in itertools.product(*(dev.outcomes for dev in sc.devices))]
        expected = json.loads(out)
        expected["raw"] = {
            LABEL_SEP.join(xs): helpers.legacy_table_to_json(raw_labels, table) for xs, table in t.raw.items()
        }
        expected["postselected"] = {
            LABEL_SEP.join(xs): helpers.legacy_table_to_json(good_labels, table)
            for xs, table in t.postselected.items()
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert expected["raw"]["z,z"]["+,+"] == 0.5 and expected["postselected"]["z,z"]["+,+"] == 1.0
        assert '"-,-": 0.0' in out and '"+,+": 1.0' in out

    def test_raw_only_without_flag(self, singlet_file, capsys):
        assert main(["simulate", str(singlet_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "postselected" not in report

    def test_lossless_scenario_postselection_changes_nothing(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.device import projective_qubit_device

        devices = [
            projective_qubit_device({"0": 0.0, "1": np.pi / 2.0}),
            projective_qubit_device({"0": -3.0 * np.pi / 4.0, "1": 3.0 * np.pi / 4.0}),
        ]
        sc = BellScenario(devices, singlet_state(), chsh_coefficients(devices))
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

    def test_no_ideal_experiment_omits_ideal_deviation(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.device import LossyDevice, projective_qubit_device

        # Both devices pass the weak test, but party 0's filter keeps only |0>, where the state has no weight.
        half = LossyDevice(2, ["0"], ["+"], {"0": {"+": 0.5 * np.diag([1.0, 0.0])}})
        psi = np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        path = tmp_path / "orthogonal.json"
        sc = BellScenario([half, projective_qubit_device({"0": 0.0})], psi)
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["erased"] == ["0,0"] and "ideal_deviation" not in report
        note = "note: no ideal experiment, ideal_deviation omitted: global filter acceptance 0.000e+00 vanishes\n"
        assert err == note

    def test_never_clicking_device_omits_ideal_deviation(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
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

    def test_party_failing_the_weak_test_is_noted(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.device import projective_qubit_device
        from fairsamp.optics import single_photon_analyser

        mismatched = single_photon_analyser(0.8, 0.3, [0.0, np.pi / 4.0])
        sc = BellScenario([mismatched, projective_qubit_device({"0": 0.0})], singlet_state())
        path = tmp_path / "unfair.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["simulate", str(path), "--postselect"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert set(report) == {"raw", "acceptance", "postselected", "erased"}
        assert err == "note: no ideal experiment, ideal_deviation omitted: party 0 fails the exact fair-sampling check\n"

    def test_other_ideal_errors_exit_one(self, singlet_file, monkeypatch, capsys):
        from fairsamp.linalg import NotPositiveError

        def broken(sc, refs):
            raise NotPositiveError("outcomes ('+', '+') at settings ('0', '0') has negative probability")

        monkeypatch.setattr("fairsamp.bell.ideal_scenario", broken)
        assert main(["simulate", str(singlet_file), "--postselect"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: outcomes ('+', '+') at settings ('0', '0')" in err

    def test_separator_in_outcome_label_rejected(self, tmp_path, capsys):
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
    def test_exact_scenario_bounds_are_zero(self, singlet_file, capsys):
        assert main(["bound", str(singlet_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon_total"] == 0.0
        assert report["measured_joint_deviation"] <= 1e-9
        assert report["beta_max"] == 4.0
        assert report["measured_bell_deviation"] <= report["bell_deviation_bound"] + 1e-9

    def test_two_mismatched_analysers(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.optics import single_photon_analyser

        devices = [
            single_photon_analyser(0.8, 0.05, [0.0, np.pi / 4.0]),
            single_photon_analyser(0.8, 0.05, [-3.0 * np.pi / 8.0, 3.0 * np.pi / 8.0]),
        ]
        sc = BellScenario(devices, singlet_state(), chsh_coefficients(devices))
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


    def test_reference_of_another_dimension_exits_one(self, singlet_file, tmp_path, capsys):
        eye3 = tmp_path / "eye3.json"
        serialize.dump_json(serialize.matrix_to_json(np.eye(3)), eye3)
        assert main(["bound", str(singlet_file), "--mq", str(eye3)]) == 1
        assert capsys.readouterr() == ("", "error: reference operator has shape (3, 3), but the device has dimension 2\n")

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


    @pytest.mark.parametrize("eta,delta,margin", [(0.8, 0.05, 0.6873), (0.8, 0.2, 0.2680), (0.5, 0.1, -0.2821)])
    def test_certified_margin_of_mismatched_analysers(self, tmp_path, capsys, eta, delta, margin):
        """Singlet, analysers at (pi/4, 0) and (pi/8, 3 pi/8): CHSH's minus sign falls on (0, 3 pi/8)."""
        from fairsamp.bell import BellScenario
        from fairsamp.optics import single_photon_analyser

        devices = [
            single_photon_analyser(eta, delta, [np.pi / 4.0, 0.0]),
            single_photon_analyser(eta, delta, [np.pi / 8.0, 3.0 * np.pi / 8.0]),
        ]
        sc = BellScenario(devices, singlet_state(), chsh_coefficients(devices))
        path = tmp_path / "analysers.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["bound", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["local_bound"], err) == (2.0, "")
        assert report["certified_margin"] == pytest.approx(margin, abs=5e-5)

    def test_too_many_local_strategies_omit_the_local_keys_with_a_note(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.device import projective_qubit_device

        many = projective_qubit_device({str(k): k * np.pi / 17.0 for k in range(17)})
        coeffs = {((x, y), (a, b)): 1.0 for x in many.settings for y in many.settings for a in "+-" for b in "+-"}
        sc = BellScenario([many, many], singlet_state(), coeffs)
        path = tmp_path / "many.json"
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        assert main(["bound", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert "beta_max" in report and not {"local_bound", "certified_margin"} & set(report)
        note = "note: local_bound and certified_margin omitted: local strategy table of size 4456448 exceeds 100000\n"
        assert err == note

    def test_never_clicking_party_fails_alike_with_and_without_a_reference(self, tmp_path, capsys):
        from fairsamp.bell import BellScenario
        from fairsamp.device import LossyDevice, projective_qubit_device

        blind = LossyDevice(2, ["0"], ["+", "-"], {"0": {"+": np.zeros((2, 2)), "-": np.zeros((2, 2))}})
        path, eye = tmp_path / "blind.json", tmp_path / "eye2.json"
        sc = BellScenario([blind, projective_qubit_device({"0": 0.0})], singlet_state())
        serialize.dump_json(serialize.scenario_to_json(sc), path)
        serialize.dump_json(serialize.matrix_to_json(np.eye(2)), eye)
        for argv in (["bound", str(path)], ["bound", str(path), "--mq", str(eye)]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "error: all click elements vanish; the device never accepts\n")

    def test_walks_the_coefficient_mapping_once(self, singlet_file, monkeypatch, capsys):
        """When the scenario is compiled; ``beta_max`` and ``local_bound`` read the compiled functional."""
        import fairsamp.bell

        walks = []
        original = fairsamp.bell._grouped
        monkeypatch.setattr(fairsamp.bell, "_grouped", lambda coeffs: walks.append(coeffs) or original(coeffs))
        assert main(["bound", str(singlet_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (len(walks), report["beta_max"], report["local_bound"]) == (1, 4.0, 2.0)

    def test_conjugates_each_party_once(self, singlet_file, monkeypatch, capsys):
        import fairsamp.analysis

        calls = []
        original = fairsamp.analysis._conjugated_clicks

        def counted(dev, pi, pinv):
            calls.append(dev)
            return original(dev, pi, pinv)

        monkeypatch.setattr(fairsamp.analysis, "_conjugated_clicks", counted)
        assert main(["bound", str(singlet_file)]) == 0
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


# A scenario: the state as loaded (its eigenvalues alone), each party's reference once (verdict and ideal
# experiment alike), the filtered state (its eigenvalues alone); ``bound --mq`` decomposes the one shared
# reference once for every party.  ``check --mq`` on a device failing the weak test: the supplied reference
# alone, for its support and epsilon; the device's own default reference is never built.
STATE, QUBIT = ("eigvalsh", (4, 4)), ("eigh", (2, 2))


@pytest.mark.parametrize(
    "argv,code,expected",
    [
        (["simulate", "--postselect", "CHSH"], 0, [STATE, QUBIT, QUBIT, STATE]),
        (["bound", "CHSH"], 0, [STATE, QUBIT, QUBIT, STATE]),
        (["bound", "CHSH", "--mq", "EYE2"], 0, [STATE, QUBIT, QUBIT, STATE]),
        (["check", "UNEQUAL", "--mq", "MQ"], 2, [("eigh", (6, 6))]),
    ],
    ids=["simulate", "bound", "bound-mq", "check-mq"],
)
def test_one_eigh_per_reference_and_state(
    singlet_file, unequal_file, tmp_path, monkeypatch, capsys, argv, code, expected
):
    eye2 = tmp_path / "eye2.json"
    serialize.dump_json(serialize.matrix_to_json(np.eye(2)), eye2)
    names = {"CHSH": singlet_file, "UNEQUAL": unequal_file[0], "MQ": unequal_file[1], "EYE2": eye2}
    calls = helpers.record_spectral_calls(monkeypatch)
    assert main([str(names.get(a, a)) for a in argv]) == code
    assert calls == expected


def test_chsh_demo_checks_each_device_once(monkeypatch, capsys):
    """``strong_fair_sampling`` reads the verdicts the scenario report built for the ideal experiment."""
    import fairsamp.analysis
    from fairsamp import cli

    checks, weak_tests = [], []
    check_exact, weak_reference = cli.check_exact, fairsamp.analysis._weak_reference
    monkeypatch.setattr(cli, "check_exact", lambda dev, **kw: checks.append(dev) or check_exact(dev, **kw))
    monkeypatch.setattr(
        fairsamp.analysis, "_weak_reference", lambda dev, *a: weak_tests.append(dev) or weak_reference(dev, *a)
    )
    assert main(["demo", "chsh-singlet"]) == 0
    assert json.loads(capsys.readouterr().out)["strong_fair_sampling"] is True
    assert len(checks) == len(weak_tests) == 2


def test_cli_uses_only_the_public_api():
    """``cli.py`` imports no underscore name from fairsamp and reads no underscore attribute, a scenario's included."""
    import ast
    from pathlib import Path

    from fairsamp import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("fairsamp"))
        for alias in node.names
    ]
    assert imported and [name for name in imported if name.startswith("_")] == []
    private = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    ]
    assert private == []


def test_scenario_commands_never_build_dict_tables(singlet_file, monkeypatch, capsys):
    """``simulate``, ``bound`` and the CHSH demo read the joint table arrays, not their dict views."""
    from fairsamp.bell import BellScenario

    for name in ("joint_raw", "joint_postselected", "all_click_probability"):

        def forbidden(self, xs, name=name):
            raise AssertionError(f"the dict view {name} was called")

        monkeypatch.setattr(BellScenario, name, forbidden)
    for argv in (["simulate", "--postselect", str(singlet_file)], ["bound", str(singlet_file)], ["demo", "chsh-singlet"]):
        assert main(argv) == 0


def test_parser_is_built_once_and_runs_the_current_commands(singlet_file, monkeypatch, capsys):
    from fairsamp import cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_bound", lambda args: 7)
    assert main(["bound", str(singlet_file)]) == 7


class TestJointStatisticsReuse:
    """Each command reads the joint tables once per scenario, contracting each party once."""

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

    # Two parties: one step per party per walk, one walk over the measured scenario
    # and one over the ideal one.
    @pytest.mark.parametrize(
        "argv,expected",
        [(["simulate", "--postselect", "CHSH"], 4), (["bound", "CHSH"], 4), (["demo", "chsh-singlet"], 4)],
    )
    def test_chsh_file(self, singlet_file, contractions, capsys, argv, expected):
        assert main([str(singlet_file) if a == "CHSH" else a for a in argv]) == 0
        assert len(contractions) == expected
        assert contractions == [0, 1] * 2  # party of each step, in walk order


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
    def test_falsy_bell(self, tmp_path, capsys, command):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["bell"] = []
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main([*command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot load scenario: bell must be a JSON object, got []\n"

    def test_dim_past_64_bits_reads_as_a_float(self, tmp_path, capsys):
        """An integer outside [-2**63, 2**64) reads as the nearest float, so ``dim`` is rejected by type."""
        obj = serialize.device_to_json(makarov_traced())
        obj["dim"] = 2**64
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot load device: dim must be a positive integer, got 1.8446744073709552e+19\n"

    @pytest.mark.parametrize("command", [["simulate"], ["bound"]])
    def test_scenario_without_parties(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        serialize.dump_json({"parties": [], "state": [[[1.0, 0.0]]]}, path)
        assert main([*command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot load scenario: a Bell scenario needs at least one party\n"

    @pytest.mark.parametrize("command", [["simulate"], ["bound"]])
    def test_party_device_field(self, tmp_path, capsys, command):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["parties"][0]["device"]["dim"] = None
        path = tmp_path / "bad.json"
        serialize.dump_json(obj, path)
        assert main([*command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load scenario: party 0: dim must be ")


class TestDeepNesting:
    """A text nested too deeply to read exits 1 with a load error, not a traceback; a readable one is named by its start."""

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("command", ["check", "decompose", "simulate", "bound"])
    def test_input_file(self, tmp_path, capsys, command, depth):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * depth + b"]" * depth)
        argv = [command, str(path)] + (["-o", str(tmp_path / "dc")] if command == "decompose" else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        kind = "device" if command in ("check", "decompose") else "scenario"
        assert out == ""
        if depth == 1000:
            assert err == f"error: cannot load {kind}: {kind} must be a JSON object, got {'[' * 40}\n"
        else:
            assert err.startswith(f"error: cannot load {kind}: ") and "recursion" in err and err.count("\n") == 1

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("command", ["check", "bound"])
    def test_mq_file(self, traced_file, singlet_file, tmp_path, capsys, command, depth):
        mq = tmp_path / "deep_mq.json"
        mq.write_bytes(b"[" * depth + b"]" * depth)
        assert main([command, str(traced_file if command == "check" else singlet_file), "--mq", str(mq)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        if depth == 1000:
            assert err == f"error: cannot load mq: entry [0][0] is {'[' * 40}, expected [re, im]\n"
        else:
            assert err.startswith("error: cannot load mq: ") and "recursion" in err and err.count("\n") == 1


#: Each command and demo taking ``--tol``, its inputs named by the fixture that writes them.
TOL_ARGV = {
    "check": ["check", "DEVICE"],
    "simulate": ["simulate", "SCENARIO"],
    "bound": ["bound", "SCENARIO"],
    "makarov": ["demo", "makarov"],
    "chsh-singlet": ["demo", "chsh-singlet"],
}


class TestTolerance:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    @pytest.mark.parametrize("argv", TOL_ARGV.values(), ids=TOL_ARGV.keys())
    def test_rejected_before_any_work(self, traced_file, singlet_file, monkeypatch, capsys, argv, value):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before checking --tol")

        monkeypatch.setattr(serialize, "load_json", no_work)
        monkeypatch.setattr("fairsamp.cli.check_exact", no_work)
        files = {"DEVICE": str(traced_file), "SCENARIO": str(singlet_file)}
        assert main([files.get(arg, arg) for arg in argv] + [f"--tol={value}"]) == 1
        assert capsys.readouterr() == ("", f"error: --tol must be a finite non-negative number, got {float(value)!r}\n")

    @pytest.mark.parametrize("argv", TOL_ARGV.values(), ids=TOL_ARGV.keys())
    def test_zero_accepted(self, traced_file, singlet_file, capsys, argv):
        files = {"DEVICE": str(traced_file), "SCENARIO": str(singlet_file)}
        assert main([files.get(arg, arg) for arg in argv] + ["--tol", "0"]) == 0
        assert capsys.readouterr().err == ""


class TestGcPause:
    """Reading an input pauses the cyclic garbage collector and leaves it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["good", "malformed", "missing", "deep"])
    def test_leaves_gc_as_found(self, traced_file, tmp_path, capsys, case, enabled):
        path = traced_file if case == "good" else tmp_path / "input.json"
        if case == "malformed":
            path.write_text("{not json")
        elif case == "deep":
            path.write_bytes(b"[" * 5000 + b"]" * 5000)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(["check", str(path)])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert code == (0 if case == "good" else 1)

    def test_no_automatic_collection_while_checking_a_large_device(self, tmp_path, capsys):
        path = tmp_path / "large.json"
        dev = random_fair_sampling_device(64, 3, 3, np.random.default_rng(5))
        serialize.dump_json(serialize.device_to_json(dev), path)
        assert path.stat().st_size > 2_000_000 and gc.isenabled()
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            assert main(["check", str(path)]) == 0
        finally:
            gc.callbacks.remove(record)
        assert started == []


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def parsers_and_readers():
    """(argv prefix, parser, functions that read its arguments) for each command and each demo.

    A command's arguments are read by ``cmd_<command>``; a demo's by ``_demo_<name>`` and by ``cmd_demo``.
    """
    from fairsamp import cli

    for command, parser in subcommands(cli.build_parser()).items():
        demos = subcommands(parser)
        if not demos:
            yield [command], parser, [getattr(cli, f"cmd_{command}")]
        for demo, demo_parser in demos.items():
            yield [command, demo], demo_parser, [getattr(cli, "_demo_" + demo.replace("-", "_")), cli.cmd_demo]


def args_read(fn) -> set[str]:
    """The attributes ``fn`` reads from its ``args``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


#: The options of each command and demo.  Each also takes ``-o``.
ACCEPTED = {
    "check": {"--mq", "--tol"},
    "decompose": {"--trials", "--seed"},
    "simulate": {"--postselect", "--tol"},
    "bound": {"--mq", "--tol"},
    "demo makarov": {"--noise", "--tol"},
    "demo analyser": {"--nmax", "--eta1", "--eta2", "--delta"},
    "demo chsh-singlet": {"--tol"},
    "demo prop2-random": {"--count", "--seed"},
}
#: The options every demo took when all of them shared one parser (``-o`` aside).
ALL_DEMO_OPTIONS = {"--noise", "--nmax", "--eta1", "--eta2", "--delta", "--count", "--tol", "--seed"}
#: Options once taken without being read, each now rejected: every command also took ``--tol`` and ``--seed``.
REJECTED = [
    (command, option)
    for command, accepted in ACCEPTED.items()
    for option in sorted((ALL_DEMO_OPTIONS if command.startswith("demo ") else accepted | {"--tol", "--seed"}) - accepted)
]


class TestOptions:
    """Each command and each demo takes only the options it reads."""

    def test_every_argument_is_read(self):
        unread = [
            (" ".join(prefix), action.dest)
            for prefix, parser, readers in parsers_and_readers()
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
            and action.dest not in set().union(*map(args_read, readers))
        ]
        assert unread == []

    def test_each_command_takes_exactly_its_options(self):
        taken = {
            " ".join(prefix): {a.option_strings[-1] for a in parser._actions if a.option_strings} - {"--help"}
            for prefix, parser, _ in parsers_and_readers()
        }
        assert taken == {command: accepted | {"--output"} for command, accepted in ACCEPTED.items()}
        assert len(REJECTED) == 27

    @pytest.mark.parametrize("command,option", REJECTED, ids=[f"{c} {o}" for c, o in REJECTED])
    def test_unread_option_exits_two(self, capsys, command, option):
        files = [] if command.startswith("demo ") else ["in.json"]
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), *files, option, "1"])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {option} 1\n" in capsys.readouterr().err

    def test_eta1_and_delta_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "analyser", "--eta1", "0.7", "--delta", "0.1"])
        assert exc.value.code == 2
        assert "argument --delta: not allowed with argument --eta1" in capsys.readouterr().err


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
    def test_stdout_and_output_file(self, traced_file, unequal_file, singlet_file, tmp_path, capsys, argv):
        names = {"TRACED": traced_file, "UNEQUAL": unequal_file[0], "MQ": unequal_file[1], "CHSH": singlet_file}
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

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_prop2_random_count_below_one_exits_one(self, capsys, count):
        assert main(["demo", "prop2-random", "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --count must be at least 1, got {count}\n"

    def test_prop2_random_negative_seed_exits_one(self, capsys):
        assert main(["demo", "prop2-random", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")

    def test_outputs_are_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["demo", "prop2-random", "--count", "3", "--seed", "5", "-o", str(a)])
        main(["demo", "prop2-random", "--count", "3", "--seed", "5", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_demo_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "nonsense"])
