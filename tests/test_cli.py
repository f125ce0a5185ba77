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


class TestJointStatisticsReuse:
    """Commands reuse the joint tables they have built instead of recomputing them."""

    @pytest.fixture
    def joint_calls(self, monkeypatch):
        from fairsamp.bell import BellScenario

        counts = {"joint_raw": 0, "joint_postselected": 0}
        for name in counts:
            original = getattr(BellScenario, name)

            def counted(self, xs, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, xs)

            monkeypatch.setattr(BellScenario, name, counted)
        return counts

    @pytest.mark.parametrize(
        "argv,expected",
        [(["simulate", "--postselect"], 8), (["bound"], 4)],
    )
    def test_chsh_file(self, chsh_file, joint_calls, capsys, argv, expected):
        assert main([*argv, str(chsh_file)]) == 0
        assert joint_calls == {"joint_raw": expected, "joint_postselected": expected}


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
