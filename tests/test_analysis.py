"""Fair-sampling verdicts, the approximate deviation and the companion bounds."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairsamp.adversary import makarov_traced
from fairsamp.analysis import (
    approximate_epsilon,
    check_exact,
    default_mq,
    filtered_state,
    ideal_device_from,
    imperfect_state_bound,
    necessary_conditions,
    reference,
    state_dependent_check,
    tv_bound,
)
from fairsamp.bell import BellScenario, ideal_scenario, singlet_state
from fairsamp.device import LossyDevice, ZeroAcceptanceError, projective_qubit_device, total_variation
from fairsamp.filters import canonical_decomposition
from fairsamp.linalg import SCREEN_FROM_DIM, expect, operator_norm, operator_norms, projector
from fairsamp.optics import AnalyserSpec, analyser_device, analyser_mq, single_photon_analyser
from fairsamp.sampling import random_density, random_fair_sampling_device, random_povm


@pytest.fixture
def equal_analyser():
    return analyser_device(AnalyserSpec(eta1=0.8, eta2=0.8, angles=(0.0, np.pi / 3.0), n_max=3))


class TestCheckExact:
    def test_equal_efficiency_analyser(self, equal_analyser):
        verdict = check_exact(equal_analyser)
        assert verdict.weak and verdict.homogeneous and not verdict.strong
        assert verdict.epsilon == 0.0
        # the common quantum element is proportional to 1 - r^N (here normalized)
        mq = analyser_mq(0.8, 3)
        np.testing.assert_allclose(
            verdict.quantum_elem, mq / np.linalg.norm(mq, 2), atol=1e-10
        )

    def test_single_photon_equal_detectors_is_strong(self):
        dev = single_photon_analyser(0.8, 0.0, [0.0, np.pi / 7.0, 1.1])
        verdict = check_exact(dev)
        assert verdict.weak and verdict.strong and verdict.homogeneous
        for x in dev.settings:
            assert verdict.classical_eff[x] == pytest.approx(0.8, abs=1e-12)

    def test_unequal_detectors_fail(self):
        dev = single_photon_analyser(0.8, 0.1, [0.0, np.pi / 4.0])
        verdict = check_exact(dev, tol=1e-6)
        assert not verdict.weak and not verdict.strong and not verdict.homogeneous

    def test_random_fair_sampling_device(self, rng):
        dev = random_fair_sampling_device(4, 3, 2, rng)
        verdict = check_exact(dev)
        assert verdict.weak
        # classical efficiencies reproduce every click element through the shared part
        for x in dev.settings:
            np.testing.assert_allclose(
                dev.click_element(x), verdict.classical_eff[x] * verdict.quantum_elem, atol=1e-9
            )

    def test_traced_makarov_looks_strong_homogeneous(self):
        verdict = check_exact(makarov_traced())
        assert verdict.weak and verdict.strong and verdict.homogeneous

    @pytest.mark.parametrize("dim", [3, SCREEN_FROM_DIM])
    def test_strong_on_both_sides_of_the_screen_gate(self, rng, dim):
        assert check_exact(random_fair_sampling_device(dim, 3, 2, rng, mq=np.eye(dim))).strong
        assert not check_exact(random_fair_sampling_device(dim, 3, 2, rng)).strong

    def test_zero_tolerance(self):
        """Exactly proportional click elements pass at tol 0; unequal detectors still fail."""
        assert check_exact(single_photon_analyser(0.8, 0.0, [0.0, np.pi / 4.0]), tol=0.0).weak
        assert not check_exact(single_photon_analyser(0.8, 0.1, [0.0, np.pi / 4.0]), tol=0.0).weak

    @pytest.mark.parametrize("dim", [3, SCREEN_FROM_DIM])
    def test_leak_names_the_setting_and_its_exact_residual(self, rng, dim):
        dev = random_fair_sampling_device(dim, 2, 2, rng)
        mq = np.diag([1.0] * (dim - 1) + [0.0])  # click elements have full support; mq lacks the last direction
        clicks = dev.click_elements()
        residual = operator_norms(mq @ clicks @ mq - clicks)[0]
        message = f"click element for setting 'x0' leaks outside the reference support (residual {residual:.3e})"
        with pytest.raises(ValueError) as raised:
            approximate_epsilon(dev, mq)
        assert str(raised.value) == message


class TestApproximateEpsilon:
    def test_exact_device_gives_zero(self, rng):
        dev = random_fair_sampling_device(3, 3, 2, rng)
        verdict = check_exact(dev)
        assert approximate_epsilon(dev, verdict.quantum_elem) <= 1e-10

    def test_single_photon_closed_form(self):
        dev = single_photon_analyser(0.8, 0.05, [0.0, np.pi / 4.0])
        assert approximate_epsilon(dev, np.eye(2)) == pytest.approx(0.0125, abs=1e-12)

    def test_multi_photon_closed_form(self):
        eta, delta, n_max = 0.8, 0.05, 4
        spec = AnalyserSpec(eta1=1.0 - (1.0 - eta) * (1.0 + delta), eta2=eta, angles=(0.0, np.pi / 4.0), n_max=n_max)
        eps = approximate_epsilon(analyser_device(spec), analyser_mq(eta, n_max))
        assert eps == pytest.approx(0.0125, abs=1e-9)

    def test_support_condition_violation(self):
        dev = single_photon_analyser(0.8, 0.0, [0.0])
        with pytest.raises(ValueError, match="support"):
            approximate_epsilon(dev, np.diag([1.0, 0.0]))

    def test_agrees_with_exact_verdict(self, rng):
        for _ in range(5):
            dev = random_fair_sampling_device(3, 2, 3, rng)
            verdict = check_exact(dev)
            assert verdict.weak
            assert approximate_epsilon(dev, verdict.quantum_elem) <= 1e-8


class TestErasure:
    """A setting whose click element has norm at most ZERO_ACCEPTANCE is erased."""

    @staticmethod
    def faint_device(scale):
        povm = {"x": {"a": 0.5 * np.eye(2)}, "faint": {"a": scale * np.diag([0.0, 1.0])}}
        return LossyDevice(2, ["x", "faint"], ["a"], povm)

    def test_faint_setting_is_erased(self):
        dev = self.faint_device(1e-13)
        assert approximate_epsilon(dev, np.eye(2)) == 0.0
        assert ideal_device_from(dev, np.eye(2)).settings == ("x",)
        np.testing.assert_allclose(default_mq(dev), np.eye(2), atol=1e-12)

    def test_weak_setting_is_live(self):
        dev = self.faint_device(1e-6)
        assert approximate_epsilon(dev, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def _in_a_scenario(dev):
    return ideal_scenario(BellScenario([dev, projective_qubit_device({"0": 0.0})], singlet_state()))


NEVER_CLICKS = {
    "default_mq": default_mq,
    "reference": reference,
    "check_exact": check_exact,
    "approximate_epsilon": lambda dev: approximate_epsilon(dev, np.eye(2)),
    "ideal_device_from": lambda dev: ideal_device_from(dev, np.eye(2)),
    "ideal_scenario": _in_a_scenario,
}


@pytest.mark.parametrize("call", NEVER_CLICKS.values(), ids=NEVER_CLICKS.keys())
def test_a_device_that_never_clicks_raises_one_error_everywhere(call):
    """Each step reads ``dev.live``, so none can take a device without a live setting; one dead setting is erased."""
    blind = LossyDevice(2, ["x"], ["a"], {"x": {"a": np.zeros((2, 2))}})
    with pytest.raises(ZeroAcceptanceError) as raised:
        call(blind)
    assert raised.value.args == ("all click elements vanish; the device never accepts",)
    call(helpers.silent_device())


class TestDefaultMq:
    def test_exact_device_recovers_reference(self, rng):
        dev = random_fair_sampling_device(3, 2, 2, rng)
        assert approximate_epsilon(dev, default_mq(dev)) <= 1e-9

    def test_strong_device_gives_identity(self):
        np.testing.assert_allclose(default_mq(makarov_traced()), np.eye(2), atol=1e-12)

    def test_average_arithmetic(self):
        povm = {
            "x": {"a": np.diag([1.0, 1.0])},
            "y": {"a": np.diag([1.0, 0.9])},
        }
        dev = LossyDevice(2, ["x", "y"], ["a"], povm)
        np.testing.assert_allclose(default_mq(dev), np.diag([1.0, 0.95]), atol=1e-12)


class TestIdealDevice:
    def test_exact_fs_matches_canonical_lossless(self, rng):
        dev = random_fair_sampling_device(3, 2, 2, rng)
        verdict = check_exact(dev)
        ideal = ideal_device_from(dev, verdict.quantum_elem)
        canonical = canonical_decomposition(dev).lossless
        pi = verdict.support
        for x in dev.settings:
            for a in dev.outcomes:
                np.testing.assert_allclose(
                    pi @ ideal.element(x, a) @ pi, pi @ canonical.element(x, a) @ pi, atol=1e-9
                )

    def test_traced_makarov_with_identity(self):
        ideal = ideal_device_from(makarov_traced(), np.eye(2))
        plus = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(ideal.element("0", "+"), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ideal.element("0", "-"), np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(ideal.element("1", "+"), plus, atol=1e-12)

    def test_completeness_for_perturbed_analyser(self):
        spec = AnalyserSpec(eta1=1.0 - 0.2 * 1.05, eta2=0.8, angles=(0.0, np.pi / 4.0), n_max=3)
        dev = analyser_device(spec)
        mq = analyser_mq(0.8, 3)
        ideal = ideal_device_from(dev, mq)
        pi = np.diag([0.0] + [1.0] * (dev.dim - 1))
        for x in dev.settings:
            total = sum(ideal.element(x, a) for a in ideal.outcomes)
            np.testing.assert_allclose(total, pi, atol=1e-9)

    def test_rejects_epsilon_of_one(self):
        from fairsamp.adversary import makarov_branches

        adv = makarov_branches().adversary_device()
        with pytest.raises(ValueError, match=">= 1"):
            ideal_device_from(adv, default_mq(adv))

    def test_device_that_never_clicks_has_no_ideal_device(self):
        """Every setting is erased, and a device needs at least one: the error says why there is none."""
        blind = LossyDevice(2, ["0"], ["+"], {"0": {"+": np.zeros((2, 2))}})
        with pytest.raises(ZeroAcceptanceError, match="^all click elements vanish; the device never accepts$"):
            ideal_device_from(blind, np.eye(2))


class TestFilteredState:
    def test_identity_reference(self, rng):
        rho = random_density(3, rng)
        out, eq = filtered_state(np.eye(3), rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)
        assert eq == pytest.approx(1.0, abs=1e-12)

    def test_projection_reference(self):
        out, eq = filtered_state(np.diag([0.0, 1.0]), np.eye(2) / 2.0)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)
        assert eq == pytest.approx(0.5, abs=1e-12)

    def test_strong_reference_returns_state(self, rng):
        rho = random_density(4, rng)
        out, eq = filtered_state(0.3 * np.eye(4), rho)
        assert np.max(np.abs(out - rho)) <= 1e-10
        assert eq == pytest.approx(0.3, abs=1e-12)

    def test_zero_acceptance(self):
        with pytest.raises(ZeroAcceptanceError):
            filtered_state(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "rho,message",
        [
            (np.full((2, 2), np.nan), r"^state has a non-finite entry$"),
            (np.diag([2.0, -1.0]), r"^state has negative eigenvalue -1\.000e\+00"),
            (np.eye(2), r"^state has trace 2\.0, expected 1$"),
        ],
        ids=["nan", "negative", "trace-2"],
    )
    def test_rejects_what_is_not_a_state(self, rho, message):
        with pytest.raises(ValueError, match=message):
            filtered_state(np.eye(2), rho)

    def test_reference_must_fit_the_state(self, rng):
        message = r"^reference dimensions \[2\] do not match state dimension 3$"
        with pytest.raises(ValueError, match=message):
            filtered_state(np.eye(2), random_density(3, rng))
        dev = projective_qubit_device({"z": 0.0})
        with pytest.raises(ValueError, match=message):
            filtered_state(reference(dev, np.eye(2)), random_density(3, rng))


class TestTvBound:
    @pytest.mark.parametrize("eps,expected", [(0.0, 0.0), (0.1, 0.1 / 0.9), (0.5, 1.0)])
    def test_values(self, eps, expected):
        assert tv_bound(eps) == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_bound(1.0)
        with pytest.raises(ValueError):
            tv_bound(-0.1)


class TestPostselectionBound:
    """The measured deviation never exceeds eps/(1-eps) for near-fair devices."""

    def test_tv_within_bound(self, rng):
        checked = 0
        for _ in range(25):
            dev = helpers.perturbed_fair_device(rng)
            mq = default_mq(dev)
            eps = approximate_epsilon(dev, mq)
            if eps >= 1.0:
                continue
            ideal = ideal_device_from(dev, mq)
            bound = tv_bound(eps)
            for _ in range(4):
                rho = random_density(3, rng)
                if min(dev.efficiency(x, rho) for x in dev.settings) < 0.01:
                    continue
                rho_click, _ = filtered_state(mq, rho)
                for x in dev.settings:
                    ps = dev.postselected_distribution(x, rho)
                    ideal_dist = {a: expect(ideal.element(x, a), rho_click) for a in dev.outcomes}
                    assert total_variation(ps, ideal_dist) <= bound + 1e-12
                    checked += 1
        assert checked > 20


class TestImperfectState:
    def test_clean_state_gives_zero(self, rng):
        rho = np.zeros((4, 4), dtype=complex)
        rho[:2, :2] = random_density(2, rng)
        report = imperfect_state_bound(helpers.random_lossy_device(4, rng), rho, good_dim=2, x="x")
        assert report.eps_prime == pytest.approx(0.0, abs=1e-12)
        assert report.coherence_trace_norm == pytest.approx(0.0, abs=1e-12)
        assert report.tv_measured <= 1e-10

    def test_coherence_lemma_value(self, rng):
        rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime=0.04)
        report = imperfect_state_bound(helpers.random_lossy_device(4, rng), rho_hat, good_dim=2, x="x")
        assert report.coherence_trace_norm <= np.sqrt(0.04 * 0.96) + 1e-12
        assert report.eps_prime == pytest.approx(0.04, abs=1e-10)

    @pytest.mark.parametrize(
        "bad,message",
        [(np.nan, r"^state has a non-finite entry$"), (-0.5, r"^state has negative eigenvalue")],
        ids=["nan", "negative"],
    )
    def test_rejects_what_is_not_a_state(self, rng, bad, message):
        rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime=0.04)
        rho_hat[3, 3] += bad
        rho_hat[0, 0] -= bad
        with pytest.raises(ValueError, match=message):
            imperfect_state_bound(helpers.random_lossy_device(4, rng), rho_hat, good_dim=2, x="x")

    def test_measured_within_bound(self, rng):
        for eps_prime in (0.01, 0.05, 0.1):
            for _ in range(5):
                rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime)
                report = imperfect_state_bound(
                    helpers.random_lossy_device(4, rng), rho_hat, good_dim=2, x="x"
                )
                assert report.tv_measured <= report.tv_bound + 1e-12

    def test_reads_the_device_read_out(self, rng):
        dev = helpers.random_lossy_device(4, rng)
        rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime=0.05)
        report = imperfect_state_bound(dev, rho_hat, good_dim=2, x="x")
        rho_good = np.zeros_like(rho_hat)
        rho_good[:2, :2] = rho_hat[:2, :2] / np.trace(rho_hat[:2, :2]).real
        p_hat, p_good = dev.postselected_distribution("x", rho_hat), dev.postselected_distribution("x", rho_good)
        assert report.tv_measured == total_variation(p_hat, p_good)
        acceptance = max(dev.efficiency("x", rho_hat), dev.efficiency("x", rho_good))
        assert report.tv_bound == 2.0 * (report.coherence_trace_norm + report.eps_prime) / acceptance

    def test_vanishing_acceptance_names_the_setting(self, rng):
        # The device clicks only on the orthogonal block, so the good-block state is never accepted.
        dev = LossyDevice(4, ["x"], ["a"], {"x": {"a": np.diag([0.0, 0.0, 0.5, 0.5])}})
        rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime=0.05)
        with pytest.raises(ZeroAcceptanceError, match=r"^setting 'x' has acceptance 0\.000e\+00; erase it"):
            imperfect_state_bound(dev, rho_hat, good_dim=2, x="x")

    def test_state_of_another_dimension_raises(self, rng):
        rho_hat = helpers.block_structured_state(rng, 2, 2, eps_prime=0.05)
        with pytest.raises(ValueError, match=r"^state dimension 4 does not match device dimension 3$"):
            imperfect_state_bound(helpers.random_lossy_device(3, rng), rho_hat, good_dim=2, x="x")


class TestNecessaryConditions:
    def test_rank_one_table(self):
        g = {"0": 0.5, "1": 0.25}
        h = {"r0": 0.9, "r1": 0.3, "r2": 0.6}
        table = {x: {r: g[x] * h[r] for r in h} for x in g}
        res = necessary_conditions(table, tol=1e-10)
        assert res.weak_consistent and not res.strong_consistent

    def test_constant_table(self):
        table = {x: {r: 0.25 for r in "abc"} for x in "01"}
        res = necessary_conditions(table, tol=1e-10)
        assert res.weak_consistent and res.strong_consistent

    def test_generic_table_fails(self, rng):
        table = {x: {r: float(rng.uniform(0.1, 0.9)) for r in "abcd"} for x in "012"}
        res = necessary_conditions(table, tol=1e-6)
        assert not res.weak_consistent and not res.strong_consistent

    def test_steered_table_from_fair_device(self, rng):
        from fairsamp.linalg import partial_trace, tensor

        dev_a = random_fair_sampling_device(2, 2, 2, rng)
        dev_b = random_fair_sampling_device(2, 2, 2, rng)
        psi = random_density(4, rng)
        table = {}
        for x in dev_a.settings:
            row = {}
            for y in dev_b.settings:
                for b in (*dev_b.outcomes, "noclick"):
                    joint = tensor([np.eye(2), dev_b.element(y, b)])
                    steered = partial_trace(joint @ psi, [2, 2], [0])
                    p_remote = np.trace(steered).real
                    row[f"{y}|{b}"] = expect(dev_a.click_element(x), steered / p_remote)
            table[x] = row
        res = necessary_conditions(table, tol=1e-8)
        assert res.weak_consistent

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"x": {}}, "setting 'x' has no remote configuration"),
            ({"x": {"r": 0.5, "s": 0.5}, "y": {"s": 0.5}}, "settings 'x' and 'y' differ in remote configuration 'r'"),
            ({"x": {"r": 0.5}, "y": {"r": 0.5, "s": 0.5}}, "settings 'x' and 'y' differ in remote configuration 's'"),
        ],
    )
    def test_malformed_table_names_setting_and_configuration(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            necessary_conditions(table)

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"x": {"r": -3.0}, "y": {"r": 7.0}}, "setting 'x' at remote configuration 'r' has efficiency -3.0"),
            ({"x": {"r": 0.5}, "y": {"r": 7.0}}, "setting 'y' at remote configuration 'r' has efficiency 7.0"),
            ({"x": {"r": 0.5, "s": np.nan}}, "setting 'x' at remote configuration 's' has efficiency nan"),
            ({"x": {"r": 0.5}, "y": {"r": np.inf}}, "setting 'y' at remote configuration 'r' has efficiency inf"),
            ({"x": {"r": -np.inf}}, "setting 'x' at remote configuration 'r' has efficiency -inf"),
            ({"x": {"r": 1.0 + 1e-8}}, "setting 'x' at remote configuration 'r' has efficiency 1.00000001"),
            ({"x": {"r": -1e-8}}, "setting 'x' at remote configuration 'r' has efficiency -1e-08"),
        ],
        ids=["both-out-of-range", "above-one", "nan", "inf", "minus-inf", "above-tolerance", "below-tolerance"],
    )
    def test_entry_that_is_not_a_probability_names_setting_and_configuration(self, table, message):
        with pytest.raises(ValueError, match=f"{re.escape(message)}, not a probability"):
            necessary_conditions(table)

    def test_drift_within_the_completeness_tolerance_is_accepted(self):
        res = necessary_conditions({"x": {"r": -1e-10, "s": 1.0 + 1e-10}, "y": {"r": 0.0, "s": 1.0}})
        assert res.weak_consistent and not res.strong_consistent


class TestStateDependent:
    def test_setting_independent_filter(self, rng):
        psi = random_density(4, rng)
        k = np.diag([1.0, 0.6])
        res = state_dependent_check({"0": [k], "1": [k]}, psi, [2, 2], 0)
        assert res.holds
        sq = np.kron(k, np.eye(2))
        direct = sq @ psi @ sq
        np.testing.assert_allclose(res.psi_click, direct / np.trace(direct).real, atol=1e-10)

    def test_difference_outside_state_support_is_invisible(self, rng):
        # party holds a qutrit but the state never populates its third level,
        # so device-level disagreement there cannot show up in the filtered states
        local = random_density(2, rng)
        rest = random_density(2, rng)
        psi_small = np.kron(local, rest)
        psi = np.zeros((6, 6), dtype=complex)
        psi[:4, :4] = psi_small  # levels {0,1} of the qutrit occupy the first 4 rows of the 3x2 layout
        filters = {
            "0": [np.diag([1.0, 0.5, 0.9])],
            "1": [np.diag([1.0, 0.5, 0.1])],
        }
        res = state_dependent_check(filters, psi, [3, 2], 0, tol=1e-9)
        assert res.holds

    def test_generic_setting_dependence_fails_on_singlet(self):
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        singlet = projector(v)
        filters = {"0": [np.diag([1.0, 0.5])], "1": [np.diag([0.5, 1.0])]}
        res = state_dependent_check(filters, singlet, [2, 2], 0, tol=1e-8)
        assert not res.holds

    @pytest.mark.parametrize("party", [2, -1, 5])
    def test_party_outside_the_party_dimensions_is_named(self, party):
        with pytest.raises(ValueError, match=f"^party {party} is not one of the 2 parties of party_dims$"):
            state_dependent_check({"0": [np.eye(2)]}, np.eye(4) / 4, [2, 2], party)

    @pytest.mark.parametrize("psi", [np.eye(4) / 4, np.eye(3) / 3], ids=["fitting-state", "misfit-state"])
    def test_empty_filter_map_is_an_input_error(self, psi):
        with pytest.raises(ValueError, match="^filter_click holds no setting$"):
            state_dependent_check({}, psi, [2, 2], 0)

    @pytest.mark.parametrize(
        "kraus,shape",
        [(np.eye(3), "(3, 3)"), (np.ones(2), "(2,)"), (np.ones((2, 3)), "(2, 3)")],
        ids=["3x3", "vector", "2x3"],
    )
    def test_kraus_operator_of_the_wrong_shape_names_the_setting(self, kraus, shape):
        filters = {"0": [np.eye(2)], "1": [np.eye(2), kraus]}
        message = f"setting '1' has a Kraus operator of shape {shape}; party 1 has dimension 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state_dependent_check(filters, np.eye(4) / 4, [2, 2], 1)


#: Each public decision taking a tolerance, called on a valid input.
TOLERANT = {
    "check_exact": lambda tol: check_exact(single_photon_analyser(0.8, 0.1, [0.0]), tol=tol),
    "necessary_conditions": lambda tol: necessary_conditions({"0": {"r": 0.5}}, tol=tol),
    "state_dependent_check": lambda tol: state_dependent_check({"0": [np.eye(2)]}, np.eye(4) / 4, [2, 2], 0, tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
@pytest.mark.parametrize("decide", TOLERANT.values(), ids=TOLERANT.keys())
def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(decide, tol):
    with pytest.raises(ValueError) as raised:
        decide(tol)
    assert str(raised.value) == f"tol must be a finite non-negative number, got {tol!r}"
    decide(0.0)


class TestReferenceDecompositions:
    """The reference operator is eigendecomposed once per epsilon or ideal device."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        from fairsamp import linalg

        calls = []
        original = linalg.eigh_psd

        def counted(m, name="matrix"):
            calls.append(name)
            return original(m, name)

        monkeypatch.setattr(linalg, "eigh_psd", counted)
        return calls

    def test_approximate_epsilon(self, rng, eigh_calls):
        dev = helpers.perturbed_fair_device(rng)
        mq = default_mq(dev)
        eigh_calls.clear()
        approximate_epsilon(dev, mq)
        assert eigh_calls == ["reference operator"]

    def test_ideal_device(self, rng, eigh_calls):
        dev = random_fair_sampling_device(3, 3, 2, rng)
        mq = check_exact(dev).quantum_elem
        eigh_calls.clear()
        ideal_device_from(dev, mq)
        assert eigh_calls == ["reference operator"]

    def test_check_exact_on_a_non_fair_device(self, rng, eigh_calls, monkeypatch):
        """Epsilon and support share one eigendecomposition; the weak test's click norms serve epsilon too."""
        import fairsamp.analysis

        dev = helpers.perturbed_fair_device(rng)
        norm_calls = []
        original = fairsamp.analysis.operator_norms
        monkeypatch.setattr(fairsamp.analysis, "operator_norms", lambda stack: norm_calls.append(1) or original(stack))
        eigh_calls.clear()
        assert not check_exact(dev).weak
        assert eigh_calls == ["reference operator"]
        # click norms, one proportionality residual, support leakage, conjugated norms, epsilon
        assert len(norm_calls) <= 5

    def test_one_reference_serves_every_step(self, rng, eigh_calls):
        dev = helpers.perturbed_fair_device(rng)
        eigh_calls.clear()
        ref = reference(dev, default_mq(dev))
        approximate_epsilon(dev, ref)
        ideal_device_from(dev, ref)
        filtered_state(ref, random_density(dev.dim, rng))
        assert eigh_calls == ["reference operator"]
        assert reference(dev, ref) is ref
        np.testing.assert_array_equal(reference(dev).mq, ref.mq)

    def test_reference_serves_only_its_device(self, rng):
        dev = helpers.perturbed_fair_device(rng)
        twin = LossyDevice(dev.dim, dev.settings, dev.outcomes, dev.stack[:, :-1])
        with pytest.raises(ValueError, match="reference was built for another device"):
            approximate_epsilon(twin, reference(dev))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 2), (3,)])
    def test_reference_of_another_dimension_is_named(self, rng, shape):
        """Every step taking a reference matrix compares its shape with the device before multiplying."""
        from fairsamp.bell import BellScenario, ScenarioAnalysis, ideal_scenario

        dev = helpers.perturbed_fair_device(rng)
        mq = np.ones(shape)
        message = "^" + re.escape(f"reference operator has shape {shape}, but the device has dimension 3") + "$"
        sc = BellScenario([dev, dev], random_density(9, rng))
        steps = [
            lambda: reference(dev, mq),
            lambda: check_exact(dev, mq=mq),
            lambda: approximate_epsilon(dev, mq),
            lambda: ideal_device_from(dev, mq),
            lambda: ideal_scenario(sc, [mq, mq]),
            lambda: ScenarioAnalysis(sc, [mq, mq]).epsilons,
        ]
        for step in steps:
            with pytest.raises(ValueError, match=message):
                step()


VERDICT_KINDS = ("fair", "strong", "homogeneous", "perturbed")


def verdict_device(kind, rng, dim, n_settings, n_outcomes):
    """A device of the given kind: exact fair sampling, also strong or homogeneous, or pushed off it."""
    if kind == "perturbed":
        return helpers.perturbed_fair_device(rng, dim, n_settings, n_outcomes)
    mq = np.eye(dim) if kind == "strong" else None
    eff_range = (0.7, 0.7) if kind == "homogeneous" else (0.3, 1.0)
    return random_fair_sampling_device(dim, n_settings, n_outcomes, rng, eff_range=eff_range, mq=mq)


def assert_same_verdict(v, w, labels):
    """Same flags; epsilon, scales and reference within 1e-9; ``labels`` maps v's settings to w's."""
    assert (v.weak, v.strong, v.homogeneous) == (w.weak, w.strong, w.homogeneous)
    assert abs(v.epsilon - w.epsilon) <= 1e-9
    for x, y in labels.items():
        assert abs(v.classical_eff[x] - w.classical_eff[y]) <= 1e-9


DEVICE_SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(VERDICT_KINDS),
    dim=st.integers(2, 4),
    n_settings=st.integers(2, 3),
    n_outcomes=st.integers(1, 3),
)


@settings(max_examples=30, deadline=None)
@given(**DEVICE_SHAPES)
def test_verdict_invariant_under_local_unitary(seed, kind, dim, n_settings, n_outcomes):
    """Conjugating device and state by one unitary changes no verdict and no statistic."""
    rng = np.random.default_rng(seed)
    dev = verdict_device(kind, rng, dim, n_settings, n_outcomes)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    povm = {x: {a: u @ dev.element(x, a) @ u.conj().T for a in dev.outcomes} for x in dev.settings}
    rotated = LossyDevice(dim, dev.settings, dev.outcomes, povm)
    v, w = check_exact(dev), check_exact(rotated)
    assert_same_verdict(v, w, {x: x for x in dev.settings})
    np.testing.assert_allclose(w.quantum_elem, u @ v.quantum_elem @ u.conj().T, atol=1e-9)
    rho = random_density(dim, rng)
    for x in dev.settings:
        p, q = dev.outcome_distribution(x, rho), rotated.outcome_distribution(x, u @ rho @ u.conj().T)
        assert max(abs(p[a] - q[a]) for a in p) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(**DEVICE_SHAPES)
def test_verdict_invariant_under_relabelling(seed, kind, dim, n_settings, n_outcomes):
    """Renaming and reordering settings and outcomes changes no verdict."""
    rng = np.random.default_rng(seed)
    dev = verdict_device(kind, rng, dim, n_settings, n_outcomes)
    new_x = {x: f"s{k}" for k, x in enumerate(reversed(dev.settings))}
    new_a = {a: f"o{k}" for k, a in enumerate(rng.permutation(dev.outcomes))}
    povm = {new_x[x]: {new_a[a]: dev.element(x, a) for a in dev.outcomes} for x in dev.settings}
    order_x = [new_x[dev.settings[k]] for k in rng.permutation(n_settings)]
    order_a = [new_a[dev.outcomes[k]] for k in rng.permutation(n_outcomes)]
    relabelled = LossyDevice(dim, order_x, order_a, povm)
    v, w = check_exact(dev), check_exact(relabelled)
    assert_same_verdict(v, w, new_x)
    np.testing.assert_allclose(w.quantum_elem, v.quantum_elem, atol=1e-9)


def assert_same_bits(v, w):
    """Same flags, floats and arrays, to the bit."""
    assert (v.weak, v.strong, v.homogeneous, v.epsilon) == (w.weak, w.strong, w.homogeneous, w.epsilon)
    assert list(v.classical_eff.items()) == list(w.classical_eff.items())
    assert np.array_equal(v.quantum_elem, w.quantum_elem)
    assert np.array_equal(v.support, w.support)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.sampled_from([1, 2, 3, 4, 5, SCREEN_FROM_DIM, 10]),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
)
def test_check_exact_equals_the_composed_public_steps(seed, kind, dim, n_settings, n_outcomes):
    """One weak-test pass and one eigendecomposition give the bits of the public steps called one by one.

    The verdict's ``Reference`` gives the bits of its matrix, in ``check_exact`` and every step taking one.
    """
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    verdict = check_exact(dev)
    assert_same_bits(verdict, helpers.oracle_check_exact(dev))
    ref, mq = verdict.reference, verdict.quantum_elem
    assert ref.mq is mq and ref.support is verdict.support

    # The verdict's reference, passed on as a ``Reference`` or as its matrix.
    expected = helpers.oracle_check_exact(dev, mq=mq)
    for reported in (check_exact(dev, mq=ref), check_exact(dev, mq=mq)):
        assert_same_bits(reported, expected)
    assert approximate_epsilon(dev, ref) == approximate_epsilon(dev, mq) == expected.epsilon
    rho = random_density(dim, rng)
    for a, b in zip(filtered_state(ref, rho), filtered_state(mq, rho)):
        assert np.array_equal(a, b)
    if expected.epsilon < 1.0:
        oracle = helpers.oracle_ideal_device_from(dev, mq)
        for ideal in (ideal_device_from(dev, ref), ideal_device_from(dev, mq)):
            assert (ideal.settings, ideal.outcomes) == (oracle.settings, oracle.outcomes)
            assert np.array_equal(ideal.stack, oracle.stack)
            assert np.array_equal(ideal.to_lossy().stack, helpers.oracle_to_lossy(oracle).stack)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 5),
)
def test_stacked_samplers_equal_the_loop_to_the_bit(seed, dim, n_settings, n_outcomes):
    """One ``normal`` call per setting draws what one call per block part drew, and the generator ends alike."""
    stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    povm, oracle = random_povm(dim, n_outcomes, stacked), helpers.loop_random_povm(dim, n_outcomes, looped)
    assert len(povm) == len(oracle) and all(np.array_equal(a, b) for a, b in zip(povm, oracle))
    dev = random_fair_sampling_device(dim, n_settings, n_outcomes, stacked)
    twin = helpers.loop_random_fair_sampling_device(dim, n_settings, n_outcomes, looped)
    assert (dev.settings, dev.outcomes) == (twin.settings, twin.outcomes)
    assert np.array_equal(dev.stack, twin.stack)
    assert stacked.random() == looped.random()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.integers(1, 4),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
)
def test_reference_roots_are_local_probabilistic_filters(seed, kind, dim, n_settings, n_outcomes):
    """The default and the weak reference have ``||root||_2 <= 1``, to 1e-12.

    So ``root``, the filter's accepting Kraus operator, is a local probabilistic map: it never accepts
    with probability above 1.
    """
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    verdict = check_exact(dev)
    refs = [reference(dev), verdict.reference] if verdict.weak else [reference(dev)]
    for ref in refs:
        assert operator_norm(ref.root) <= 1.0 + 1e-12
