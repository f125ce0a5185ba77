"""Hidden-variable detector, purification consistency and the faked violation."""

from dataclasses import dataclass

import numpy as np
import pytest

import helpers
from fairsamp.adversary import (
    FakingSource,
    HiddenVariableDevice,
    _CHSH_SIGNS,
    _click_table,
    makarov_branches,
    makarov_traced,
    run_faked_chsh,
)
from fairsamp.analysis import check_exact
from fairsamp.bell import chsh_coefficients
from fairsamp.device import NOCLICK, LossyDevice
from fairsamp.sampling import random_density, random_povm


class TestTracedDevice:
    def test_looks_fair(self):
        verdict = check_exact(makarov_traced())
        assert verdict.weak and verdict.strong and verdict.homogeneous

    def test_flat_quarter_efficiency(self, rng):
        dev = makarov_traced()
        for _ in range(5):
            rho = random_density(2, rng)
            for x in dev.settings:
                assert dev.efficiency(x, rho) == pytest.approx(0.25, abs=1e-12)

    def test_plus_state_distribution(self):
        dev = makarov_traced()
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        dist = dev.outcome_distribution("0", plus)
        assert dist == pytest.approx({"+": 0.125, "-": 0.125, NOCLICK: 0.75}, abs=1e-12)


class TestHiddenVariableDevice:
    def test_mixture_reproduces_traced(self):
        traced = makarov_traced()
        mixture = makarov_branches().traced()
        for x in traced.settings:
            for a in (*traced.outcomes, NOCLICK):
                assert np.max(np.abs(mixture.element(x, a) - traced.element(x, a))) <= 1e-12

    def test_branch_one_never_clicks_at_x1(self):
        branch = makarov_branches().branches[1]
        assert np.max(np.abs(branch.click_element("1"))) == 0.0
        np.testing.assert_allclose(branch.noclick_element("1"), np.eye(2), atol=0)

    def test_adversary_description_fails_fair_sampling(self):
        verdict = check_exact(makarov_branches().adversary_device())
        assert not verdict.weak

    def test_adversary_device_marginalizes_to_traced(self, rng):
        adv = makarov_branches().adversary_device()
        traced = makarov_traced()
        rho = random_density(2, rng)
        register = np.eye(4, dtype=complex) / 4.0
        joint = np.kron(rho, register)
        for x in traced.settings:
            for a in traced.outcomes:
                p_adv = np.trace(adv.element(x, a) @ joint).real
                p_tr = np.trace(traced.element(x, a) @ rho).real
                assert p_adv == pytest.approx(p_tr, abs=1e-12)


class TestFakedChsh:
    def test_saturates_algebraic_bound(self):
        result = run_faked_chsh()
        assert result.chsh == pytest.approx(4.0, abs=1e-12)
        assert result.detection_rate == pytest.approx(1.0 / 32.0, abs=1e-12)
        for (x, y), value in result.correlators.items():
            assert value == pytest.approx((-1.0) ** (int(x) * int(y)), abs=1e-12)

    def test_full_noise_kills_correlations(self):
        result = run_faked_chsh(noise=1.0)
        assert result.chsh == pytest.approx(0.0, abs=1e-12)
        assert result.detection_rate == pytest.approx(1.0 / 32.0, abs=1e-12)

    def test_noise_interpolates_linearly(self):
        result = run_faked_chsh(noise=0.4)
        assert result.chsh == pytest.approx(2.4, abs=1e-12)

    def test_sampled_mode_agrees_with_enumeration(self):
        result = run_faked_chsh(noise=0.0, seed=42, samples=40000)
        assert result.sampled_chsh is not None
        margin = 3.0 * result.sampled_std_error + 1e-9
        assert abs(result.sampled_chsh - result.chsh) <= margin

    def test_the_attack_fakes_the_functional_the_library_evaluates(self):
        """Each correlator's sign is the (+, +) weight of CHSH on the devices the attack imitates."""
        coeffs = chsh_coefficients([makarov_traced()] * 2)
        assert _CHSH_SIGNS == {xy: coeffs[(xy, ("+", "+"))] for xy in _CHSH_SIGNS}
        assert list(_CHSH_SIGNS) == list(dict.fromkeys(xy for xy, _ in coeffs))

    def test_noise_domain(self):
        with pytest.raises(ValueError):
            run_faked_chsh(noise=1.5)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_domain(self, samples):
        with pytest.raises(ValueError, match=rf"^samples must be None or at least 1, got {samples}$"):
            run_faked_chsh(samples=samples)

    def test_click_table_matches_the_per_label_oracle_bit_for_bit(self):
        hv, source = makarov_branches(), FakingSource()
        table = _click_table(hv, source)
        assert table.shape == (2, 2, 2, 2)
        assert table.tobytes() == helpers.oracle_click_table(hv, source).tobytes()

    def test_adversary_device_matches_the_kron_oracle_bit_for_bit(self):
        hv = makarov_branches()
        assert hv.adversary_device().stack.tobytes() == helpers.oracle_adversary_device(hv).stack.tobytes()


def test_attack_efficiency_table_passes_necessary_conditions():
    """Observed efficiencies stay consistent with fair sampling even under attack.

    Conditioning one wing's click probability on the other wing's setting and
    outcome gives a constant table, so the factorization test cannot flag the
    device: necessary conditions are not sufficient.
    """
    from fairsamp.analysis import necessary_conditions

    source = FakingSource()
    branches = makarov_branches().branches
    table = {}
    for x in ("0", "1"):
        row = {}
        for y in ("0", "1"):
            for b in ("+", "-"):
                joint = 0.0
                remote = 0.0
                for (ra, rb), entry in source.table.items():
                    if entry is None:
                        continue
                    rho_a, rho_b = source.state(ra, rb)
                    p_b = np.trace(branches[rb].element(y, b) @ rho_b).real
                    p_a = np.trace(branches[ra].click_element(x) @ rho_a).real
                    remote += p_b / 16.0
                    joint += p_a * p_b / 16.0
                row[f"{y}|{b}"] = joint / remote
        table[x] = row
    values = [v for row in table.values() for v in row.values()]
    assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)
    res = necessary_conditions(table, tol=1e-9)
    assert res.weak_consistent and res.strong_consistent


class TestFakingSource:
    def test_table_states_are_separable_products_or_vacuum(self):
        source = FakingSource()
        non_vacuum = 0
        for key, entry in source.table.items():
            if entry is None:
                continue
            non_vacuum += 1
            rho_a, rho_b = source.state(*key)
            for rho in (rho_a, rho_b):
                w = np.linalg.eigvalsh(rho)
                assert w[-1] == pytest.approx(1.0, abs=1e-12)  # pure single-qubit factor
        assert non_vacuum == 8

    def test_every_nonvacuum_cell_clicks_at_exactly_one_setting_pair(self):
        source = FakingSource()
        branches = makarov_branches().branches
        for (ra, rb), entry in source.table.items():
            if entry is None:
                continue
            rho_a, rho_b = source.state(ra, rb)
            hits = 0
            for x in ("0", "1"):
                for y in ("0", "1"):
                    pa = np.trace(branches[ra].click_element(x) @ rho_a).real
                    pb = np.trace(branches[rb].click_element(y) @ rho_b).real
                    if pa * pb > 0.0:
                        hits += 1
                        assert pa * pb == pytest.approx(1.0, abs=1e-12)
            assert hits == 1


QUTRIT_SETTINGS, QUTRIT_OUTCOMES = ("a", "b", "c"), ("u", "v")


def qutrit_branch(rng, dim=3, settings=QUTRIT_SETTINGS, outcomes=QUTRIT_OUTCOMES):
    """Random branch: per setting, all but the last element of a random POVM are the good outcomes."""
    stack = np.array([random_povm(dim, len(outcomes) + 1, rng)[: len(outcomes)] for _ in settings])
    return LossyDevice(dim, settings, outcomes, stack)


@dataclass(frozen=True)
class StateTable:
    """A source given by its table: (r_A, r_B) -> the two wings' density matrices, or None for the vacuum."""

    table: dict

    def state(self, r_a, r_b):
        return self.table[(r_a, r_b)]


class TestGeneralisedModel:
    """A non-Makarov model: three qutrit branches, three settings, two outcomes and a source of its own."""

    @pytest.fixture
    def model(self, rng):
        hv = HiddenVariableDevice({7: qutrit_branch(rng), 2: qutrit_branch(rng), 5: qutrit_branch(rng)})
        keys = [(ra, rb) for ra in (7, 2, 5) for rb in (7, 2, 5)]
        vacuum = {(7, 2), (2, 5), (5, 5)}
        table = {key: None if key in vacuum else (random_density(3, rng), random_density(3, rng)) for key in keys}
        return hv, StateTable(table)

    def test_labels_and_dimension_come_from_the_branches(self, model):
        hv, _ = model
        assert (hv.dim, hv.settings, hv.outcomes) == (3, QUTRIT_SETTINGS, QUTRIT_OUTCOMES)

    def test_traced_is_the_per_label_mixture(self, model):
        hv, _ = model
        traced = hv.traced()
        assert (traced.dim, traced.settings, traced.outcomes) == (3, QUTRIT_SETTINGS, QUTRIT_OUTCOMES)
        for x in QUTRIT_SETTINGS:
            for a in QUTRIT_OUTCOMES:
                mixture = hv.branch_prob * sum(dev.element(x, a) for dev in hv.branches.values())
                assert np.array_equal(traced.element(x, a), mixture)

    def test_branches_are_drawn_uniformly(self, model):
        hv, _ = model
        assert hv.branch_prob == 1.0 / 3.0 and makarov_branches().branch_prob == 0.25
        for x in QUTRIT_SETTINGS:
            for a in QUTRIT_OUTCOMES:
                uniform = (1.0 / 3.0) * sum(dev.element(x, a) for dev in hv.branches.values())
                assert np.array_equal(hv.traced().element(x, a), uniform)
        with pytest.raises(AttributeError):
            hv.branch_prob = 0.25
        with pytest.raises(TypeError):
            HiddenVariableDevice(dict(hv.branches), 0.25)

    def test_adversary_device_marginalizes_to_traced(self, model, rng):
        hv, _ = model
        adv, traced = hv.adversary_device(), hv.traced()
        assert adv.dim == 9
        assert adv.stack.tobytes() == helpers.oracle_adversary_device(hv).stack.tobytes()
        rho = random_density(3, rng)
        joint = np.kron(rho, np.eye(3) / 3.0)
        for x in QUTRIT_SETTINGS:
            for a in (*QUTRIT_OUTCOMES, NOCLICK):
                p_adv = np.trace(adv.element(x, a) @ joint).real
                assert p_adv == pytest.approx(np.trace(traced.element(x, a) @ rho).real, abs=1e-12)

    def test_click_table_matches_the_per_label_oracle(self, model):
        hv, source = model
        table = _click_table(hv, source)
        assert table.shape == (3, 3, 2, 2)
        np.testing.assert_allclose(table, helpers.oracle_click_table(hv, source), rtol=1e-13, atol=1e-16)
        assert np.all(table >= 0.0)
        assert np.all(table.sum(axis=(2, 3)) <= 6.0 / 9.0 + 1e-12)  # three of the nine hidden pairs are vacuum


class TestBranchValidation:
    @pytest.mark.parametrize(
        "other,attr",
        [
            (dict(dim=2), "dim"),
            (dict(settings=("b", "a", "c")), "settings"),
            (dict(outcomes=("u", "w")), "outcomes"),
            (dict(outcomes=("v", "u")), "outcomes"),
        ],
    )
    def test_mismatched_branch_raises_naming_it(self, rng, other, attr):
        branches = {r: qutrit_branch(rng, **(other if r >= 3 else {})) for r in (1, 2, 3, 4)}
        with pytest.raises(ValueError, match=r"^branch 3 has \(dim, settings, outcomes\) .*, branch 1 ") as raised:
            HiddenVariableDevice(branches)
        bad = branches[3]
        assert repr(getattr(bad, attr)) in str(raised.value)

    def test_no_branch_raises(self):
        with pytest.raises(ValueError, match="at least one branch"):
            HiddenVariableDevice({})
