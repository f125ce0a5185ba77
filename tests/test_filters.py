"""Canonical filter/lossless decomposition and the classical normal form."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from fairsamp.adversary import makarov_branches, makarov_traced
from fairsamp.device import NOCLICK, LossyDevice, LosslessDevice, ZeroAcceptanceError, projective_qubit_device
from fairsamp.filters import (
    ClassicalFilter,
    FilterDecomposition,
    QuantumFilter,
    canonical_decomposition,
    classical_normal_form,
    composed_probability,
    verify_recomposition,
)
from fairsamp.linalg import dagger, operator_norm, support_projector
from fairsamp.sampling import random_density, random_fair_sampling_device, random_povm, verification_states


class TestQuantumFilter:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            QuantumFilter(np.eye(2), np.eye(2))

    def test_acceptance(self, rng):
        f = QuantumFilter(np.sqrt(0.25) * np.eye(2), np.sqrt(0.75) * np.eye(2))
        assert f.acceptance(random_density(2, rng)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("name", ["kraus_click", "kraus_noclick"])
    def test_non_finite_entry_names_its_operator(self, name, bad):
        kraus = {"kraus_click": np.sqrt(0.25) * np.eye(2, dtype=complex), "kraus_noclick": np.sqrt(0.75) * np.eye(2, dtype=complex)}
        kraus[name][1, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            QuantumFilter(**kraus)


class TestCanonicalDecomposition:
    def test_lossless_device_is_fixed_point(self, rng):
        dev = projective_qubit_device({"z": 0.0, "x": np.pi / 2.0})
        dc = canonical_decomposition(dev)
        for x in dev.settings:
            np.testing.assert_allclose(dc.filters[x].kraus_click, np.eye(2), atol=1e-9)
            np.testing.assert_allclose(dc.filters[x].kraus_noclick, np.zeros((2, 2)), atol=1e-9)
            for a in dev.outcomes:
                np.testing.assert_allclose(dc.lossless.element(x, a), dev.element(x, a), atol=1e-9)

    def test_traced_makarov(self):
        dc = canonical_decomposition(makarov_traced())
        np.testing.assert_allclose(dc.filters["0"].kraus_click, np.eye(2) / 2.0, atol=1e-12)
        np.testing.assert_allclose(dc.lossless.element("0", "+"), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(dc.lossless.element("0", "-"), np.diag([0.0, 1.0]), atol=1e-12)

    def test_rank_deficient_support(self):
        dev = LossyDevice(
            2, ["x"], ["+", "-"], {"x": {"+": np.diag([1.0, 0.0]), "-": np.zeros((2, 2))}}
        )
        dc = canonical_decomposition(dev)
        np.testing.assert_allclose(dc.lossless.click_element("x"), np.diag([1.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(dc.lossless.element("x", "+"), np.diag([1.0, 0.0]), atol=1e-10)

    def test_kraus_completeness_invariant(self, rng):
        dev = random_fair_sampling_device(4, 3, 3, rng)
        for f in canonical_decomposition(dev).filters.values():
            res = dagger(f.kraus_click) @ f.kraus_click + dagger(f.kraus_noclick) @ f.kraus_noclick
            assert np.max(np.abs(res - np.eye(4))) <= 1e-9

    def test_good_outcomes_live_inside_click_support(self, rng):
        for trial in range(5):
            dev = random_fair_sampling_device(3, 2, 3, rng)
            for x in dev.settings:
                pi = support_projector(dev.click_element(x))
                for a in dev.outcomes:
                    m = dev.element(x, a)
                    assert operator_norm(pi @ m @ pi - m) <= 1e-9


class TestRecomposition:
    def corpus(self, rng):
        yield makarov_traced()
        yield from makarov_branches().branches.values()
        yield random_fair_sampling_device(3, 2, 2, rng)

    def test_reproduces_statistics(self, rng):
        for dev in self.corpus(rng):
            dc = canonical_decomposition(dev)
            assert verify_recomposition(dev, dc, trials=60, seed=11) <= 1e-9

    def test_generic_devices_without_fair_structure(self, rng):
        for trial in range(20):
            dim = int(rng.integers(2, 6))
            n_out = int(rng.integers(1, 4))
            povm = {}
            for s in range(int(rng.integers(1, 4))):
                elements = random_povm(dim, n_out + 1, rng)
                row = {f"a{j}": elements[j] for j in range(n_out)}
                row[NOCLICK] = elements[n_out]
                povm[f"x{s}"] = row
            dev = LossyDevice(dim, list(povm), [f"a{j}" for j in range(n_out)], povm)
            dc = canonical_decomposition(dev)
            assert verify_recomposition(dev, dc, trials=24, seed=trial) <= 1e-9

    def test_devices_supported_on_a_subspace(self, rng):
        for trial in range(10):
            dim, rank = 4, int(rng.integers(1, 4))
            basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0][:, :rank]
            elements = random_povm(rank, 3, rng)
            embedded = {f"a{j}": 0.7 * basis @ e @ basis.conj().T for j, e in enumerate(elements)}
            dev = LossyDevice(dim, ["x"], list(embedded), {"x": embedded})
            dc = canonical_decomposition(dev)
            assert verify_recomposition(dev, dc, trials=24, seed=trial) <= 1e-9

    def test_detects_corruption(self):
        dev = makarov_traced()
        dc = canonical_decomposition(dev)

        class Corrupted:
            """Scales one measurement element; invalid on purpose, bypassing validation."""

            def element(self, x, a):
                m = dc.lossless.element(x, a)
                return 1.1 * m if (x, a) == ("0", "+") else m

        corrupted = FilterDecomposition(dc.filters, Corrupted())
        worst = verify_recomposition(dev, corrupted, trials=30, seed=5)
        assert worst > 1e-3
        assert worst == helpers.oracle_verify_recomposition(dev, corrupted, trials=30, seed=5)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_states_is_an_error(self, trials):
        dev = makarov_traced()
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            verify_recomposition(dev, canonical_decomposition(dev), trials=trials)


class TestClassicalNormalForm:
    def lossless_pair(self):
        dev = projective_qubit_device({"0": 0.0, "1": np.pi / 2.0})
        povm = {x: {a: dev.element(x, a) for a in dev.outcomes} for x in dev.settings}
        return LosslessDevice(2, dev.settings, dev.outcomes, povm)

    def test_diagonal_is_unchanged(self):
        lossless = self.lossless_pair()
        fc = ClassicalFilter({"0": {"0": 0.4}, "1": {"1": 0.9}})
        diag, w = classical_normal_form(fc, lossless)
        assert diag == fc and w.settings == lossless.settings
        assert np.array_equal(w.stack, lossless.stack)

    def test_uniform_damping(self):
        lossless = self.lossless_pair()
        fc = ClassicalFilter({"0": {"0": 0.5}, "1": {"1": 0.5}})
        diag, w = classical_normal_form(fc, lossless)
        assert diag.accept_prob == pytest.approx({"0": 0.5, "1": 0.5})
        for x in lossless.settings:
            for a in lossless.outcomes:
                np.testing.assert_allclose(w.element(x, a), lossless.element(x, a), atol=1e-12)

    def test_mixing_row(self):
        lossless = self.lossless_pair()
        fc = ClassicalFilter({"0": {"0": 0.3, "1": 0.1}, "1": {"1": 0.5}})
        diag, w = classical_normal_form(fc, lossless)
        assert diag.transition == {"0": {"0": fc.accept_prob["0"]}, "1": {"1": 0.5}}
        assert diag.accept_prob["0"] == pytest.approx(0.4, abs=1e-12)
        expected = (0.3 * lossless.element("0", "+") + 0.1 * lossless.element("1", "+")) / 0.4
        np.testing.assert_allclose(w.element("0", "+"), expected, atol=1e-12)

    def test_composed_statistics_unchanged(self, rng):
        lossless = self.lossless_pair()
        fc = ClassicalFilter({"0": {"0": 0.3, "1": 0.1}, "1": {"0": 0.2, "1": 0.3}})
        diag, w = classical_normal_form(fc, lossless)
        for rho in verification_states(2, 12, rng):
            for x in lossless.settings:
                for a in lossless.outcomes:
                    before = composed_probability(fc, lossless, x, a, rho)
                    after = composed_probability(diag, w, x, a, rho)
                    assert before == pytest.approx(after, abs=1e-10)

    def test_unit_efficiency_of_normal_form(self):
        lossless = self.lossless_pair()
        fc = ClassicalFilter({"0": {"0": 0.3, "1": 0.1}, "1": {"0": 0.2, "1": 0.3}})
        _, w = classical_normal_form(fc, lossless)
        for x in w.settings:
            np.testing.assert_allclose(w.click_element(x), np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_entry_names_row_and_setting(self, bad):
        transition = {"x": {"x": 0.25, "y": 0.25}, "z": {"x": 0.1, "y": bad}}
        message = rf"^transition row 'z' has entry {bad!r} at setting 'y', not finite$"
        with pytest.raises(ValueError, match=message):
            ClassicalFilter(transition)
        with pytest.raises(ValueError, match=r"^transition row 'x' has entry nan at setting 'y', not finite$"):
            ClassicalFilter({"x": {"y": float("nan")}})

    @pytest.mark.parametrize(
        "transition",
        [
            {"x": {"x": 1 + 5e-10}},
            {"x": {"x": 0.5, "y": 0.5 + 5e-10}},
            {"x": {"x": -5e-10}},
            {"x": {"x": 0.5, "y": -5e-10}},
        ],
        ids=["acceptance-above-one", "acceptance-and-row-above-one", "acceptance-below-zero", "entry-below-zero"],
    )
    def test_drift_within_the_probability_tolerance_builds(self, transition):
        fc = ClassicalFilter(transition)
        assert fc.transition == transition
        assert fc.accept_prob == {x: sum(row.values()) for x, row in transition.items()}

    @pytest.mark.parametrize(
        "transition",
        [{"x": {"x": 1 + 2e-9}}, {"x": {"x": -2e-9}}, {"x": {"x": 0.5, "y": -2e-9}}],
        ids=["acceptance-above-one", "acceptance-below-zero", "entry-below-zero"],
    )
    def test_drift_beyond_the_probability_tolerance_raises(self, transition):
        with pytest.raises(ValueError) as raised:
            ClassicalFilter(transition)
        assert raised.value.args == ("transition row 'x' is not sub-normalized",)

    def test_zero_acceptance_setting_erased(self, rng):
        """A dead diagonal setting is erased as an empty row is, and composes to the float 0.0."""
        lossless = self.lossless_pair()
        forms = []
        for fc in (ClassicalFilter({"0": {"0": 0.0}, "1": {"1": 0.5}}), ClassicalFilter({"0": {}, "1": {"1": 0.5}})):
            with pytest.warns(UserWarning, match="^setting '0' has zero acceptance and is erased$"):
                forms.append(classical_normal_form(fc, lossless))
            for a in lossless.outcomes:
                value = composed_probability(fc, lossless, "0", a, random_density(2, rng))
                assert type(value) is float and value == 0.0
        (diag, w), (diag_empty, w_empty) = forms
        assert diag == diag_empty == ClassicalFilter({"1": {"1": 0.5}})
        assert w.settings == w_empty.settings == ("1",)
        assert np.array_equal(w.stack, w_empty.stack)

    def test_diagonal_row_naming_an_unknown_setting_raises(self):
        with pytest.raises(KeyError) as raised:
            classical_normal_form(ClassicalFilter({"0": {"0": 0.5}, "zz": {"zz": 0.5}}), self.lossless_pair())
        assert raised.value.args == ("unknown setting 'zz'",)

    def test_empty_filter_raises(self):
        with pytest.raises(ZeroAcceptanceError, match="^all settings have zero acceptance$"):
            classical_normal_form(ClassicalFilter({}), self.lossless_pair())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(["diagonal", "zero", "scrambling"]), min_size=1, max_size=4),
)
def test_classical_normal_form_of_random_tables(seed, dim, kinds):
    """Diagonal, zero and scrambling rows: statistics kept, zero rows erased, and the normal form is its own."""
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(len(kinds))]
    lossless = LosslessDevice(dim, names, ["a", "b"], {x: dict(zip("ab", random_povm(dim, 2, rng))) for x in names})
    transition = {}
    for x, kind in zip(names, kinds):
        if kind == "diagonal":
            transition[x] = {x: float(rng.uniform(0.1, 1.0))}
        elif kind == "zero":
            transition[x] = {xp: 0.0 for xp in names if rng.random() < 0.5}
        else:
            weights = rng.dirichlet(np.ones(len(names))) * rng.uniform(0.1, 1.0)
            transition[x] = {xp: float(p) for xp, p in zip(names, weights)}
    fc = ClassicalFilter(transition)
    kept = [x for x, kind in zip(names, kinds) if kind != "zero"]
    erased = [f"setting {x!r} has zero acceptance and is erased" for x, kind in zip(names, kinds) if kind == "zero"]
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        if not kept:
            with pytest.raises(ZeroAcceptanceError, match="^all settings have zero acceptance$"):
                classical_normal_form(fc, lossless)
        else:
            diag, w = classical_normal_form(fc, lossless)
    assert [str(warning.message) for warning in warned] == erased
    if not kept:
        return
    assert list(diag.transition) == kept and w.settings == tuple(kept)
    assert all(list(row) == [x] for x, row in diag.transition.items())
    for rho in verification_states(dim, 3, rng):
        for x in kept:
            for a in "ab":
                before = composed_probability(fc, lossless, x, a, rho)
                assert abs(before - composed_probability(diag, w, x, a, rho)) <= 1e-10
    again, w_again = classical_normal_form(diag, w)
    assert again.accept_prob == diag.accept_prob
    assert np.array_equal(w_again.stack, w.stack)


@pytest.mark.parametrize(
    "read",
    [
        lambda dev, lossless, rho: dev.element("z", "+"),
        lambda dev, lossless, rho: canonical_decomposition(dev).probability("z", "+", rho),
        lambda dev, lossless, rho: composed_probability(
            ClassicalFilter({"0": {"0": 0.5}, "1": {"1": 0.5}}), lossless, "z", "+", rho
        ),
        lambda dev, lossless, rho: composed_probability(
            ClassicalFilter({"0": {"0": 0.3, "1": 0.2}, "1": {"1": 0.5}}), lossless, "z", "+", rho
        ),
        lambda dev, lossless, rho: verify_recomposition(
            projective_qubit_device({"0": 0.0, "z": np.pi / 2.0}), canonical_decomposition(dev), trials=1
        ),
    ],
    ids=["device", "decomposition", "diagonal-filter", "transition-filter", "recomposition"],
)
def test_unknown_setting_is_named_as_the_device_names_it(read):
    dev = projective_qubit_device({"0": 0.0, "1": np.pi / 2.0})
    lossless = LosslessDevice(2, dev.settings, dev.outcomes, dev.stack[:, :-1])
    with pytest.raises(KeyError) as raised:
        read(dev, lossless, np.eye(2) / 2)
    assert raised.value.args == ("unknown setting 'z'",)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    fair=st.booleans(),
)
def test_canonical_decomposition_recomposes_random_devices(seed, dim, n_settings, n_outcomes, fair):
    """Filter then lossless measurement reproduces every outcome probability of the device."""
    rng = np.random.default_rng(seed)
    if fair:
        dev = random_fair_sampling_device(dim, n_settings, n_outcomes, rng)
    else:
        dev = helpers.random_multisetting_device(rng, dim, n_settings, n_outcomes)
    assert verify_recomposition(dev, canonical_decomposition(dev), trials=8, seed=seed) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.integers(1, 5),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    trials=st.integers(1, 6),
)
def test_stacked_decomposition_and_verification_equal_the_per_element_loops(
    seed, kind, dim, n_settings, n_outcomes, trials
):
    """Stacked products and contractions give the bits of one product and one trace per element."""
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    dc, per_element = canonical_decomposition(dev), helpers.oracle_canonical_decomposition(dev)
    for x in dev.settings:
        assert np.array_equal(dc.filters[x].kraus_click, per_element.filters[x].kraus_click)
        assert np.array_equal(dc.filters[x].kraus_noclick, per_element.filters[x].kraus_noclick)
    assert np.array_equal(dc.lossless.stack, per_element.lossless.stack)
    assert verify_recomposition(dev, dc, trials, seed) == helpers.oracle_verify_recomposition(dev, dc, trials, seed)
