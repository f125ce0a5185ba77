"""Joint statistics, post-selection equivalence and multipartite bounds."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairsamp.adversary import makarov_traced
from fairsamp.analysis import approximate_epsilon, check_exact
from fairsamp.bell import (
    BellScenario,
    _acceptance,
    _max_deviation,
    _postselected_bell_value,
    _postselected_tables,
    bell_value,
    beta_max,
    deviation_bound,
    epsilon_total,
    filtered_global_state,
    ideal_scenario,
    joint_device,
    postselected_bell_value,
    postselected_vs_ideal_deviation,
    verify_postselection_equivalence,
)
from fairsamp.cli import chsh_coefficients, chsh_singlet_scenario, singlet_state
from fairsamp.device import NOCLICK, LossyDevice, ZeroAcceptanceError, projective_qubit_device
from fairsamp.linalg import NotPositiveError, sqrt_pinv_sqrt, tensor
from fairsamp.sampling import random_density, random_fair_sampling_device


def lossless_z_pair():
    dev = projective_qubit_device({"z": 0.0})
    return BellScenario([dev, dev], singlet_state())


def random_scenario(rng, n_parties=2, dim_range=(2, 4)):
    dims = [int(rng.integers(*dim_range, endpoint=True)) for _ in range(n_parties)]
    devices = [
        random_fair_sampling_device(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        for d in dims
    ]
    return BellScenario(devices, random_density(int(np.prod(dims)), rng))


class TestJointRaw:
    def test_singlet_anticorrelation(self):
        sc = lossless_z_pair()
        dist = sc.joint_raw(("z", "z"))
        assert dist[("+", "-")] == pytest.approx(0.5, abs=1e-12)
        assert dist[("-", "+")] == pytest.approx(0.5, abs=1e-12)
        assert dist[("+", "+")] == pytest.approx(0.0, abs=1e-12)
        assert dist[("-", "-")] == pytest.approx(0.0, abs=1e-12)

    def test_product_state_deterministic(self):
        dev = projective_qubit_device({"z": 0.0})
        psi = tensor([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        sc = BellScenario([dev, dev], psi)
        dist = sc.joint_raw(("z", "z"))
        assert dist[("+", "+")] == pytest.approx(1.0, abs=1e-12)

    def test_traced_makarov_coincidence(self):
        dev = makarov_traced()
        sc = BellScenario([dev, dev], singlet_state())
        dist = sc.joint_raw(("0", "0"))
        both_click = sum(
            p for outs, p in dist.items() if NOCLICK not in outs
        )
        assert both_click == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_normalization(self, rng):
        sc = random_scenario(rng)
        for xs in sc.setting_tuples():
            assert sum(sc.joint_raw(xs).values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_signalling_marginals(self, rng):
        sc = random_scenario(rng, n_parties=2)
        dev_a, dev_b = sc.devices
        for xa in dev_a.settings:
            reference = None
            for xb in dev_b.settings:
                dist = sc.joint_raw((xa, xb))
                marginal = {}
                for (a, b), p in dist.items():
                    marginal[a] = marginal.get(a, 0.0) + p
                if reference is None:
                    reference = marginal
                else:
                    for a, p in marginal.items():
                        assert p == pytest.approx(reference[a], abs=1e-9)


class TestContraction:
    """The per-setting-tuple tensor contraction against the Kronecker-product oracle."""

    def test_builds_no_kronecker_product(self, rng, monkeypatch):
        import fairsamp.bell
        import fairsamp.linalg

        def forbidden(ops):
            raise AssertionError("joint tables must not call linalg.tensor")

        sc = random_scenario(rng, n_parties=3, dim_range=(2, 3))
        monkeypatch.setattr(fairsamp.bell, "tensor", forbidden)
        monkeypatch.setattr(fairsamp.linalg, "tensor", forbidden)
        for xs in sc.setting_tuples():
            sc.joint_raw(xs)
            sc.all_click_probability(xs)
            sc.joint_postselected(xs)

    def test_negative_probability_names_outcome_and_settings(self):
        # Party A's element and state each pass the PSD check, yet their negative
        # eigenvalues add up to a joint probability below -COMPLETENESS_TOL.
        dim = 20
        rho_a = np.diag([1.0 + (dim - 1) * 0.9e-10] + [-0.9e-10] * (dim - 1))
        low = np.diag([0.0] + [1.0] * (dim - 1))
        dev_a = LossyDevice(dim, ["z"], ["+", "-"], {"z": {"+": low, "-": np.eye(dim) - low}})
        dev_b = projective_qubit_device({"z": 0.0})
        sc = BellScenario([dev_a, dev_b], np.kron(rho_a, np.diag([0.0, 1.0])))
        with pytest.raises(NotPositiveError, match=r"outcomes \('\+', '-'\) at settings \('z', 'z'\)"):
            sc.joint_raw(("z", "z"))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parties=st.lists(
        st.tuples(st.integers(2, 4), st.integers(2, 3), st.integers(2, 3)), min_size=1, max_size=4
    ),
)
def test_joint_tables_match_the_kronecker_oracle(seed, parties):
    rng = np.random.default_rng(seed)
    devices = [helpers.random_multisetting_device(rng, d, m, k) for d, m, k in parties]
    sc = BellScenario(devices, random_density(int(np.prod([d for d, _, _ in parties])), rng))
    xs = tuple(dev.settings[int(rng.integers(len(dev.settings)))] for dev in devices)
    for table, oracle in (
        (sc.joint_raw(xs), helpers.kron_joint_raw(sc, xs)),
        (sc.joint_postselected(xs), helpers.kron_joint_postselected(sc, xs)),
    ):
        assert list(table) == list(oracle)
        assert max(abs(table[outs] - oracle[outs]) for outs in oracle) <= 1e-12
    assert abs(sc.all_click_probability(xs) - helpers.kron_all_click_probability(sc, xs)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parties=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4
    ),
)
def test_prefix_shared_walk_is_bit_identical_to_lone_tuples(seed, parties):
    rng = np.random.default_rng(seed)
    devices = [helpers.random_multisetting_device(rng, d, m, k) for d, m, k in parties]
    sc = BellScenario(devices, random_density(int(np.prod([d for d, _, _ in parties])), rng))
    tuples = list(sc.setting_tuples())
    lone = {xs: sc.joint_raw(xs) for xs in tuples}
    assert sc.joint_raw_tables(sc.setting_tuples()) == lone
    # Any order and any subset: a changed prefix is contracted afresh.
    picked = [tuples[i] for i in rng.choice(len(tuples), size=int(rng.integers(1, len(tuples) + 1)))]
    assert sc.joint_raw_tables(picked) == {xs: lone[xs] for xs in picked}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parties=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=4
    ),
)
def test_array_reductions_equal_the_dict_oracle(seed, parties):
    """Acceptance, post-selection, max deviation and Bell values read from the arrays are the dict loops' floats."""
    rng = np.random.default_rng(seed)
    devices = [helpers.random_multisetting_device(rng, d, m, k) for d, m, k in parties]
    devices[0] = helpers.with_dead_setting(devices[0])
    dim = int(np.prod([d for d, _, _ in parties]))
    good = list(itertools.product(*(dev.outcomes for dev in devices)))
    tuples = list(itertools.product(*(dev.settings for dev in devices)))
    coeffs = {(xs, outs): float(rng.normal()) for xs in tuples for outs in good}
    sc = BellScenario(devices, random_density(dim, rng), coeffs)
    other = BellScenario(devices, random_density(dim, rng))  # stands in for the ideal experiment

    raw, raw_dicts = sc._raw_arrays(tuples), sc.joint_raw_tables(tuples)
    for xs in tuples:
        assert _acceptance(raw[xs]) == helpers.dict_acceptance(raw_dicts[xs])
    post, post_dicts = _postselected_tables(raw), helpers.dict_postselected_tables(raw_dicts)
    assert list(post) == list(post_dicts) == [xs for xs in tuples if xs[0] != "dead"]
    for xs, ps in post.items():
        assert dict(zip(good, ps.ravel().tolist())) == post_dicts[xs]
    ideal = other._raw_arrays(post)
    assert _max_deviation(post, ideal) == helpers.dict_max_deviation(post_dicts, other.joint_raw_tables(post))

    assert sc._functional.value(raw) == bell_value(raw_dicts, coeffs)
    with pytest.raises(ZeroAcceptanceError, match="vanishing acceptance"):
        _postselected_bell_value(sc, post)
    live = BellScenario(devices, sc.psi, {key: c for key, c in coeffs.items() if key[0] in post})
    assert _postselected_bell_value(live, post) == bell_value(post_dicts, live.bell_coeffs)
    assert postselected_bell_value(live) == bell_value(post_dicts, live.bell_coeffs)
    assert live._functional.value(ideal) == bell_value(other.joint_raw_tables(post), live.bell_coeffs)


class TestJointPostselected:
    def test_lossless_matches_raw(self, rng):
        sc = lossless_z_pair()
        raw = sc.joint_raw(("z", "z"))
        ps = sc.joint_postselected(("z", "z"))
        for outs, p in ps.items():
            assert p == pytest.approx(raw[outs], abs=1e-12)

    def test_strong_fs_detectors_keep_tsirelson(self):
        sc = chsh_singlet_scenario()
        assert postselected_bell_value(sc) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_zero_acceptance_tuple_is_erased(self):
        from fairsamp.device import LossyDevice

        dead = LossyDevice(2, ["x"], ["a"], {"x": {"a": np.zeros((2, 2))}})
        live = projective_qubit_device({"x": 0.0})
        sc = BellScenario([dead, live], singlet_state())
        with pytest.raises(ZeroAcceptanceError):
            sc.joint_postselected(("x", "x"))


class TestFilteredGlobalState:
    def test_identity_filters(self, rng):
        psi = random_density(4, rng)
        out, eq = filtered_global_state([np.eye(2), np.eye(2)], psi)
        np.testing.assert_allclose(out, psi, atol=1e-12)
        assert eq == pytest.approx(1.0, abs=1e-12)

    def test_projection_filter_conditions(self, rng):
        psi = random_density(4, rng)
        mqs = [np.diag([1.0, 0.0]), np.eye(2)]
        out, eq = filtered_global_state(mqs, psi)
        block = psi[:2, :2]
        np.testing.assert_allclose(out[:2, :2], block / np.trace(block).real, atol=1e-10)
        np.testing.assert_allclose(out[2:, 2:], np.zeros((2, 2)), atol=1e-12)

    def test_separable_state_stays_separable(self, rng):
        # filter each product term by hand and compare with the engine output
        terms = []
        weights = rng.dirichlet(np.ones(3))
        for _ in range(3):
            terms.append((random_density(2, rng), random_density(2, rng)))
        psi = sum(w * tensor([a, b]) for w, (a, b) in zip(weights, terms))
        mqs = [np.diag([1.0, 0.4]), np.diag([0.7, 1.0])]
        out, eq = filtered_global_state(mqs, psi)
        sqs = [sqrt_pinv_sqrt(mq)[0] for mq in mqs]
        rebuilt = sum(
            w * tensor([sqs[0] @ a @ sqs[0], sqs[1] @ b @ sqs[1]])
            for w, (a, b) in zip(weights, terms)
        )
        np.testing.assert_allclose(out, rebuilt / np.trace(rebuilt).real, atol=1e-10)


class TestPostselectionEquivalence:
    def test_random_exact_fs_scenarios(self, rng):
        for n_parties in (1, 2, 3):
            for _ in range(3):
                sc = random_scenario(rng, n_parties=n_parties, dim_range=(2, 3))
                assert verify_postselection_equivalence(sc, tol=1e-9) <= 1e-9

    def test_strong_fs_filtered_state_is_input(self, rng):
        dev = makarov_traced()
        psi = random_density(4, rng)
        sc = BellScenario([dev, dev], psi)
        verdicts = [check_exact(d) for d in sc.devices]
        filtered, _ = filtered_global_state([v.quantum_elem for v in verdicts], psi)
        np.testing.assert_allclose(filtered, psi, atol=1e-10)
        assert verify_postselection_equivalence(sc, tol=1e-9) <= 1e-9

    def test_single_party_case(self, rng):
        sc = random_scenario(rng, n_parties=1)
        assert verify_postselection_equivalence(sc, tol=1e-9) <= 1e-9

    def test_four_qudit_parties(self):
        # D = 256: 0.1 s with the contraction, about 15 s with one Kronecker product per outcome tuple.
        rng = np.random.default_rng(7)
        devices = [random_fair_sampling_device(4, 2, 3, rng) for _ in range(4)]
        sc = BellScenario(devices, random_density(256, rng))
        assert verify_postselection_equivalence(sc, tol=1e-9) <= 1e-9

    def test_rejects_unfair_device(self):
        from fairsamp.optics import single_photon_analyser

        dev = single_photon_analyser(0.8, 0.2, [0.0, np.pi / 4.0])
        sc = BellScenario([dev], random_density(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="fails the exact fair-sampling check"):
            verify_postselection_equivalence(sc)


class TestEpsilonComposition:
    def test_product_formula(self):
        assert epsilon_total([0.0, 0.0]) == 0.0
        assert epsilon_total([0.01, 0.02]) == pytest.approx(1.0 - 0.99 * 0.98, abs=1e-15)
        assert epsilon_total([0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_total([1.0])

    def test_joint_device_epsilon_below_total(self, rng):
        from fairsamp.optics import single_photon_analyser

        devs = [
            single_photon_analyser(0.8, 0.05, [0.0, np.pi / 4.0]),
            single_photon_analyser(0.7, 0.1, [0.1, 1.0]),
        ]
        mqs = [np.eye(2), np.eye(2)]
        eps = [approximate_epsilon(d, mq) for d, mq in zip(devs, mqs)]
        joint = joint_device(devs)
        eps_joint = approximate_epsilon(joint, tensor(mqs))
        assert eps_joint <= epsilon_total(eps) + 1e-9

    def test_joint_device_statistics(self, rng):
        devs = [makarov_traced(), makarov_traced()]
        sc = BellScenario(devs, singlet_state())
        joint = joint_device(devs)
        psi = singlet_state()
        for xs in sc.setting_tuples():
            dist = sc.joint_raw(xs)
            for outs, p in dist.items():
                if NOCLICK in outs:
                    continue
                from fairsamp.linalg import expect

                assert p == pytest.approx(
                    expect(joint.element(",".join(xs), ",".join(outs)), psi), abs=1e-12
                )


    def test_joint_device_rejects_separator_in_labels(self):
        comma = projective_qubit_device({"z": 0.0}, outcomes=("p,q", "p"))
        with pytest.raises(ValueError, match="party 1 label 'p,q'"):
            joint_device([projective_qubit_device({"z": 0.0}), comma])


class TestBellFunctional:
    def test_chsh_value_and_beta(self):
        sc = chsh_singlet_scenario()
        assert beta_max(chsh_coefficients()) == pytest.approx(4.0, abs=1e-12)
        assert postselected_bell_value(sc) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_missing_distribution(self):
        with pytest.raises(KeyError):
            bell_value({}, chsh_coefficients())

    def test_incomplete_coefficients_rejected(self):
        from fairsamp.bell import validate_coefficients

        sc = chsh_singlet_scenario()
        coeffs = dict(chsh_coefficients())
        coeffs.pop((("0", "0"), ("+", "+")))
        with pytest.raises(ValueError, match="missing coefficient"):
            validate_coefficients(sc, coeffs)
        validate_coefficients(sc, chsh_coefficients())

    def test_validation_rejects_settings_tuple_of_wrong_length(self):
        from fairsamp.bell import validate_coefficients

        long = {(("0", "0", "0"), ("+", "+")): 1.0}
        with pytest.raises(KeyError, match="expected a tuple of 2 settings"):
            validate_coefficients(chsh_singlet_scenario(), long)

    @pytest.mark.parametrize(
        "key,message",
        [
            ((("0", "0"), ("+", "zzz")), r"party 1 has no good outcome 'zzz'"),
            ((("0", "0"), ("+", NOCLICK)), r"party 1 has no good outcome 'noclick'"),
            ((("0", "0", "0"), ("+", "+")), r"expected a tuple of 2 settings, one per party"),
            ((("0", "2"), ("+", "+")), r"party 1 has no setting '2'"),
            ((("0", "0"), ("+",)), r"expected a tuple of 2 good outcomes, one per party"),
        ],
        ids=["unknown-outcome", "noclick", "long-settings", "unknown-setting", "short-outcomes"],
    )
    def test_coefficient_keys_checked_when_built(self, key, message):
        sc = chsh_singlet_scenario()
        coeffs = {**chsh_coefficients(), key: 5.0, (("1", "1"), ("+", "zzz")): 1.0}
        named = r"^Bell coefficient for settings " + re.escape(repr(key[0])) + ".*: " + message
        with pytest.raises(ValueError, match=named):
            BellScenario(sc.devices, sc.psi, coeffs)

    def test_deviation_bound_zero_for_exact(self, rng):
        sc = chsh_singlet_scenario()
        verdicts = [check_exact(dev) for dev in sc.devices]
        eps_tot = epsilon_total([v.epsilon for v in verdicts])
        assert deviation_bound(eps_tot, beta_max(chsh_coefficients())) == 0.0
        ideal = ideal_scenario(sc, [v.quantum_elem for v in verdicts])
        assert postselected_vs_ideal_deviation(sc, ideal) <= 1e-9

    def test_bell_deviation_within_bound_for_perturbed(self, rng):
        from fairsamp.optics import single_photon_analyser

        coeffs = chsh_coefficients()
        beta = beta_max(coeffs)
        # polarization angles: half the Bloch angles of the Tsirelson configuration
        angles_a = {"0": 0.0, "1": np.pi / 4.0}
        angles_b = {"0": -3.0 * np.pi / 8.0, "1": 3.0 * np.pi / 8.0}
        for delta in (0.02, 0.1):
            dev_a = single_photon_analyser(0.8, delta, list(angles_a.values()))
            dev_b = single_photon_analyser(0.8, delta, list(angles_b.values()))
            # relabel analyser settings to the CHSH labels
            ra = {s: l for s, l in zip(dev_a.settings, angles_a)}
            rb = {s: l for s, l in zip(dev_b.settings, angles_b)}
            povm_a = {ra[s]: {a: dev_a.element(s, a) for a in dev_a.outcomes} for s in dev_a.settings}
            povm_b = {rb[s]: {a: dev_b.element(s, a) for a in dev_b.outcomes} for s in dev_b.settings}
            from fairsamp.device import LossyDevice

            coeffs_d = {
                (xs, tuple("D1" if o == "+" else "D2" for o in outs)): c
                for (xs, outs), c in coeffs.items()
            }
            sc = BellScenario(
                [
                    LossyDevice(2, list(angles_a), dev_a.outcomes, povm_a),
                    LossyDevice(2, list(angles_b), dev_b.outcomes, povm_b),
                ],
                singlet_state(),
                coeffs_d,
            )
            mqs = [np.eye(2), np.eye(2)]
            eps = [approximate_epsilon(d, mq) for d, mq in zip(sc.devices, mqs)]
            eps_tot = epsilon_total(eps)
            ideal = ideal_scenario(sc, mqs)
            needed = {xs for (xs, _) in coeffs_d}
            ps = {xs: sc.joint_postselected(xs) for xs in needed}
            ideal_dists = {xs: ideal.joint_raw(xs) for xs in needed}
            measured = abs(bell_value(ps, coeffs_d) - bell_value(ideal_dists, coeffs_d))
            assert measured <= deviation_bound(eps_tot, beta) + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    eps=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4),
    k=st.integers(0, 3),
    raised=st.floats(0.0, 0.99),
)
def test_epsilon_total_is_monotone_and_bracketed(eps, k, raised):
    total = epsilon_total(eps)
    assert max(eps) - 1e-12 <= total <= sum(eps) + 1e-12
    k %= len(eps)
    bigger = [*eps[:k], max(eps[k], raised), *eps[k + 1:]]
    assert epsilon_total(bigger) >= total


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(2, 3), min_size=1, max_size=3))
def test_fair_devices_postselect_to_the_ideal_experiment(seed, dims):
    rng = np.random.default_rng(seed)
    devices = [
        random_fair_sampling_device(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        for d in dims
    ]
    sc = BellScenario(devices, random_density(int(np.prod(dims)), rng))
    assert postselected_vs_ideal_deviation(sc, ideal_scenario(sc)) <= 1e-9
