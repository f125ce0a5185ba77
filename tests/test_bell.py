"""Joint statistics, post-selection equivalence and multipartite bounds."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from fairsamp import serialize
from fairsamp.adversary import makarov_traced
from fairsamp.analysis import approximate_epsilon, check_exact, reference, tv_bound
from fairsamp.bell import (
    BellScenario,
    ScenarioAnalysis,
    bell_value,
    beta_max,
    chsh_coefficients,
    chsh_singlet_scenario,
    deviation_bound,
    epsilon_total,
    filtered_global_state,
    ideal_scenario,
    joint_device,
    postselected_bell_value,
    postselected_vs_ideal_deviation,
    singlet_state,
    validate_coefficients,
    verify_postselection_equivalence,
)
from fairsamp.device import NOCLICK, LossyDevice, ZeroAcceptanceError, projective_qubit_device
from fairsamp.linalg import COMPLETENESS_TOL, NotPositiveError, sqrt_pinv_sqrt, tensor
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

    @pytest.mark.parametrize(
        "read",
        [
            lambda sc: sc.tables([("0", "1"), ("0", "z")]),
            lambda sc: sc.tables([("z", "0")]),
            lambda sc: sc.joint_raw(("0", "z")),
        ],
        ids=["behind-a-shared-prefix", "first-party", "joint-raw"],
    )
    def test_unknown_setting_is_named_by_the_device(self, read):
        """The walk reads each party's row by the device's own lookup, so a bad label raises its ``KeyError``."""
        dev = projective_qubit_device({"0": 0.0, "1": np.pi / 4.0})
        with pytest.raises(KeyError) as raised:
            read(BellScenario([dev, dev], singlet_state()))
        assert raised.value.args == ("unknown setting 'z'",)

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

    def test_first_failing_tuple_in_walk_order_is_named(self):
        """Both settings of party A drive a probability below -COMPLETENESS_TOL; the walk's first is named."""
        dim = 20
        rho_a = np.diag([1.0 + (dim - 1) * 0.9e-10] + [-0.9e-10] * (dim - 1))
        mild = np.diag([0.0] * 5 + [1.0] * (dim - 5))  # 15 negative eigenvalues: -1.35e-09
        deep = np.diag([0.0] + [1.0] * (dim - 1))  # 19 of them: -1.71e-09
        povm = {x: {"+": low, "-": np.eye(dim) - low} for x, low in (("mild", mild), ("deep", deep))}
        dev_a = LossyDevice(dim, ["mild", "deep"], ["+", "-"], povm)
        sc = BellScenario([dev_a, projective_qubit_device({"z": 0.0})], np.kron(rho_a, np.diag([0.0, 1.0])))
        mild_first = r"outcomes \('\+', '-'\) at settings \('mild', 'z'\) has negative probability -1\.35"
        with pytest.raises(NotPositiveError, match=mild_first):
            sc.tables()
        with pytest.raises(NotPositiveError, match=r"at settings \('deep', 'z'\) has negative probability -1\.71"):
            sc.tables([("deep", "z"), ("mild", "z")])


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
    assert helpers.dict_raw_tables(sc, sc.setting_tuples()) == lone
    # Any order and any subset: a changed prefix is contracted afresh.
    picked = [tuples[i] for i in rng.choice(len(tuples), size=int(rng.integers(1, len(tuples) + 1)))]
    assert helpers.dict_raw_tables(sc, picked) == {xs: lone[xs] for xs in picked}


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

    t, raw_dicts = sc.tables(tuples), helpers.dict_raw_tables(sc, tuples)
    for xs in tuples:
        assert t.acceptance[xs] == helpers.dict_acceptance(raw_dicts[xs])
    post, post_dicts = t.postselected, helpers.dict_postselected_tables(raw_dicts)
    assert list(post) == list(post_dicts) == [xs for xs in tuples if xs[0] != "dead"]
    assert t.erased == [xs for xs in tuples if xs[0] == "dead"]
    for xs, ps in post.items():
        assert dict(zip(good, ps.ravel().tolist())) == post_dicts[xs]
    ideal = other.tables(post)
    assert t.max_deviation(ideal) == helpers.dict_max_deviation(post_dicts, helpers.dict_raw_tables(other, post))

    assert sc.bell_value(t.raw) == bell_value(raw_dicts, coeffs)
    for call in (lambda: sc.bell_value(post), lambda: postselected_bell_value(sc)):
        with pytest.raises(ZeroAcceptanceError, match=r"vanishing acceptance: \[\('dead',"):
            call()
    live = BellScenario(devices, sc.psi, {key: c for key, c in coeffs.items() if key[0] in post})
    assert live.bell_value(post) == bell_value(post_dicts, live.bell_coeffs)
    assert postselected_bell_value(live) == bell_value(post_dicts, live.bell_coeffs)
    assert live.bell_value(ideal.raw) == bell_value(helpers.dict_raw_tables(other, post), live.bell_coeffs)


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

    @pytest.mark.parametrize(
        "psi,message",
        [
            (np.full((4, 4), np.nan), r"^state has a non-finite entry$"),
            (np.diag([2.0, -1.0, 0.0, 0.0]), r"^state has negative eigenvalue -1\.000e\+00"),
        ],
        ids=["nan", "negative"],
    )
    def test_rejects_what_is_not_a_state(self, psi, message):
        with pytest.raises(ValueError, match=message):
            filtered_global_state([np.eye(2), np.eye(2)], psi)


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
        assert beta_max(chsh_coefficients(sc.devices)) == pytest.approx(4.0, abs=1e-12)
        assert postselected_bell_value(sc) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_missing_distribution(self):
        with pytest.raises(KeyError):
            bell_value({}, chsh_singlet_scenario().bell_coeffs)

    def test_incomplete_coefficients_rejected(self):
        from fairsamp.bell import validate_coefficients

        sc = chsh_singlet_scenario()
        coeffs = chsh_coefficients(sc.devices)
        coeffs.pop((("0", "0"), ("+", "+")))
        with pytest.raises(ValueError, match="missing coefficient"):
            validate_coefficients(sc, coeffs)
        validate_coefficients(sc, chsh_coefficients(sc.devices))

    def test_validating_no_coefficients_raises_value_error(self):
        for sc in (chsh_singlet_scenario(), lossless_z_pair()):
            with pytest.raises(ValueError, match="^no Bell coefficients to validate$"):
                validate_coefficients(sc, None)

    def test_validation_rejects_settings_tuple_of_wrong_length(self):
        from fairsamp.bell import validate_coefficients

        long = {(("0", "0", "0"), ("+", "+")): 1.0}
        with pytest.raises(ValueError, match="expected a tuple of 2 settings"):
            validate_coefficients(chsh_singlet_scenario(), long)

    @pytest.mark.parametrize(
        "key", [(("0", "0"), ("+", "zzz")), (("0", "0"), ("+", NOCLICK)), (("0", "2"), ("+", "+"))]
    )
    def test_foreign_coefficients_raise_what_building_the_scenario_raises(self, key):
        sc = chsh_singlet_scenario()
        coeffs = {**chsh_coefficients(sc.devices), key: 1.0}  # complete, plus one key that does not fit
        with pytest.raises(ValueError) as built:
            BellScenario(sc.devices, sc.psi, coeffs)
        with pytest.raises(ValueError) as validated:
            validate_coefficients(sc, coeffs)
        assert str(validated.value) == str(built.value)

    def test_own_coefficients_are_read_from_the_compiled_functional(self, monkeypatch):
        import fairsamp.bell as bell

        sc = chsh_singlet_scenario()
        coeffs = chsh_coefficients(sc.devices)
        coeffs.pop((("1", "0"), ("-", "+")))
        partial = BellScenario(sc.devices, sc.psi, coeffs)

        def walked(*args):
            raise AssertionError("validate_coefficients walked the coefficient keys")

        monkeypatch.setattr(bell, "_compile", walked)
        monkeypatch.setattr(bell, "_labels_fault", walked)
        validate_coefficients(sc, sc.bell_coeffs)
        missing = r"^missing coefficient entry for settings \('1', '0'\), outcomes \('-', '\+'\)$"
        with pytest.raises(ValueError, match=missing):
            validate_coefficients(partial, partial.bell_coeffs)

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
        coeffs = {**chsh_coefficients(sc.devices), key: 5.0, (("1", "1"), ("+", "zzz")): 1.0}
        named = r"^Bell coefficient for settings " + re.escape(repr(key[0])) + ".*: " + message
        with pytest.raises(ValueError, match=named):
            BellScenario(sc.devices, sc.psi, coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan)], ids=["nan", "inf", "-inf", "np-nan"])
    @pytest.mark.parametrize("position", [0, 5], ids=["first-key", "later-key"])
    def test_non_finite_weight_named_when_built_and_by_beta_max(self, position, bad):
        sc = chsh_singlet_scenario()
        coeffs = chsh_coefficients(sc.devices)
        xs, outs = key = list(coeffs)[position]
        coeffs[key] = bad
        message = f"Bell coefficient for settings {xs!r}, outcomes {outs!r}: weight {float(bad)!r} is not finite"
        for call in (
            lambda: BellScenario(sc.devices, sc.psi, coeffs),
            lambda: validate_coefficients(sc, coeffs),
            lambda: beta_max(coeffs),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call()

    def test_non_finite_weight_named_after_bad_labels(self):
        sc = chsh_singlet_scenario()
        coeffs = {**chsh_coefficients(sc.devices), (("0", "0"), ("+", "+")): np.nan, (("1", "1"), ("+", "zzz")): 1.0}
        with pytest.raises(ValueError, match=r"party 1 has no good outcome 'zzz'$"):
            BellScenario(sc.devices, sc.psi, coeffs)

    def test_deviation_bound_zero_for_exact(self, rng):
        sc = chsh_singlet_scenario()
        verdicts = [check_exact(dev) for dev in sc.devices]
        eps_tot = epsilon_total([v.epsilon for v in verdicts])
        assert deviation_bound(eps_tot, beta_max(chsh_coefficients(sc.devices))) == 0.0
        ideal = ideal_scenario(sc, [v.quantum_elem for v in verdicts])
        assert postselected_vs_ideal_deviation(sc, ideal) <= 1e-9

    def test_bell_deviation_within_bound_for_perturbed(self, rng):
        from fairsamp.optics import single_photon_analyser

        for delta in (0.02, 0.1):
            # polarization angles: half the Bloch angles of the Tsirelson configuration
            devices = [
                single_photon_analyser(0.8, delta, [0.0, np.pi / 4.0]),
                single_photon_analyser(0.8, delta, [-3.0 * np.pi / 8.0, 3.0 * np.pi / 8.0]),
            ]
            coeffs = chsh_coefficients(devices)
            sc = BellScenario(devices, singlet_state(), coeffs)
            mqs = [np.eye(2), np.eye(2)]
            eps = [approximate_epsilon(d, mq) for d, mq in zip(sc.devices, mqs)]
            eps_tot = epsilon_total(eps)
            ideal = ideal_scenario(sc, mqs)
            needed = {xs for (xs, _) in coeffs}
            ps = {xs: sc.joint_postselected(xs) for xs in needed}
            ideal_dists = {xs: ideal.joint_raw(xs) for xs in needed}
            measured = abs(bell_value(ps, coeffs) - bell_value(ideal_dists, coeffs))
            assert measured <= deviation_bound(eps_tot, beta_max(coeffs)) + 1e-9


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


class TestIdealScenario:
    def test_one_eigh_per_reference(self, monkeypatch):
        sc = chsh_singlet_scenario()
        calls = helpers.record_spectral_calls(monkeypatch)
        ideal_scenario(sc)
        # Each party's reference once (support, pseudo-inverse root and root alike), then the
        # filtered state's assert_density, on eigenvalues alone; the strong test's reference
        # support is never built.
        assert calls == [("eigh", (2, 2)), ("eigh", (2, 2)), ("eigvalsh", (4, 4))]

    def test_one_norm_per_click_stack(self, rng, monkeypatch):
        """The weak test's click norms serve the conjugation too."""
        import fairsamp.device

        devices = [random_fair_sampling_device(3, 3, 2, rng) for _ in range(2)]
        sc = BellScenario(devices, random_density(9, rng))
        normed = []
        original = fairsamp.device.operator_norms
        monkeypatch.setattr(fairsamp.device, "operator_norms", lambda stack: normed.append(stack) or original(stack))
        ideal_scenario(sc)
        assert [sum(np.array_equal(s, dev.click_elements()) for s in normed) for dev in devices] == [1, 1]

    def test_bell_value_of_the_ideal_experiment_names_erased_tuples(self):
        good = list(itertools.product("+-", repeat=2))
        coeffs = {(xs, outs): 1.0 for xs in (("0", "0"), ("0", "dead")) for outs in good}
        sc = BellScenario([projective_qubit_device({"0": 0.0}), helpers.silent_device()], singlet_state(), coeffs)
        message = "Bell coefficients read setting tuples with vanishing acceptance: [('0', 'dead')]"
        with pytest.raises(ZeroAcceptanceError, match=re.escape(message)):
            sc.bell_value(ideal_scenario(sc).tables().raw)
        with pytest.raises(ZeroAcceptanceError, match=re.escape(message)):
            helpers.bound_figures(ScenarioAnalysis(sc, [check_exact(dev).quantum_elem for dev in sc.devices]))
        live = BellScenario(sc.devices, sc.psi, {key: c for key, c in coeffs.items() if key[0] == ("0", "0")})
        assert live.bell_value(ideal_scenario(live).tables().raw) == pytest.approx(1.0)

    def test_declares_no_coefficients_and_is_read_by_the_measured_functional(self):
        sc = chsh_singlet_scenario()
        ideal = ideal_scenario(sc)
        assert sc.bell_coeffs is not None and ideal.bell_coeffs is None
        with pytest.raises(ValueError, match="^scenario declares no Bell coefficients$"):
            ideal.bell_value(ideal.tables().raw)
        assert sc.bell_value(ideal.tables().raw) == pytest.approx(postselected_bell_value(sc), abs=1e-12)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_reference_per_party_or_an_error_before_any_work(self, monkeypatch, count):
        sc = chsh_singlet_scenario()
        mqs = [check_exact(sc.devices[0]).quantum_elem] * count
        calls = helpers.record_spectral_calls(monkeypatch)
        message = f"expected 2 references, one per party, got {count}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ideal_scenario(sc, mqs)
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioAnalysis(sc, mqs)
        message = f"reference dimensions {[2] * count} do not match state dimension 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            filtered_global_state(mqs, sc.psi)
        assert calls == []


@pytest.mark.parametrize("name", [*(f.name for f in dataclasses.fields(BellScenario)), "_functional"])
def test_scenario_fields_cannot_be_reassigned(name):
    sc = chsh_singlet_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(sc, name, getattr(sc, name))


def test_scenario_keeps_a_read_only_copy_of_its_coefficients():
    """Mutating the dict a scenario was built from changes none of what the scenario reports."""
    chsh = chsh_singlet_scenario()
    coeffs = chsh_coefficients(chsh.devices)
    sc = BellScenario(chsh.devices, chsh.psi, coeffs)

    def reported():
        beta = ScenarioAnalysis(sc, [np.eye(2)] * 2).beta_max
        return postselected_bell_value(sc), beta, serialize.scenario_to_json(sc)["bell"]

    before = reported()
    for key in coeffs:
        coeffs[key] *= 10.0
    assert reported() == before
    assert before[:2] == (2.8284271247461907, 4.0)
    key = next(iter(coeffs))
    with pytest.raises(TypeError):
        sc.bell_coeffs[key] = 1.0
    assert sc.bell_coeffs[key] == coeffs[key] / 10.0


@pytest.mark.parametrize("coeffs", [None, {}])
def test_a_scenario_needs_at_least_one_party(coeffs):
    with pytest.raises(ValueError, match="^a Bell scenario needs at least one party$"):
        BellScenario([], np.eye(1), coeffs)


#: Weights for the ``beta_max`` property: ties and signed zeros drawn often, any finite double too.
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def coefficient_maps(draw):
    """Coefficients over 1-3 parties with 1-3 settings and outcomes each: a drawn subset of the keys in drawn order."""
    parties = range(draw(st.integers(1, 3)))
    settings_ = [[str(i) for i in range(draw(st.integers(1, 3)))] for _ in parties]
    outcomes = [[str(i) for i in range(draw(st.integers(1, 3)))] for _ in parties]
    keys = list(itertools.product(itertools.product(*settings_), itertools.product(*outcomes)))
    kept = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    return dict(zip(kept, draw(st.lists(WEIGHTS, min_size=len(kept), max_size=len(kept)))))


@settings(max_examples=100, deadline=None)
@example(coeffs={(("0",), ("0",)): -0.0, (("0",), ("1",)): 0.0, (("1",), ("0",)): 0.0, (("1",), ("1",)): -0.0})
@example(coeffs={(("0", "0"), ("0", "0")): 1e308, (("0", "1"), ("0", "0")): 1e308, (("1", "0"), ("0", "0")): -1e308})
@given(coeffs=coefficient_maps())
def test_beta_max_is_the_dict_walk_to_the_bit(coeffs):
    """``beta_max`` of the mapping, and of a scenario's functional compiled from it, is the dict walk's."""
    expected = helpers.oracle_beta_max(coeffs).hex()
    assert beta_max(coeffs).hex() == expected
    devices = []
    for k in range(len(next(iter(coeffs))[0])):
        settings_ = list(dict.fromkeys(xs[k] for xs, _ in coeffs))
        outcomes = list(dict.fromkeys(outs[k] for _, outs in coeffs))
        uniform = np.full((len(settings_), len(outcomes), 1, 1), 1 / len(outcomes))
        devices.append(LossyDevice(1, settings_, outcomes, uniform))
    sc = BellScenario(devices, np.eye(1), coeffs)
    assert sc._functional.beta_max().hex() == expected


def test_beta_max_of_an_analysis_is_read_from_the_compiled_functional(monkeypatch):
    """The coefficient mapping is walked once, when the scenario is built, and not again for ``beta_max``."""
    import fairsamp.bell as bell

    sc = chsh_singlet_scenario()

    def walked(*args):
        raise AssertionError("the coefficient mapping was walked again")

    monkeypatch.setattr(bell, "_grouped", walked)
    analysis = ScenarioAnalysis(sc, [check_exact(dev).reference for dev in sc.devices])
    assert (analysis.beta_max, analysis.local_bound) == (4.0, 2.0)


class TestLocalBound:
    def test_chsh_local_bound_is_two_and_the_singlet_exceeds_it(self):
        sc = chsh_singlet_scenario()
        analysis = ScenarioAnalysis(sc)
        assert sc._functional.local_bound() == analysis.local_bound == 2.0
        assert abs(analysis.bell_value_postselected) > analysis.local_bound + 0.8

    def test_no_coefficients_read_nothing_and_none_declared_raise(self):
        empty = BellScenario(lossless_z_pair().devices, singlet_state(), {})
        assert ScenarioAnalysis(empty).local_bound == 0.0
        with pytest.raises(ValueError, match="^scenario declares no Bell coefficients$"):
            ScenarioAnalysis(lossless_z_pair()).local_bound

    def test_the_party_with_the_most_strategies_is_reduced_and_the_rest_capped(self):
        """17 two-outcome settings are 2**17 strategies: reduced, not enumerated, unless every party has as many."""
        many = projective_qubit_device({str(k): k * np.pi / 17.0 for k in range(17)})
        one = projective_qubit_device({"0": 0.0})
        for devices, bound in (([many, one], 17.0), ([one, many], 17.0), ([many, many], None)):
            keys = itertools.product(*(d.settings for d in devices), "+-", "+-")
            coeffs = {((x, y), (a, b)): 1.0 for x, y, a, b in keys}
            analysis = ScenarioAnalysis(BellScenario(devices, singlet_state(), coeffs))
            if bound is not None:
                assert analysis.local_bound == bound  # each setting of the 17 adds its one weight of 1
                continue
            with pytest.raises(ValueError, match=r"^local strategy table of size 4456448 exceeds 100000$"):
                analysis.local_bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(1, 3), min_size=2, max_size=3))
def test_product_state_under_strongly_fair_devices_stays_within_the_local_bound(seed, dims):
    """Click elements proportional to the identity post-select a product state to product statistics."""
    rng = np.random.default_rng(seed)
    devices = [
        random_fair_sampling_device(d, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng, mq=np.eye(d))
        for d in dims
    ]
    coeffs = {
        (xs, outs): float(rng.uniform(-1.0, 1.0))
        for xs in itertools.product(*(d.settings for d in devices))
        for outs in itertools.product(*(d.outcomes for d in devices))
    }
    sc = BellScenario(devices, tensor([random_density(d, rng) for d in dims]), coeffs)
    analysis = ScenarioAnalysis(sc)
    assert abs(analysis.bell_value_postselected) <= analysis.local_bound + COMPLETENESS_TOL


class TestScenarioAnalysisOrder:
    MISSING = r"^missing coefficient entry for settings \('0', '0'\), outcomes \('\+', '-'\)$"

    @staticmethod
    def scenario(click):
        """Party 0 clicks with ``click`` alone at setting "0"; the coefficients lack ("+", "-") there."""
        devices = [LossyDevice(2, ["0"], ["+"], {"0": {"+": click}}), projective_qubit_device({"0": 0.0})]
        coeffs = {(("0", "0"), ("+", "+")): 1.0}
        return BellScenario(devices, singlet_state(), coeffs)

    def test_completeness_checked_before_any_epsilon_table_or_ideal_device(self, monkeypatch):
        import fairsamp.bell as bell

        def fail(*args, **kwargs):
            raise AssertionError("the analysis worked before it checked the coefficients")

        sc = self.scenario(0.5 * np.eye(2))
        monkeypatch.setattr(bell, "approximate_epsilon", fail)
        monkeypatch.setattr(bell, "ideal_scenario", fail)
        monkeypatch.setattr(BellScenario, "tables", fail)
        with pytest.raises(ValueError, match=self.MISSING):
            ScenarioAnalysis(sc, [np.eye(2), np.eye(2)]).epsilons

    def test_missing_entry_named_before_an_epsilon_of_one(self):
        sc = self.scenario(np.diag([1.0, 0.0]))  # against the identity, epsilon is 1
        assert approximate_epsilon(sc.devices[0], np.eye(2)) == 1.0
        with pytest.raises(ValueError, match=self.MISSING):
            helpers.bound_figures(ScenarioAnalysis(sc, [np.eye(2), np.eye(2)]))
        complete = BellScenario(sc.devices, sc.psi, {**sc.bell_coeffs, (("0", "0"), ("+", "-")): 1.0})
        with pytest.raises(ValueError, match=r"^per-party epsilon 1\.0 outside \[0, 1\)$"):
            helpers.bound_figures(ScenarioAnalysis(complete, [np.eye(2), np.eye(2)]))

    def test_without_references_only_the_measured_pieces_exist(self):
        sc = chsh_singlet_scenario()
        analysis = ScenarioAnalysis(sc)
        for piece in ("epsilons", "ideal_tables", "joint_deviation", "bell_deviation"):
            with pytest.raises(ValueError, match="^no references given: no epsilon or ideal experiment$"):
                getattr(analysis, piece)
        assert analysis.bell_value_postselected == postselected_bell_value(sc)


def _outcome(call):
    """``call()``'s result, or the type and message of the ``ValueError`` it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_ideal(call, oracle_call):
    """``call()`` and ``oracle_call()`` give the same ideal scenario to the bit, or raise the same ``ValueError``."""
    ideal, oracle = _outcome(call), _outcome(oracle_call)
    if isinstance(oracle, tuple):
        assert ideal == oracle
        return
    assert np.array_equal(ideal.psi, oracle.psi)
    for dev, ref in zip(ideal.devices, oracle.devices, strict=True):
        assert (dev.settings, dev.outcomes) == (ref.settings, ref.outcomes)
        assert np.array_equal(dev.stack, ref.stack)
        assert not dev.stack.flags.writeable


@settings(max_examples=40, deadline=None)
@example(seed=0, dims=[2, 2], kinds=["erased-fair", "fair", "fair"], with_coeffs=True, identity_mq=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    kinds=st.lists(st.sampled_from(helpers.PASS_KINDS), min_size=3, max_size=3),
    with_coeffs=st.booleans(),
    identity_mq=st.booleans(),
)
def test_one_pass_ideal_experiment_equals_the_composed_oracle(seed, dims, kinds, with_coeffs, identity_mq):
    """``ideal_scenario`` and ``ScenarioAnalysis`` equal the public steps composed, to the bit.

    Each takes its references as matrices or as ``Reference`` objects, with the same result.
    """
    rng = np.random.default_rng(seed)
    devices = [
        helpers.pass_device(kind, rng, d, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        for d, kind in zip(dims, kinds)
    ]
    coeffs = None
    if with_coeffs:
        live = itertools.product(*([x for x in dev.settings if x != "dead"] for dev in devices))
        good = list(itertools.product(*(dev.outcomes for dev in devices)))
        coeffs = {(xs, outs): float(rng.normal()) for xs in live for outs in good}
    sc = BellScenario(devices, random_density(int(np.prod(dims)), rng), coeffs)

    _assert_same_ideal(lambda: ideal_scenario(sc), lambda: helpers.oracle_ideal_scenario(sc))
    verdicts = [check_exact(dev) for dev in devices]
    verdict_mqs = [v.quantum_elem for v in verdicts]
    for refs in ([v.reference for v in verdicts], verdict_mqs):
        _assert_same_ideal(lambda: ideal_scenario(sc, refs), lambda: helpers.oracle_ideal_scenario(sc, verdict_mqs))

    mqs = [np.eye(d) if identity_mq else mq for d, mq in zip(dims, verdict_mqs)]
    expected = _outcome(lambda: helpers.oracle_bound_report(sc, mqs))
    assert _outcome(lambda: helpers.bound_figures(ScenarioAnalysis(sc, mqs))) == expected
    refs = [reference(dev, mq) for dev, mq in zip(devices, mqs)]
    assert _outcome(lambda: helpers.bound_figures(ScenarioAnalysis(sc, refs))) == expected


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_contraction_step_equals_tensordot(seed, dims):
    """Every (prefix, setting) slice of the batched step is ``np.tensordot`` of the prefix's partial, to the bit."""
    rng = np.random.default_rng(seed)
    devices = [
        random_fair_sampling_device(d, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng) for d in dims
    ]
    sc = BellScenario(devices, random_density(int(np.prod(dims)), rng))
    n = len(dims)
    t = sc.psi.reshape(dims * 2)[None]
    for k, dev in enumerate(devices):
        step = sc._contract_step(t, k, dev.stack)
        s = len(dev.settings)
        assert len(step) == len(t) * s
        for p, x in itertools.product(range(len(t)), range(s)):
            reference = np.tensordot(t[p], dev.stack[x], axes=([0, n - k], [2, 1]))
            assert step[p * s + x].shape == reference.shape
            assert np.array_equal(step[p * s + x], reference)
        t = step


@st.composite
def tuple_requests(draw):
    """A scenario of 1-4 parties, one with a dead setting, and a random request: a subset in any order, repeats included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parties = draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4)
    )
    devices = [helpers.random_multisetting_device(rng, d, m, k) for d, m, k in parties]
    dead = draw(st.integers(0, len(devices) - 1))
    devices[dead] = helpers.with_dead_setting(devices[dead])
    sc = BellScenario(devices, random_density(int(np.prod([d for d, _, _ in parties])), rng))
    tuples = list(sc.setting_tuples())
    picked = draw(st.lists(st.sampled_from(tuples), max_size=2 * len(tuples)))
    return sc, draw(st.sampled_from([None, picked]))


@settings(max_examples=60, deadline=None)
@given(request=tuple_requests())
def test_tables_equal_the_prefix_walk_to_the_bit(request):
    """One contraction per party gives every table the prefix walk gave, keyed in the same order, to the bit."""
    sc, tuples = request
    got, oracle = sc.tables(tuples), helpers.oracle_prefix_walk(sc, tuples)
    assert got.outcomes == oracle.outcomes
    assert list(got.raw) == list(oracle.raw)
    for xs, table in oracle.raw.items():
        assert got.raw[xs].dtype == table.dtype and got.raw[xs].shape == table.shape
        assert got.raw[xs].tobytes() == table.tobytes()


class TestOneContractionPerParty:
    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        original = BellScenario._contract_step

        def counted(self, t, k, stack):
            calls.append(k)
            return original(self, t, k, stack)

        monkeypatch.setattr(BellScenario, "_contract_step", counted)
        return calls

    @pytest.mark.parametrize("n_parties", [1, 2, 3])
    def test_n_steps_whatever_the_tuples(self, steps, n_parties):
        rng = np.random.default_rng(n_parties)
        sc = BellScenario(
            [helpers.random_multisetting_device(rng, 2, 3, 2) for _ in range(n_parties)],
            random_density(2**n_parties, rng),
        )
        tuples = list(sc.setting_tuples())
        for request in (None, tuples, tuples[:1], tuples[::-1] * 2):
            steps.clear()
            sc.tables(request)
            assert steps == list(range(n_parties))

    @pytest.mark.parametrize(
        "tuples,error,message",
        [
            ([("0", "1"), ("0",)], ValueError, "expected 2 settings, got 1"),
            ([("0", "1"), ("0", "z")], KeyError, "unknown setting 'z'"),
            ([("y", "z"), ("0", "0", "0")], KeyError, "unknown setting 'y'"),
            ([("0", "0", "0"), ("z", "0")], ValueError, "expected 2 settings, got 3"),
        ],
        ids=["short", "unknown-second-party", "first-faulty-party", "first-faulty-tuple"],
    )
    def test_bad_labels_raise_before_any_contraction(self, monkeypatch, tuples, error, message):
        def fail(self, t, k, stack):
            raise AssertionError("contracted before the labels were checked")

        monkeypatch.setattr(BellScenario, "_contract_step", fail)
        dev = projective_qubit_device({"0": 0.0, "1": np.pi / 4.0})
        with pytest.raises(error) as raised:
            BellScenario([dev, dev], singlet_state()).tables(tuples)
        assert raised.value.args == (message,)


#: Setting and outcome labels for the coefficient-key properties: no joint-label separator.
LABELS = st.text(alphabet="ab+-01", min_size=1, max_size=3)


@st.composite
def relabelled_scenario(draw):
    """Two or three dimension-1 fair devices with drawn labels, and a random state: keys are all that matters."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    devices = []
    for _ in range(draw(st.integers(2, 3))):
        settings = draw(st.lists(LABELS, min_size=1, max_size=2, unique=True))
        outcomes = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
        fair = random_fair_sampling_device(1, len(settings), len(outcomes), rng)
        devices.append(LossyDevice(1, settings, outcomes, fair.stack[:, :-1]))
    return devices, rng


@settings(max_examples=40, deadline=None)
@given(labelled=relabelled_scenario())
def test_first_missing_coefficient_is_the_old_walks(labelled):
    """``validate_coefficients`` and ``ScenarioAnalysis`` name the key the label and key-set walk named first.

    The full key set is shuffled, so setting tuples are first used in random order, and each key is
    dropped with a random rate up to one half; a tuple that loses every key is no longer read and so
    not incomplete.
    """
    devices, rng = labelled
    settings_tuples = itertools.product(*(d.settings for d in devices))
    keys = list(itertools.product(settings_tuples, itertools.product(*(d.outcomes for d in devices))))
    keys = [keys[i] for i in rng.permutation(len(keys))]
    dropped = rng.random(len(keys)) < rng.uniform(0.0, 0.5)
    coeffs = {key: float(rng.normal()) for key, drop in zip(keys, dropped) if not drop}
    sc = BellScenario(devices, random_density(int(np.prod([d.dim for d in devices])), rng), coeffs)
    expected = _outcome(lambda: helpers.oracle_validate_coefficients(sc, coeffs))
    assert _outcome(lambda: validate_coefficients(sc, sc.bell_coeffs)) == expected
    assert _outcome(lambda: validate_coefficients(sc, dict(coeffs))) == expected
    analysis = ScenarioAnalysis(sc, [check_exact(dev).reference for dev in devices])
    figures = _outcome(lambda: helpers.bound_figures(analysis))
    if expected is None:
        assert figures[0] == analysis.epsilons
    else:
        assert figures == expected


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3),
    angle=st.floats(0.01, 0.15),
)
def test_measured_deviations_of_near_fair_devices_stay_within_the_bounds(seed, dims, angle):
    """Bell deviation <= 2 * eps_total * beta_max and joint deviation <= eps_total / (1 - eps_total).

    Two or three parties; party 0 has one setting rotated off fair sampling, and the references are
    the default ones ``bound`` uses.
    """
    rng = np.random.default_rng(seed)
    fair = [random_fair_sampling_device(d, 2, 2, rng) for d in dims]
    devices = [helpers.rotated_device(fair[0], angle, rng), *fair[1:]]
    coeffs = {
        (xs, outs): float(rng.uniform(-1.0, 1.0))
        for xs in itertools.product(*(d.settings for d in devices))
        for outs in itertools.product(*(d.outcomes for d in devices))
    }
    sc = BellScenario(devices, random_density(int(np.prod(dims)), rng), coeffs)
    analysis = ScenarioAnalysis(sc, [check_exact(dev).reference for dev in devices])
    assert analysis.epsilon_total > 0.0
    assert analysis.bell_deviation <= deviation_bound(analysis.epsilon_total, analysis.beta_max)
    assert analysis.joint_deviation <= tv_bound(analysis.epsilon_total)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(1, 3), min_size=2, max_size=3))
def test_strongly_fair_devices_postselect_to_the_unfiltered_state(seed, dims):
    """Every click element a multiple of the identity: the ideal experiment measures ``psi`` itself.

    Its raw tables are the post-selected tables, no-click entries 0, to 1e-12.
    """
    rng = np.random.default_rng(seed)
    devices = [
        random_fair_sampling_device(d, int(rng.integers(1, 3)), int(rng.integers(1, 4)), rng, mq=np.eye(d))
        for d in dims
    ]
    sc = BellScenario(devices, random_density(int(np.prod(dims)), rng))
    ideal = ideal_scenario(sc)
    assert np.max(np.abs(ideal.psi - sc.psi)) <= 1e-12
    t = sc.tables()
    raw = ideal.tables(t.postselected).raw
    assert list(raw) == list(t.postselected) == list(t.raw)
    for xs, ps in t.postselected.items():
        expected = np.zeros(raw[xs].shape)
        expected[(slice(-1),) * len(dims)] = ps
        assert np.max(np.abs(raw[xs] - expected)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(labelled=relabelled_scenario(), integral=st.booleans())
def test_local_bound_is_the_brute_force_over_product_strategies(labelled, integral):
    """Random 2-3 party functionals, keys dropped at random (incomplete ones too), ties when ``integral``."""
    devices, rng = labelled
    settings_tuples = itertools.product(*(d.settings for d in devices))
    keys = list(itertools.product(settings_tuples, itertools.product(*(d.outcomes for d in devices))))
    kept = [key for key, keep in zip(keys, rng.random(len(keys)) < rng.uniform(0.3, 1.0)) if keep]
    weights = rng.integers(-2, 3, len(kept)).astype(float) if integral else rng.normal(size=len(kept))
    sc = BellScenario(devices, np.eye(1), dict(zip(kept, weights.tolist())))
    expected = helpers.oracle_local_bound(sc)
    if integral:
        assert sc._functional.local_bound() == expected
    else:
        assert sc._functional.local_bound() == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.sampled_from([0, 1, 2, 3, 4]), min_size=2, max_size=2))
def test_strong_fair_sampling_keeps_chsh_within_tsirelson(seed, dims):
    """Flat losses post-select the lossless statistics: |S_post| <= 2 sqrt 2 on any state.

    A dimension of 0 draws a projective qubit device at random angles with one flat efficiency;
    any other a random device with click elements proportional to the identity.
    """
    rng = np.random.default_rng(seed)
    devices = [
        projective_qubit_device(dict(zip("01", rng.uniform(-np.pi, np.pi, 2))), float(rng.uniform(0.05, 1.0)))
        if d == 0
        else random_fair_sampling_device(d, 2, 2, rng, mq=np.eye(d))
        for d in dims
    ]
    psi = random_density(int(np.prod([dev.dim for dev in devices])), rng)
    sc = BellScenario(devices, psi, chsh_coefficients(devices))
    assert abs(ScenarioAnalysis(sc).bell_value_postselected) <= 2.0 * np.sqrt(2.0) + COMPLETENESS_TOL


@pytest.mark.parametrize("efficiency", [0.05, 0.25, 1.0])
def test_singlet_at_the_tsirelson_angles_reaches_tsirelson(efficiency):
    value = ScenarioAnalysis(chsh_singlet_scenario(efficiency)).bell_value_postselected
    assert abs(value) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


#: The CLI's CHSH table: weights in ``itertools.product("01", "01", "+-", "+-")`` key order.
CLI_CHSH_WEIGHTS = [1.0, -1.0, -1.0, 1.0] * 3 + [-1.0, 1.0, 1.0, -1.0]


def test_chsh_coefficients_of_the_singlet_scenario_are_the_cli_table():
    sc = chsh_singlet_scenario()
    coeffs = chsh_coefficients(sc.devices)
    assert list(coeffs) == [((x, y), (a, b)) for x, y, a, b in itertools.product("01", "01", "+-", "+-")]
    assert list(coeffs.values()) == CLI_CHSH_WEIGHTS
    assert list(sc.bell_coeffs.items()) == list(coeffs.items())


def uniform_device(settings, outcomes):
    """A dimension-1 device with these labels; every outcome has the same probability."""
    return LossyDevice(1, settings, outcomes, np.full((len(settings), len(outcomes), 1, 1), 1.0 / len(outcomes)))


#: Any label a device takes that holds no joint-label separator.
ANY_LABEL = st.text(max_size=4).filter(lambda label: "," not in label and label != NOCLICK)


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.lists(ANY_LABEL, min_size=2, max_size=2, unique=True), min_size=4, max_size=4))
def test_chsh_coefficients_are_the_cli_table_under_the_devices_labels(labels):
    """The labels, read in device order, replace "0"/"1" and "+"/"-" position by position."""
    settings_a, settings_b, outcomes_a, outcomes_b = labels
    devices = [uniform_device(settings_a, outcomes_a), uniform_device(settings_b, outcomes_b)]
    coeffs = chsh_coefficients(devices)
    cli = chsh_coefficients(chsh_singlet_scenario().devices)
    x_a, x_b = dict(zip("01", settings_a)), dict(zip("01", settings_b))
    o_a, o_b = dict(zip("+-", outcomes_a)), dict(zip("+-", outcomes_b))
    image = [(((x_a[x], x_b[y]), (o_a[a], o_b[b])), c) for ((x, y), (a, b)), c in cli.items()]
    assert list(coeffs.items()) == image
    analysis = ScenarioAnalysis(BellScenario(devices, np.eye(1), coeffs))
    assert (analysis.beta_max, analysis.local_bound) == (4.0, 2.0)


@pytest.mark.parametrize(
    "party, settings_, outcomes, message",
    [
        (0, ["0"], ["+", "-"], "party 0 has 1 settings and 2 outcomes"),
        (1, ["0", "1", "2"], ["+", "-"], "party 1 has 3 settings and 2 outcomes"),
        (1, ["0", "1"], ["+", "-", "?"], "party 1 has 2 settings and 3 outcomes"),
    ],
)
def test_chsh_coefficients_name_a_party_without_two_settings_and_two_outcomes(party, settings_, outcomes, message):
    devices = [uniform_device(["0", "1"], ["+", "-"])] * 2
    devices[party] = uniform_device(settings_, outcomes)
    with pytest.raises(ValueError, match=f"^{message}; CHSH needs 2 of each$"):
        chsh_coefficients(devices)


@pytest.mark.parametrize("parties", [1, 3])
def test_chsh_coefficients_need_two_parties(parties):
    with pytest.raises(ValueError, match=f"^CHSH needs two parties, got {parties}$"):
        chsh_coefficients([uniform_device(["0", "1"], ["+", "-"])] * parties)


def analyser_chsh_analysis(eta, delta, jitter=(0.0, 0.0, 0.0, 0.0), noise=0.0):
    """``bound``'s analysis of a singlet mixed with ``noise`` of white noise, seen by single-photon analysers.

    The angles are (pi/4, 0) and (pi/8, 3 pi/8) plus ``jitter``, so CHSH's minus sign falls on (0, 3 pi/8);
    the references are the verdicts' own.
    """
    from fairsamp.optics import single_photon_analyser

    angles = np.array([np.pi / 4.0, 0.0, np.pi / 8.0, 3.0 * np.pi / 8.0]) + jitter
    devices = [single_photon_analyser(eta, delta, angles[:2]), single_photon_analyser(eta, delta, angles[2:])]
    psi = (1.0 - noise) * singlet_state() + noise * np.eye(4) / 4.0
    sc = BellScenario(devices, psi, chsh_coefficients(devices))
    return ScenarioAnalysis(sc, [check_exact(dev).reference for dev in devices])


def lowest_partial_transpose_eigenvalue(analysis):
    psi = ideal_scenario(analysis.scenario, analysis.references).psi
    return float(np.linalg.eigvalsh(helpers.partial_transpose(psi, (2, 2)))[0])


@pytest.mark.parametrize("eta, delta, margin", [(0.8, 0.05, 0.6873), (0.8, 0.2, 0.2680)])
def test_positive_margins_of_mismatched_analysers_come_with_an_npt_filtered_state(eta, delta, margin):
    analysis = analyser_chsh_analysis(eta, delta)
    assert analysis.certified_margin == pytest.approx(margin, abs=5e-5)
    assert lowest_partial_transpose_eigenvalue(analysis) == pytest.approx(-0.5, abs=1e-3)


@settings(max_examples=40, deadline=None)
@example(eta=0.8, delta=0.2, jitter=(0.0, 0.0, 0.0, 0.0), noise=0.0)
@given(
    eta=st.floats(0.5, 1.0),
    delta=st.floats(0.0, 0.3),
    jitter=st.tuples(*[st.floats(-0.3, 0.3)] * 4),
    noise=st.floats(0.0, 0.4),
)
def test_a_positive_margin_certifies_an_npt_filtered_state(eta, delta, jitter, noise):
    """On two qubits a positive certified margin implies a negative partial-transpose eigenvalue (not conversely)."""
    analysis = analyser_chsh_analysis(eta, delta, jitter, noise)
    if analysis.certified_margin > 0.0:
        assert lowest_partial_transpose_eigenvalue(analysis) < 0.0
