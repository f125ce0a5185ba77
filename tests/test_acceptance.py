"""Acceptance suite: one test per headline criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; the whole suite is exact-probability based and finishes in
well under two minutes.
"""

import itertools
from contextlib import contextmanager

import numpy as np

import helpers
from fairsamp.adversary import makarov_branches, makarov_traced, run_faked_chsh
from fairsamp.analysis import (
    approximate_epsilon,
    check_exact,
    default_mq,
    filtered_state,
    ideal_device_from,
    imperfect_state_bound,
    tv_bound,
)
from fairsamp.bell import (
    BellScenario,
    bell_value,
    beta_max,
    chsh_singlet_scenario,
    deviation_bound,
    epsilon_total,
    ideal_scenario,
    postselected_bell_value,
    verify_postselection_equivalence,
)
from fairsamp.device import LossyDevice, total_variation
from fairsamp.filters import canonical_decomposition, verify_recomposition
from fairsamp.linalg import expect
from fairsamp.optics import (
    AnalyserSpec,
    TwoModeFock,
    analyser_device,
    analyser_epsilon_closed_form,
    analyser_mq,
    single_photon_analyser,
)
from fairsamp.sampling import random_density, random_fair_sampling_device


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_1_traced_device_verdict_and_efficiency():
    with criterion(1, "hidden-variable device looks fair with flat efficiency 1/4"):
        dev = makarov_traced()
        verdict = check_exact(dev)
        assert verdict.weak and verdict.strong and verdict.homogeneous
        rng = np.random.default_rng(101)
        for _ in range(20):
            rho = random_density(2, rng)
            for x in dev.settings:
                assert abs(dev.efficiency(x, rho) - 0.25) <= 1e-12


def test_criterion_2_faked_chsh_saturates_algebraic_bound():
    with criterion(2, "faked CHSH reaches 4 at coincidence rate 1/32"):
        result = run_faked_chsh(noise=0.0)
        assert abs(result.chsh - 4.0) <= 1e-12
        assert abs(result.detection_rate - 1.0 / 32.0) <= 1e-12
        assert not check_exact(makarov_branches().adversary_device()).weak


def test_criterion_3_postselection_equals_ideal_experiment():
    with criterion(3, "post-selected = ideal filtered statistics on 100 random scenarios"):
        rng = np.random.default_rng(303)
        worst = 0.0
        for case in range(100):
            n_parties = 1 + case % 3
            dims = [int(rng.integers(2, 5)) for _ in range(n_parties)]
            devices = [
                random_fair_sampling_device(
                    d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng
                )
                for d in dims
            ]
            sc = BellScenario(devices, random_density(int(np.prod(dims)), rng))
            worst = max(worst, verify_postselection_equivalence(sc, tol=1e-9))
        assert worst <= 1e-9


def test_criterion_4_strong_fair_sampling_preserves_tsirelson():
    with criterion(4, "quarter-efficiency detectors keep the singlet CHSH at 2*sqrt(2)"):
        value = postselected_bell_value(chsh_singlet_scenario())
        assert abs(value - 2.0 * np.sqrt(2.0)) <= 1e-9


def test_criterion_5_analyser_epsilon_matches_closed_form():
    with criterion(5, "analyser deviation equals (1-eta)*delta/eta on the grid"):
        angles = (0.0, np.pi / 4.0)
        for eta in (0.5, 0.8, 0.95):
            for delta in (0.01, 0.1):
                expected = analyser_epsilon_closed_form(eta, delta)
                single = single_photon_analyser(eta, delta, angles)
                assert abs(approximate_epsilon(single, np.eye(2)) - expected) <= 1e-9
                eta1 = 1.0 - (1.0 - eta) * (1.0 + delta)
                multi = analyser_device(AnalyserSpec(eta1=eta1, eta2=eta, angles=angles, n_max=4))
                assert abs(approximate_epsilon(multi, analyser_mq(eta, 4)) - expected) <= 1e-9
            equal_single = single_photon_analyser(eta, 0.0, angles)
            assert approximate_epsilon(equal_single, np.eye(2)) <= 1e-12
            equal_multi = analyser_device(AnalyserSpec(eta1=eta, eta2=eta, angles=angles, n_max=4))
            assert approximate_epsilon(equal_multi, analyser_mq(eta, 4)) <= 1e-12


def test_criterion_6_tv_bound_for_near_fair_devices():
    with criterion(6, "measured TV <= eps/(1-eps) on 200 perturbed devices"):
        rng = np.random.default_rng(606)
        devices_checked = 0
        while devices_checked < 200:
            dim = int(rng.integers(2, 5))
            dev = helpers.perturbed_fair_device(
                rng, dim=dim, n_settings=2, n_outcomes=2, magnitude=float(rng.uniform(0.01, 0.1))
            )
            mq = default_mq(dev)
            eps = approximate_epsilon(dev, mq)
            if eps > 0.3:
                continue
            ideal = ideal_device_from(dev, mq)
            bound = tv_bound(eps)
            states_checked = 0
            while states_checked < 3:
                rho = random_density(dim, rng)
                if min(dev.efficiency(x, rho) for x in dev.settings) < 0.01:
                    continue
                rho_click, _ = filtered_state(mq, rho)
                for x in dev.settings:
                    ps = dev.postselected_distribution(x, rho)
                    ideal_dist = {a: expect(ideal.element(x, a), rho_click) for a in dev.outcomes}
                    assert total_variation(ps, ideal_dist) <= bound
                states_checked += 1
            devices_checked += 1


def test_criterion_7_composition_and_bell_deviation_bound():
    with criterion(7, "composed deviation formula and Bell deviation bound"):
        rng = np.random.default_rng(707)
        for _ in range(50):
            eps = [float(e) for e in rng.uniform(0.0, 0.5, size=int(rng.integers(1, 5)))]
            direct = 1.0 - float(np.prod([1.0 - e for e in eps]))
            assert abs(epsilon_total(eps) - direct) <= 1e-12

        for case in range(10):
            dims = [2, 2]
            devices = [
                helpers.perturbed_fair_device(rng, dim=2, n_settings=2, n_outcomes=2, magnitude=0.05)
                for _ in dims
            ]
            sc = BellScenario(devices, random_density(4, rng))
            coeffs = {}
            for xs in sc.setting_tuples():
                for outs in itertools.product(*(d.outcomes for d in devices)):
                    coeffs[(xs, outs)] = float(rng.uniform(-1.0, 1.0))
            # independent oracle: brute-force enumeration of deterministic strategies
            setting_tuples = list(sc.setting_tuples())
            outcome_tuples = list(itertools.product(*(d.outcomes for d in devices)))
            brute = 0.0
            for assignment in itertools.product(outcome_tuples, repeat=len(setting_tuples)):
                total = sum(coeffs[(xs, outs)] for xs, outs in zip(setting_tuples, assignment))
                brute = max(brute, abs(total))
            beta = beta_max(coeffs)
            assert abs(beta - brute) <= 1e-12

            mqs = [default_mq(dev) for dev in devices]
            eps = [approximate_epsilon(dev, mq) for dev, mq in zip(devices, mqs)]
            eps_tot = epsilon_total(eps)
            ideal = ideal_scenario(sc, mqs)
            ps = {xs: sc.joint_postselected(xs) for xs in setting_tuples}
            ideal_dists = {xs: ideal.joint_raw(xs) for xs in setting_tuples}
            measured = abs(bell_value(ps, coeffs) - bell_value(ideal_dists, coeffs))
            assert measured <= deviation_bound(eps_tot, beta) + 1e-9


def test_criterion_8_imperfect_state_bounds():
    with criterion(8, "coherence lemma and post-selection bound for imperfect states"):
        rng = np.random.default_rng(808)
        checked = 0
        for eps_prime in (0.01, 0.05, 0.1):
            for _ in range(34):
                good = int(rng.integers(2, 4))
                bad = int(rng.integers(1, 4))
                rho_hat = helpers.block_structured_state(rng, good, bad, eps_prime)
                dev = helpers.random_lossy_device(good + bad, rng)
                report = imperfect_state_bound(dev, rho_hat, good_dim=good, x="x")
                assert report.coherence_trace_norm <= np.sqrt(eps_prime * (1.0 - eps_prime)) + 1e-10
                assert report.tv_measured <= report.tv_bound
                checked += 1
        assert checked >= 100


def test_criterion_9_filtered_states_exclude_vacuum():
    with criterion(9, "filtered states carry no vacuum weight"):
        rng = np.random.default_rng(909)
        n_max = 3
        fock = TwoModeFock(n_max)
        mq = analyser_mq(0.8, n_max)
        for _ in range(20):
            rho = random_density(fock.dim, rng)
            out, _ = filtered_state(mq, rho)
            assert abs(out[0, 0]) <= 1e-12


def test_criterion_10_recomposition_over_the_corpus():
    with criterion(10, "canonical decomposition reproduces every corpus device"):
        rng = np.random.default_rng(1010)
        corpus: list[LossyDevice] = [makarov_traced()]
        corpus.extend(makarov_branches().branches.values())
        corpus.append(makarov_branches().adversary_device())
        corpus.append(single_photon_analyser(0.8, 0.05, (0.0, np.pi / 4.0)))
        corpus.append(analyser_device(AnalyserSpec(eta1=0.8, eta2=0.8, angles=(0.0, 1.0), n_max=3)))
        corpus.append(
            analyser_device(AnalyserSpec(eta1=0.79, eta2=0.8, angles=(0.0, np.pi / 4.0), n_max=4))
        )
        corpus.append(random_fair_sampling_device(3, 2, 3, rng))
        corpus.append(helpers.perturbed_fair_device(rng, dim=4, magnitude=0.08))
        for dev in corpus:
            decomp = canonical_decomposition(dev)
            assert verify_recomposition(dev, decomp, trials=100, seed=42) <= 1e-9
