"""Truncated Fock space, polarization analysers and the closed-form deviation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairsamp.analysis import approximate_epsilon, check_exact, filtered_state
from fairsamp.device import NOCLICK
from fairsamp.linalg import MAX_DIM, operator_norm
from fairsamp.optics import (
    AnalyserSpec,
    TwoModeFock,
    analyser_device,
    analyser_epsilon_closed_form,
    analyser_mq,
    sector_deviation_profile,
    single_photon_analyser,
)
from fairsamp.optics import _setting_label
from fairsamp.sampling import random_density


def spec_for(eta, delta, angles=(0.0, np.pi / 4.0), n_max=4, **kw):
    eta1 = 1.0 - (1.0 - eta) * (1.0 + delta)
    return AnalyserSpec(eta1=eta1, eta2=eta, angles=angles, n_max=n_max, **kw)


class TestTwoModeFock:
    def test_dimension_formula(self):
        for n_max in (1, 2, 3, 5):
            fock = TwoModeFock(n_max)
            assert fock.dim == (n_max + 1) * (n_max + 2) // 2

    def test_basis_ordering(self):
        fock = TwoModeFock(2)
        assert fock.basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert fock.basis[0] == (0, 0)  # vacuum first

    def test_rotation_sectors_are_unitary(self):
        fock = TwoModeFock(4)
        for theta in (0.0, 0.3, np.pi / 4.0, 2.0):
            for n in range(5):
                u = fock.rotation_sector(theta, n)
                np.testing.assert_allclose(u @ u.T, np.eye(n + 1), atol=1e-12)

    def test_number_operator_spectrum(self):
        fock = TwoModeFock(3)
        n_op = fock.number_operator(0.7)
        w = np.linalg.eigvalsh(n_op)
        assert np.allclose(np.round(w), w, atol=1e-10)
        total = fock.number_operator(0.7) + fock.number_operator(0.7 + np.pi / 2.0)
        np.testing.assert_allclose(total, np.diag(fock.total_numbers().astype(complex)), atol=1e-10)

    def test_ket_normalization(self):
        fock = TwoModeFock(3)
        for args in ((1, 0, 0.4), (2, 1, 1.2), (0, 3, 0.0)):
            v = fock.ket(*args)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_rejected(self):
        with pytest.raises(ValueError, match="exceeds the truncation"):
            TwoModeFock(2).ket(2, 1)

    def test_photon_cap_must_be_an_integer(self):
        for n_max in (1.5, 2.0, np.float64(2.0)):
            with pytest.raises(TypeError):
                TwoModeFock(n_max)
            with pytest.raises(TypeError):
                AnalyserSpec(eta1=0.8, eta2=0.9, angles=(0.0,), n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            AnalyserSpec(eta1=0.8, eta2=0.9, angles=(0.0,), n_max=np.int64(0))
        assert TwoModeFock(np.int64(2)).dim == 6
        assert AnalyserSpec(eta1=0.8, eta2=0.9, angles=(0.0,), n_max=np.int32(2)).n_max == 2


    def test_photon_cap_keeps_the_dimension_within_max_dim(self):
        assert TwoModeFock(89).dim == 4095 <= MAX_DIM
        message = f"n_max 90 gives dimension 4186, above the cap {MAX_DIM}"
        with pytest.raises(ValueError, match=message):
            TwoModeFock(90)
        with pytest.raises(ValueError, match=message):
            AnalyserSpec(eta1=0.8, eta2=0.9, angles=(0.0,), n_max=90)


class TestAnalyserDevice:
    def test_vacuum_never_clicks(self):
        dev = analyser_device(spec_for(0.8, 0.1, n_max=3))
        fock = TwoModeFock(3)
        vac = np.zeros((fock.dim, fock.dim), dtype=complex)
        vac[0, 0] = 1.0
        for x in dev.settings:
            dist = dev.outcome_distribution(x, vac)
            assert dist[NOCLICK] == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_input(self):
        eta = 0.75
        theta = 0.6
        dev = analyser_device(spec_for(eta, 0.0, angles=(theta,), n_max=2))
        fock = TwoModeFock(2)
        ket = fock.ket(1, 0, theta)
        dist = dev.outcome_distribution(dev.settings[0], np.outer(ket, ket.conj()))
        assert dist["D1"] == pytest.approx(eta, abs=1e-12)
        assert dist["D2"] == pytest.approx(0.0, abs=1e-12)
        assert dist["both"] == pytest.approx(0.0, abs=1e-12)
        assert dist[NOCLICK] == pytest.approx(1.0 - eta, abs=1e-12)

    def test_equal_efficiency_is_fair_and_homogeneous(self):
        for n_max in (1, 2, 3):
            dev = analyser_device(spec_for(0.8, 0.0, n_max=n_max))
            verdict = check_exact(dev)
            assert verdict.weak and verdict.homogeneous
            mq = analyser_mq(0.8, n_max)
            np.testing.assert_allclose(
                verdict.quantum_elem, mq / operator_norm(mq), atol=1e-10
            )

    def test_lossless_detectors_click_on_any_photon(self):
        dev = analyser_device(AnalyserSpec(eta1=1.0, eta2=1.0, angles=(0.3,), n_max=3))
        click = dev.click_element(dev.settings[0])
        fock = TwoModeFock(3)
        expected = np.eye(fock.dim, dtype=complex)
        expected[0, 0] = 0.0
        np.testing.assert_allclose(click, expected, atol=1e-12)

    def test_fold_both_gives_two_outcomes(self):
        spec = spec_for(0.8, 0.05, n_max=2, fold_both=True)
        dev = analyser_device(spec)
        assert dev.outcomes == ("D1", "D2")
        unfolded = analyser_device(spec_for(0.8, 0.05, n_max=2))
        x = dev.settings[0]
        np.testing.assert_allclose(
            dev.element(x, "D1"),
            unfolded.element(x, "D1") + unfolded.element(x, "both"),
            atol=1e-12,
        )
        np.testing.assert_allclose(dev.click_element(x), unfolded.click_element(x), atol=1e-12)

    def test_efficiency_normalization_swaps(self):
        spec = AnalyserSpec(eta1=0.9, eta2=0.6, angles=np.linspace(0.0, np.pi / 2.0, 3), n_max=2)
        assert spec.eta1 == 0.6 and spec.eta2 == 0.9
        assert spec.delta == pytest.approx(0.4 / 0.1 - 1.0, abs=1e-12)
        assert spec.angles == (0.0, np.pi / 4.0, np.pi / 2.0)
        with pytest.raises(ValueError, match="at least one angle"):
            AnalyserSpec(eta1=0.9, eta2=0.6, angles=np.array([]), n_max=2)


class TestSinglePhotonAnalyser:
    def test_equal_detectors_strong_fair(self):
        verdict = check_exact(single_photon_analyser(0.8, 0.0, [0.0, 0.8]))
        assert verdict.strong and verdict.homogeneous
        assert all(v == pytest.approx(0.8, abs=1e-12) for v in verdict.classical_eff.values())

    def test_click_norm_is_eta(self):
        dev = single_photon_analyser(0.8, 0.05, [0.0, np.pi / 4.0, 1.3])
        for x in dev.settings:
            assert operator_norm(dev.click_element(x)) == pytest.approx(0.8, abs=1e-12)

    def test_epsilon_against_identity(self):
        dev = single_photon_analyser(0.8, 0.05, [0.0, np.pi / 4.0])
        assert approximate_epsilon(dev, np.eye(2)) == pytest.approx(0.0125, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="negative click"):
            single_photon_analyser(0.3, 5.0, [0.0])


class TestClosedForm:
    @pytest.mark.parametrize(
        "eta,delta,expected",
        [(1.0, 0.7, 0.0), (0.8, 0.05, 0.0125), (0.5, 0.1, 0.1)],
    )
    def test_values(self, eta, delta, expected):
        assert analyser_epsilon_closed_form(eta, delta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "eta,delta,closed,default",
        [(0.8, 0.05, 0.0125, 0.008855131835), (0.8, 0.2, 0.05, 0.035621883366), (0.5, 0.1, 0.1, 0.071809564345)],
    )
    def test_closed_form_reads_the_identity_not_the_default_reference(self, eta, delta, closed, default):
        """``bound`` without ``--mq`` reads the verdict's, uniform-average, reference: about 0.71 of the closed form."""
        dev = single_photon_analyser(eta, delta, (0.0, np.pi / 4.0))
        against_identity, verdict = approximate_epsilon(dev, np.eye(2)), check_exact(dev)
        assert analyser_epsilon_closed_form(eta, delta) == pytest.approx(closed, abs=1e-12)
        assert against_identity == pytest.approx(closed, abs=1e-12)
        assert not verdict.weak and verdict.epsilon == pytest.approx(default, abs=1e-12)
        assert 0.70 < verdict.epsilon / against_identity < 0.72

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError):
            analyser_epsilon_closed_form(0.0, 0.1)

    @pytest.mark.parametrize(
        "eta,delta,message",
        [
            (1.5, 0.1, r"eta must lie in \(0, 1\]"),
            (float("nan"), 0.1, r"eta must lie in \(0, 1\]"),
            (0.8, -0.1, "delta must be nonnegative"),
            (0.8, float("nan"), "delta must be nonnegative"),
        ],
    )
    def test_out_of_range_or_nan_rejected(self, eta, delta, message):
        with pytest.raises(ValueError, match=message):
            analyser_epsilon_closed_form(eta, delta)
        with pytest.raises(ValueError, match=message):
            single_photon_analyser(eta, delta, [0.0])

    def test_grid_against_numerics(self):
        for eta in (0.5, 0.8, 0.95):
            for delta in (0.0, 0.01, 0.1):
                expected = analyser_epsilon_closed_form(eta, delta)
                single = single_photon_analyser(eta, delta, [0.0, np.pi / 4.0])
                assert approximate_epsilon(single, np.eye(2)) == pytest.approx(expected, abs=1e-9)
                multi = analyser_device(spec_for(eta, delta, n_max=3))
                eps = approximate_epsilon(multi, analyser_mq(eta, 3))
                assert eps == pytest.approx(expected, abs=1e-9)

    def test_sector_profile_peaks_at_one_photon(self):
        for eta, delta in ((0.5, 0.1), (0.8, 0.05), (0.95, 0.01)):
            profile = sector_deviation_profile(spec_for(eta, delta, n_max=5))
            assert profile[1] == pytest.approx(max(profile.values()), abs=1e-12)
            assert profile[1] == pytest.approx(analyser_epsilon_closed_form(eta, delta), abs=1e-10)


class TestAnalyserMq:
    def test_diagonal_entries(self):
        mq = analyser_mq(0.8, 2)
        fock = TwoModeFock(2)
        diag = np.real(np.diag(mq))
        assert diag[fock.basis.index((0, 0))] == pytest.approx(0.0, abs=1e-15)
        assert diag[fock.basis.index((1, 0))] == pytest.approx(0.8, abs=1e-15)
        assert diag[fock.basis.index((0, 2))] == pytest.approx(0.96, abs=1e-15)

    def test_filtered_states_have_no_vacuum(self, rng):
        n_max = 3
        mq = analyser_mq(0.8, n_max)
        fock = TwoModeFock(n_max)
        for _ in range(10):
            rho = random_density(fock.dim, rng)
            out, _ = filtered_state(mq, rho)
            assert abs(out[0, 0]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    eta1=st.floats(0.05, 1.0),
    eta2=st.floats(0.05, 1.0),
    angles=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=3, unique_by=_setting_label),
    n_max=st.integers(1, 4),
    fold_both=st.booleans(),
)
def test_analyser_device_equals_one_rotation_set_per_outcome(eta1, eta2, angles, n_max, fold_both):
    """Sharing each rotation among the outcome blocks changes no bit of the device."""
    spec = AnalyserSpec(eta1=eta1, eta2=eta2, angles=angles, n_max=n_max, fold_both=fold_both)
    shared, separate = analyser_device(spec), helpers.oracle_analyser_device(spec)
    assert (shared.settings, shared.outcomes) == (separate.settings, separate.outcomes)
    assert np.array_equal(shared.stack, separate.stack)



class TestSharedSettingLabels:
    """Two angles with one setting label (12 significant digits) raise instead of collapsing into one setting."""

    @pytest.mark.parametrize(
        "angles,message",
        [
            ([0.0, 0.0, 1e-13], "angles 0.0 and 0.0 share the setting label '0'"),
            ([0.1, 0.2, 0.1 + 1e-15], "angles 0.1 and 0.100000000000001 share the setting label '0.1'"),
        ],
    )
    def test_single_photon_analyser(self, angles, message):
        with pytest.raises(ValueError) as raised:
            single_photon_analyser(0.8, 0.1, angles)
        assert str(raised.value) == message

    @pytest.mark.parametrize("fold_both", [False, True])
    def test_analyser_device(self, fold_both):
        with pytest.raises(ValueError, match=r"^angles 0.3 and 0.3 share the setting label '0.3'$"):
            analyser_device(AnalyserSpec(0.7, 0.8, (0.3, 0.3), 1, fold_both=fold_both))

    def test_distinct_labels_keep_every_angle(self):
        assert single_photon_analyser(0.8, 0.1, [0.0, 1e-13]).settings == ("0", "1e-13")
        assert analyser_device(AnalyserSpec(0.7, 0.8, (0.3, 0.3 + 1e-11), 1)).settings == ("0.3", "0.30000000001")
