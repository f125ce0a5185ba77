"""Spectral primitives: support projectors, square roots, norms, tensor algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from fairsamp.linalg import (
    PSD_TOL,
    SCREEN_FROM_DIM,
    NotHermitianError,
    NotPositiveError,
    as_operator,
    assert_density,
    assert_hermitian,
    eigh_psd,
    expect,
    norms_exceed,
    operator_norm,
    operator_norms,
    partial_trace,
    projector,
    psd_faults,
    sqrt_pinv_sqrt,
    support_projector,
    tensor,
    trace_norm,
)


def random_psd(dim, rng, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g @ g.conj().T)


def random_unitary(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


class TestAssertDensity:
    """The checks of ``eigh_psd`` and the unit trace, read from eigenvalues alone."""

    @pytest.mark.parametrize(
        "rho,error,message",
        [
            ([[0.5, 0.1], [0.0, 0.5]], NotHermitianError, "state deviates from Hermiticity by 1.000e-01 (tol 1.0e-10)"),
            (np.diag([1.1, -0.1]), NotPositiveError, "state has negative eigenvalue -1.000e-01 (tol 1.0e-10)"),
            (np.diag([0.5, 0.6]), ValueError, "state has trace 1.1, expected 1"),
        ],
        ids=["not-hermitian", "negative", "trace"],
    )
    def test_rejects(self, rho, error, message):
        with pytest.raises(error) as raised:
            assert_density(rho)
        assert str(raised.value) == message

    def test_accepts_drift_within_tolerance(self):
        rho = np.diag([1.0 + 5e-11, -5e-11])
        np.testing.assert_array_equal(assert_density(rho), rho)


class TestNonFinite:
    """A matrix with a NaN or infinite entry is rejected by name before any eigensolver sees it."""

    @pytest.mark.parametrize("check", [assert_hermitian, eigh_psd, assert_density])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_single_matrix_checks_reject(self, check, value):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[1, 1] = value
        with pytest.raises(ValueError, match=r"^rho has a non-finite entry$"):
            check(m, name="rho")

    def test_overflowing_deviation_of_a_finite_matrix_stays_a_hermiticity_fault(self):
        with pytest.raises(NotHermitianError, match="deviates from Hermiticity by inf"):
            assert_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @pytest.mark.parametrize("d", [2, SCREEN_FROM_DIM + 1])
    def test_psd_faults_reads_nan_for_the_matrix_and_spectra_for_the_rest(self, d):
        rng = np.random.default_rng(3)
        stack = np.array([random_psd(d, rng, 1.0 / d) for _ in range(3)])
        stack[1, 0, d - 1] = np.inf
        herm, lowest = psd_faults(stack)
        assert np.isnan(herm[1]) and np.isnan(lowest[1])
        finite = [0, 2]
        oracle_herm, oracle_lowest = helpers.eigvalsh_psd_faults(stack[finite])
        np.testing.assert_array_equal(herm[finite], oracle_herm)
        assert np.all(lowest[finite] > -PSD_TOL) and np.all(oracle_lowest > -PSD_TOL)


class TestSupportProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projector(np.diag([0.0, 2.0])), np.diag([0.0, 1.0]), atol=1e-12)

    def test_full_support(self):
        np.testing.assert_allclose(support_projector(np.eye(3)), np.eye(3), atol=1e-12)

    def test_rank_one(self):
        unnormalized = np.array([1.0, 1.0])
        h = 0.5 * np.outer(unnormalized, unnormalized)  # eigenvalues {1, 0}
        p = projector(unnormalized / np.sqrt(2.0))
        np.testing.assert_allclose(support_projector(h), p, atol=1e-12)

    def test_idempotent(self, rng):
        h = random_psd(5, rng)
        pi = support_projector(h)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)
        np.testing.assert_allclose(pi @ h @ pi, h, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            support_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            support_projector(np.diag([-1e-3, 1.0]))


class TestSqrtPinvSqrt:
    def test_diagonal(self):
        sq, pinv = sqrt_pinv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(sq, np.diag([2.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(pinv, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_zero_eigenvalue_maps_to_zero(self):
        sq, pinv = sqrt_pinv_sqrt(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(sq, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(pinv, np.diag([0.0, 1.0]), atol=1e-12)

    def test_scaled_projector(self):
        p = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        sq, pinv = sqrt_pinv_sqrt(0.5 * p)
        np.testing.assert_allclose(sq, p / np.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(pinv, p * np.sqrt(2.0), atol=1e-12)

    def test_small_negative_drift_is_clamped(self):
        sq, _ = sqrt_pinv_sqrt(np.diag([-1e-12, 1.0]))
        np.testing.assert_allclose(sq, np.diag([0.0, 1.0]), atol=1e-12)

    def test_large_negative_raises(self):
        with pytest.raises(NotPositiveError):
            sqrt_pinv_sqrt(np.diag([-1e-3, 1.0]))


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)

    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([1.0, -3.0])) == pytest.approx(4.0, abs=1e-12)

    def test_projector_norm_one(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = projector(v / np.linalg.norm(v))
        assert operator_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_rectangular(self):
        block = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert trace_norm(block) == pytest.approx(3.0, abs=1e-12)

    def test_submultiplicative(self, rng):
        a = random_psd(4, rng)
        b = random_psd(4, rng)
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestExpect:
    def test_matches_trace_of_product_for_non_hermitian_op(self, rng):
        for dim in (1, 3, 8):
            op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = random_psd(dim, rng)
            rho /= np.trace(rho).real
            assert expect(op, rho) == pytest.approx(np.trace(op @ rho).real, abs=1e-12)


class TestTensorPartialTrace:
    def test_tensor_identities(self):
        np.testing.assert_allclose(tensor([np.eye(2), np.eye(3)]), np.eye(6), atol=0)

    def test_tensor_diag(self):
        np.testing.assert_allclose(
            tensor([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.diag([0.0, 1.0, 0.0, 0.0]), atol=0
        )

    def test_tensor_sigma_z(self):
        sz = np.diag([1.0, -1.0])
        np.testing.assert_allclose(tensor([sz, sz]), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)

    def test_tensor_empty_raises(self):
        with pytest.raises(ValueError):
            tensor([])

    def test_singlet_marginals(self):
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        singlet = projector(v)
        for keep in ([0], [1]):
            np.testing.assert_allclose(
                partial_trace(singlet, [2, 2], keep), np.eye(2) / 2.0, atol=1e-12
            )

    def test_product_state(self, rng):
        rho = random_psd(2, rng)
        rho /= np.trace(rho).real
        sigma = random_psd(3, rng)
        np.testing.assert_allclose(
            partial_trace(tensor([rho, sigma]), [2, 3], [0]), rho * np.trace(sigma).real, atol=1e-10
        )

    def test_identity_partial_trace(self):
        np.testing.assert_allclose(partial_trace(np.eye(4), [2, 2], [0]), 2.0 * np.eye(2), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], [0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
def test_sqrt_reconstructs(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_psd(dim, rng)
    sq, _ = sqrt_pinv_sqrt(h)
    assert np.max(np.abs(sq @ sq - h)) <= 1e-8 * max(1.0, operator_norm(h))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), rank=st.integers(1, 16))
def test_pinv_recovers_support(seed, dim, rank):
    rng = np.random.default_rng(seed)
    r = min(rank, dim)
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    h = g @ g.conj().T
    _, pinv = sqrt_pinv_sqrt(h)
    assert np.max(np.abs(pinv @ h @ pinv - support_projector(h))) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d1=st.integers(2, 4), d2=st.integers(2, 4))
def test_tensor_partial_trace_roundtrip(seed, d1, d2):
    rng = np.random.default_rng(seed)
    a = random_psd(d1, rng)
    b = random_psd(d2, rng)
    back = partial_trace(tensor([a, b]), [d1, d2], [0])
    assert np.max(np.abs(back - a * np.trace(b).real)) <= 1e-10 * max(1.0, operator_norm(a) * np.trace(b).real)


def test_dimension_cap():
    with pytest.raises(ValueError):
        as_operator(np.eye(5000))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    d=st.integers(1, 5),
    zeros=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_operator_norms_equal_numpy_spectral_norms(seed, k, d, zeros):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    stack[np.array(zeros[:k])] = 0.0
    assert np.array_equal(operator_norms(stack), np.linalg.norm(stack, 2, axis=(1, 2)))


class TestPsdScreen:
    """Above the size gate a Cholesky screen may stand in for ``eigvalsh``; it decides as ``eigvalsh`` does."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 5, SCREEN_FROM_DIM, 12, 24]),
        k=st.integers(1, 4),
        plants=st.lists(st.one_of(st.just(0.0), st.sampled_from(helpers.PLANTED_LOWEST)), min_size=4, max_size=4),
        scale=st.sampled_from([1e-2, 1.0, 1e3]),
    )
    def test_decides_as_eigvalsh(self, seed, d, k, plants, scale):
        """Scale 1e3 leaves the rounding bound too wide to certify; 1e-2 and 1 do not."""
        rng = np.random.default_rng(seed)
        stack = np.array([helpers.planted_lowest(random_psd(d, rng, scale / d), t) for t in plants[:k]])
        herm, lowest = psd_faults(stack)
        oracle_herm, oracle_lowest = helpers.eigvalsh_psd_faults(stack)
        np.testing.assert_array_equal(herm, oracle_herm)
        np.testing.assert_array_equal(lowest < -PSD_TOL, oracle_lowest < -PSD_TOL)
        if (oracle_lowest < -PSD_TOL).any():
            np.testing.assert_array_equal(lowest, oracle_lowest)  # a fault is reported with eigvalsh's value

    @pytest.mark.parametrize("scale,certified", [(1.0, True), (1e3, False)])
    def test_certifies_or_falls_back(self, monkeypatch, scale, certified):
        rng = np.random.default_rng(7)
        stack = np.array([random_psd(SCREEN_FROM_DIM, rng, scale / SCREEN_FROM_DIM) for _ in range(3)])
        calls = helpers.record_linalg_calls(monkeypatch, "cholesky", "eigvalsh")
        psd_faults(stack)
        assert [name for name, _ in calls] == (["cholesky"] if certified else ["cholesky", "eigvalsh"])

    def test_below_the_gate_eigvalsh_alone(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: pytest.fail("screened below the gate"))
        stack = np.array([np.eye(SCREEN_FROM_DIM - 1)])
        assert psd_faults(stack)[1].tolist() == [1.0]


def _planted_norm_stack(rng, k, d, sigmas, full_rank):
    """``k`` random ``d x d`` matrices with largest singular values ``sigmas``: rank 1, or full rank."""
    out = np.zeros((k, d, d), dtype=complex)
    for i, sigma in enumerate(sigmas):
        spectrum = np.zeros(d)
        if full_rank:
            spectrum = sigma * rng.uniform(0.0, 1.0, size=d)
        spectrum[0] = sigma
        out[i] = random_unitary(d, rng) * spectrum @ random_unitary(d, rng)
    return out


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 4, SCREEN_FROM_DIM, 12, 28]),
    limits=st.lists(st.sampled_from([0.0, 1e-8, 1.0, 3e5]), min_size=4, max_size=4),
    factors=st.lists(st.sampled_from([0.0, 1e-3, 1 - 1e-9, 1.0, 1 + 1e-9, 1e3]), min_size=4, max_size=4),
    full_rank=st.booleans(),
)
def test_norms_exceed_is_the_svd_decision(seed, d, limits, factors, full_rank):
    """Largest singular values planted at, near and far from each limit, 0 included."""
    rng = np.random.default_rng(seed)
    sigmas = [max(limit, 1e-8) * f for limit, f in zip(limits, factors)]
    stack = _planted_norm_stack(rng, 4, d, sigmas, full_rank)
    expected = operator_norms(stack) > np.array(limits)
    np.testing.assert_array_equal(norms_exceed(stack, np.array(limits)), expected)
    np.testing.assert_array_equal([norms_exceed(stack[i:i + 1], limits[i])[0] for i in range(4)], expected)


@pytest.mark.parametrize("limit", [-1.0, np.nan, np.inf, 1e-200, 0.0])
def test_norms_exceed_out_of_range_limits(limit):
    """A negative, NaN, infinite or tiny limit still gets the SVD's answer."""
    rng = np.random.default_rng(3)
    d = SCREEN_FROM_DIM
    stack = np.array([random_psd(d, rng), np.zeros((d, d)), 1e-150 * np.eye(d)])
    np.testing.assert_array_equal(norms_exceed(stack, limit), operator_norms(stack) > limit)
