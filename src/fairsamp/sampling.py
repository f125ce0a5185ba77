"""Random states, POVMs and fair-sampling devices for verification sweeps."""

from __future__ import annotations

import numpy as np

from .device import LossyDevice
from .linalg import dagger, projector, sqrt_pinv_sqrt


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a Ginibre factor of the given rank."""
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def verification_states(dim: int, count: int, rng: np.random.Generator):
    """Yield Haar-random pure states mixed with the maximally mixed state.

    The mixing weights cycle through {0, 0.5, 1} so the family spans both
    rank-deficient (pure) and full-rank inputs.
    """
    mm = np.eye(dim, dtype=complex) / dim
    weights = (0.0, 0.5, 1.0)
    for i in range(count):
        pure = projector(haar_ket(dim, rng))
        w = weights[i % len(weights)]
        yield (1.0 - w) * pure + w * mm


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """Random full POVM, stacked ``(n_outcomes, dim, dim)``: Ginibre blocks whitened to sum to identity.

    One ``rng.normal`` call draws every block, the real then the imaginary
    part of each in outcome order, as one call per part would.
    """
    z = rng.normal(size=(n_outcomes, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    blocks = g @ np.conj(g).transpose(0, 2, 1)
    _, inv_sqrt = sqrt_pinv_sqrt(sum(blocks))  # from 0, one block at a time: a per-outcome loop's bits
    return inv_sqrt @ blocks @ inv_sqrt


def random_fair_sampling_device(
    dim: int,
    n_settings: int,
    n_outcomes: int,
    rng: np.random.Generator,
    eff_range: tuple[float, float] = (0.3, 1.0),
    mq: np.ndarray | None = None,
) -> LossyDevice:
    """Random device that satisfies weak fair sampling exactly.

    Each setting measures a fresh random lossless POVM sandwiched between
    sqrt(mq) factors and damped by a per-setting acceptance probability, so
    every click element equals that probability times ``mq``.
    """
    if mq is None:
        w = rng.uniform(0.2, 1.0, size=dim)
        w[rng.integers(dim)] = 1.0  # pin the norm so scales stay O(1)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        mq = u @ np.diag(w) @ dagger(u)
    sq, _ = sqrt_pinv_sqrt(mq)
    settings = [f"x{i}" for i in range(n_settings)]
    outcomes = [f"a{j}" for j in range(n_outcomes)]
    lo, hi = eff_range
    stack = np.empty((n_settings, n_outcomes, dim, dim), dtype=complex)
    for good in stack:
        ec = rng.uniform(lo, hi)  # drawn before the setting's POVM
        good[:] = ec * (sq @ random_povm(dim, n_outcomes, rng) @ sq)
    return LossyDevice(dim, settings, outcomes, stack)
