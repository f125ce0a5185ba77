"""Polarization analysers on a truncated two-mode Fock space.

The device model is a polarization rotator followed by a polarizing beam
splitter feeding two threshold detectors that cannot resolve photon number.
Each detector misses every photon in its mode independently, so the no-click
element at angle theta is R1^(N_theta) * R2^(N_theta_perp) with R = 1 - eta
per detector.  Photon number is conserved by the rotation, so all operators
are exact on the truncated space: states are rejected only if they need more
than ``n_max`` photons, never approximated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb, factorial, sqrt
from typing import Sequence

import numpy as np

from .device import LossyDevice
from .linalg import MAX_DIM

OUTCOME_D1 = "D1"
OUTCOME_D2 = "D2"
OUTCOME_BOTH = "both"


def _photon_cap(n_max) -> int:
    """``n_max`` as an int; a non-integer raises ``TypeError`` and one below 1 ``ValueError``.

    So does one whose two-mode dimension ``(n_max + 1)(n_max + 2) / 2`` exceeds ``MAX_DIM``, before
    any basis or operator is built.
    """
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = (n_max + 1) * (n_max + 2) // 2
    if dim > MAX_DIM:
        raise ValueError(f"n_max {n_max} gives dimension {dim}, above the cap {MAX_DIM}")
    return n_max


def _check_mismatch(eta: float, delta: float) -> None:
    """Require the better detector's efficiency ``eta`` in (0, 1] and the miss excess ``delta`` >= 0; NaN fails."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if not delta >= 0.0:
        raise ValueError("delta must be nonnegative")


class TwoModeFock:
    """Occupation basis (n_H, n_V) with n_H + n_V <= n_max.

    Basis order is lexicographic in (total photon number, photons in the
    first mode); the vacuum is index 0.
    """

    def __init__(self, n_max: int):
        self.n_max = _photon_cap(n_max)
        self.basis = [
            (k, n - k) for n in range(self.n_max + 1) for k in range(n + 1)
        ]
        self.dim = len(self.basis)

    def sector_slice(self, n: int) -> slice:
        start = n * (n + 1) // 2
        return slice(start, start + n + 1)

    def total_numbers(self) -> np.ndarray:
        return np.array([a + b for a, b in self.basis])

    def rotation_sector(self, theta: float, n: int) -> np.ndarray:
        """Unitary taking the n-photon angle basis to the H/V occupation basis.

        Column k is the state with k photons polarized along theta and n - k
        along the orthogonal direction, expanded by the binomial theorem in
        the H/V creation operators.
        """
        c, s = np.cos(theta), np.sin(theta)
        u = np.zeros((n + 1, n + 1))
        for k in range(n + 1):
            # coefficient arrays over the power of the H-mode creation operator
            p1 = np.array([comb(k, i) * c**i * s ** (k - i) for i in range(k + 1)])
            p2 = np.array([comb(n - k, j) * (-s) ** j * c ** (n - k - j) for j in range(n - k + 1)])
            conv = np.convolve(p1, p2)
            for m in range(n + 1):
                u[m, k] = conv[m] * sqrt(factorial(m) * factorial(n - m)) / sqrt(
                    factorial(k) * factorial(n - k)
                )
        return u

    def sector_functions(self, theta: float, values: Sequence) -> list[np.ndarray]:
        """Operators diagonal in the angle basis, one per function in ``values``, from one rotation per photon number.

        ``f(n, k)`` for ``f`` in ``values`` gives its operator's eigenvalue on the
        basis state with k photons along theta within the n-photon sector.
        """
        outs = [np.zeros((self.dim, self.dim), dtype=complex) for _ in values]
        for n in range(self.n_max + 1):
            u = self.rotation_sector(theta, n)
            sl = self.sector_slice(n)
            for out, f in zip(outs, values):
                diag = np.array([f(n, k) for k in range(n + 1)], dtype=float)
                out[sl, sl] = (u * diag) @ u.T
        return outs

    def number_operator(self, theta: float) -> np.ndarray:
        """Photon-number operator of the theta-polarized mode."""
        return self.sector_functions(theta, [lambda n, k: float(k)])[0]

    def ket(self, n_theta: int, n_perp: int, theta: float = 0.0) -> np.ndarray:
        """State vector with the given occupations of the theta and perpendicular modes."""
        n = n_theta + n_perp
        if n > self.n_max:
            raise ValueError(f"total photon number {n} exceeds the truncation {self.n_max}")
        v = np.zeros(self.dim, dtype=complex)
        u = self.rotation_sector(theta, n)
        v[self.sector_slice(n)] = u[:, n_theta]
        return v


@dataclass
class AnalyserSpec:
    """Parameters of a polarization analyser.

    Detector efficiencies are normalized so the first (theta-port) detector
    is the lossier one; ``delta`` is then the relative excess of its miss
    probability.  ``fold_both`` reassigns simultaneous clicks to the first
    outcome, leaving a two-outcome device.
    """

    eta1: float
    eta2: float
    angles: Sequence[float]
    n_max: int
    fold_both: bool = False

    def __post_init__(self):
        if not (0.0 < self.eta1 <= 1.0 and 0.0 < self.eta2 <= 1.0):
            raise ValueError("efficiencies must lie in (0, 1]")
        if self.eta1 > self.eta2:
            self.eta1, self.eta2 = self.eta2, self.eta1
        self.angles = tuple(float(t) for t in self.angles)
        if not self.angles:
            raise ValueError("at least one angle is required")
        self.n_max = _photon_cap(self.n_max)

    @property
    def r1(self) -> float:
        return 1.0 - self.eta1

    @property
    def r2(self) -> float:
        return 1.0 - self.eta2

    @property
    def delta(self) -> float:
        if self.r2 == 0.0:
            if self.r1 > 0.0:
                raise ValueError("delta is undefined when only the better detector is lossless")
            return 0.0
        return self.r1 / self.r2 - 1.0


def _setting_label(theta: float) -> str:
    return format(theta, ".12g")


def _setting_labels(angles: Sequence[float]) -> list[str]:
    """The setting label of each angle; two angles that share a label raise ``ValueError`` naming both."""
    seen: dict[str, float] = {}
    for theta in angles:
        label = _setting_label(theta)
        if label in seen:
            raise ValueError(f"angles {seen[label]!r} and {theta!r} share the setting label {label!r}")
        seen[label] = theta
    return list(seen)


def analyser_device(spec: AnalyserSpec) -> LossyDevice:
    """Four-outcome analyser POVM per angle: first-only, second-only, both, noclick.

    All four elements are simultaneously diagonal in the angle occupation
    basis, with eigenvalues built from the per-detector miss probabilities
    r1^k and r2^(n-k).  Each angle is one setting, labelled with 12
    significant digits; two angles with one label raise ``ValueError``.
    """
    fock = TwoModeFock(spec.n_max)
    r1, r2 = spec.r1, spec.r2
    eigenvalues = (
        lambda n, k: (1.0 - r1**k) * r2 ** (n - k),
        lambda n, k: r1**k * (1.0 - r2 ** (n - k)),
        lambda n, k: (1.0 - r1**k) * (1.0 - r2 ** (n - k)),
    )
    labels = _setting_labels(spec.angles)
    rows = []
    for theta in spec.angles:
        d1, d2, both = fock.sector_functions(theta, eigenvalues)
        rows.append([d1 + both, d2] if spec.fold_both else [d1, d2, both])
    outcomes = [OUTCOME_D1, OUTCOME_D2] if spec.fold_both else [OUTCOME_D1, OUTCOME_D2, OUTCOME_BOTH]
    return LossyDevice(fock.dim, labels, outcomes, np.array(rows))


def single_photon_analyser(eta: float, delta: float, angles: Sequence[float]) -> LossyDevice:
    """Analyser restricted to one incoming photon: a qubit polarization device.

    ``eta`` is the better detector's efficiency and ``delta`` the relative
    miss-probability excess of the other one, so the click element at every
    angle is eta - (1 - eta) * delta on the theta-polarized photon and eta on
    the orthogonal one.  Angles are labelled as in ``analyser_device``.
    """
    _check_mismatch(eta, delta)
    eta_theta = 1.0 - (1.0 - eta) * (1.0 + delta)
    if eta_theta < 0.0:
        raise ValueError(f"eta={eta}, delta={delta} give a negative click probability")
    angles = list(angles)
    labels = _setting_labels(angles)
    rows = []
    for theta in angles:
        along = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        perp = np.array([-np.sin(theta), np.cos(theta)], dtype=complex)
        rows.append([eta_theta * np.outer(along, along.conj()), eta * np.outer(perp, perp.conj())])
    return LossyDevice(2, labels, [OUTCOME_D1, OUTCOME_D2], np.reshape(rows, (len(labels), 2, 2, 2)))


def analyser_mq(eta2: float, n_max: int) -> np.ndarray:
    """Reference click element 1 - r^N for the analyser, diagonal in photon number.

    Its support excludes the vacuum, so filtered states carry no vacuum
    weight.
    """
    if not 0.0 < eta2 <= 1.0:
        raise ValueError("eta2 must lie in (0, 1]")
    fock = TwoModeFock(n_max)
    r = 1.0 - eta2
    diag = 1.0 - r ** fock.total_numbers()
    return np.diag(diag.astype(complex))


def analyser_epsilon_closed_form(eta: float, delta: float) -> float:
    """Exact approximate-fair-sampling deviation (1 - eta) * delta / eta.

    Valid both for the single-photon analyser against the identity reference
    and for the truncated multi-photon analyser against 1 - r^N: the
    per-sector deviation (r1^n - r2^n) / (1 - r2^n) is maximal at n = 1.
    """
    _check_mismatch(eta, delta)
    return (1.0 - eta) * delta / eta


def sector_deviation_profile(spec: AnalyserSpec) -> dict[int, float]:
    """Per-photon-number deviation of the conjugated click element from its support.

    Diagnostic for where the approximate fair-sampling epsilon is attained;
    the n = 1 sector dominates for every efficiency pair.
    """
    fock = TwoModeFock(spec.n_max)
    dev = analyser_device(spec)
    r2 = spec.r2
    x0 = dev.settings[0]
    click = dev.click_element(x0)
    profile: dict[int, float] = {}
    for n in range(1, spec.n_max + 1):
        sl = fock.sector_slice(n)
        block = np.asarray(click)[sl, sl] / (1.0 - r2**n)
        profile[n] = float(np.linalg.norm(np.eye(n + 1) - block, 2))
    return profile
