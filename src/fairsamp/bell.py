"""Multipartite Bell scenarios: joint statistics, post-selection and bounds.

A scenario composes local lossy devices by tensor product against a shared
state.  Post-selection keeps the rounds where every party clicks; the engine
also builds the filtered state and ideal unit-efficiency experiment that
reproduce (or approximate) those statistics, and evaluates linear Bell
functionals together with the deviation bounds implied by per-party
fair-sampling epsilons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analysis import approximate_epsilon, check_exact, ideal_device_from
from .device import NOCLICK, LossyDevice, ZeroAcceptanceError
from .linalg import as_operator, assert_density, expect, sqrt_pinv_sqrt, tensor

#: Bell coefficients: (settings tuple, outcomes tuple) -> real weight.
BellCoeffs = Mapping[tuple[tuple[str, ...], tuple[str, ...]], float]

MAX_JOINT_OUTCOMES = 100_000


@dataclass
class BellScenario:
    """Local devices measuring a joint state, one tensor factor per party."""

    devices: Sequence[LossyDevice]
    psi: np.ndarray
    bell_coeffs: BellCoeffs | None = None

    def __post_init__(self):
        self.devices = tuple(self.devices)
        self.psi = assert_density(self.psi)
        dims = [dev.dim for dev in self.devices]
        if int(np.prod(dims)) != self.psi.shape[0]:
            raise ValueError(f"local dimensions {dims} do not match state dimension {self.psi.shape[0]}")
        n_out = int(np.prod([len(dev.outcomes) + 1 for dev in self.devices]))
        if n_out > MAX_JOINT_OUTCOMES:
            raise ValueError(f"joint outcome table of size {n_out} exceeds {MAX_JOINT_OUTCOMES}")

    @property
    def n_parties(self) -> int:
        return len(self.devices)

    def setting_tuples(self):
        return itertools.product(*(dev.settings for dev in self.devices))

    def _check_settings(self, xs: Sequence[str]) -> tuple[str, ...]:
        xs = tuple(xs)
        if len(xs) != self.n_parties:
            raise ValueError(f"expected {self.n_parties} settings, got {len(xs)}")
        for dev, x in zip(self.devices, xs):
            if x not in dev.settings:
                raise KeyError(f"unknown setting {x!r}")
        return xs

    def _table(self, xs: tuple[str, ...], alphabets: Sequence[Sequence[str]]) -> dict:
        """Probability of every outcome tuple in the product of ``alphabets`` at settings ``xs``."""
        dist = {}
        for outs in itertools.product(*alphabets):
            op = tensor([dev.element(x, a) for dev, x, a in zip(self.devices, xs, outs)])
            dist[outs] = max(0.0, expect(op, self.psi))
        return dist

    def joint_raw(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over outcome tuples, no-click included."""
        xs = self._check_settings(xs)
        return self._table(xs, [(*dev.outcomes, NOCLICK) for dev in self.devices])

    def all_click_probability(self, xs: Sequence[str]) -> float:
        xs = self._check_settings(xs)
        op = tensor([dev.click_element(x) for dev, x in zip(self.devices, xs)])
        return max(0.0, expect(op, self.psi))

    def joint_postselected(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over good outcome tuples, conditioned on all parties clicking."""
        xs = self._check_settings(xs)
        acc = self.all_click_probability(xs)
        if acc <= 1e-12:
            raise ZeroAcceptanceError(
                f"setting tuple {xs!r} has acceptance {acc:.3e}; erase it from the allowed settings"
            )
        good = self._table(xs, [dev.outcomes for dev in self.devices])
        return {outs: p / acc for outs, p in good.items()}


def joint_device(devices: Sequence[LossyDevice], sep: str = ",") -> LossyDevice:
    """Collect local devices into one device whose good outcomes are all-click tuples.

    Joint labels join the local ones with ``sep``; every pattern containing
    at least one local no-click is aggregated into the joint no-click
    element, which therefore equals identity minus the tensor of the local
    click elements.
    """
    dims = [dev.dim for dev in devices]
    dim = int(np.prod(dims))
    settings = list(itertools.product(*(dev.settings for dev in devices)))
    outcomes = list(itertools.product(*(dev.outcomes for dev in devices)))
    povm: dict[str, dict[str, np.ndarray]] = {}
    for xs in settings:
        row = {
            sep.join(outs): tensor([dev.element(x, a) for dev, x, a in zip(devices, xs, outs)])
            for outs in outcomes
        }
        row[NOCLICK] = np.eye(dim, dtype=complex) - tensor(
            [dev.click_element(x) for dev, x in zip(devices, xs)]
        )
        povm[sep.join(xs)] = row
    return LossyDevice(dim, [sep.join(xs) for xs in settings], [sep.join(o) for o in outcomes], povm)


def filtered_global_state(
    mqs: Sequence[np.ndarray], psi: np.ndarray, threshold: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Filter every party's factor by sqrt of its reference click element.

    Returns the normalized filtered state and the probability that all local
    filters accept simultaneously.
    """
    psi = as_operator(psi)
    sqrts = [sqrt_pinv_sqrt(mq)[0] for mq in mqs]
    big = tensor(sqrts)
    branch = big @ psi @ big
    eq = float(np.trace(branch).real)
    if eq <= threshold:
        raise ZeroAcceptanceError(f"global filter acceptance {eq:.3e} vanishes")
    return branch / eq, eq


def ideal_scenario(sc: BellScenario, mqs: Sequence[np.ndarray] | None = None) -> BellScenario:
    """Unit-efficiency experiment on the filtered state, built party by party.

    With no explicit references, each device must pass the exact
    fair-sampling check and its extracted quantum element is used.
    """
    if mqs is None:
        mqs = []
        for k, dev in enumerate(sc.devices):
            verdict = check_exact(dev)
            if not verdict.weak:
                raise ValueError(f"party {k} fails the exact fair-sampling check")
            mqs.append(verdict.quantum_elem)
    ideal = [ideal_device_from(dev, mq).to_lossy() for dev, mq in zip(sc.devices, mqs)]
    psi_click, _ = filtered_global_state(mqs, sc.psi)
    return BellScenario(ideal, psi_click, sc.bell_coeffs)


def _postselected_and_ideal(sc: BellScenario, ideal: BellScenario) -> dict:
    """Setting tuple -> (post-selected table of ``sc``, raw table of ``ideal``).

    Setting tuples with vanishing acceptance are erased: they have no entry.
    """
    tables = {}
    for xs in sc.setting_tuples():
        try:
            ps = sc.joint_postselected(xs)
        except ZeroAcceptanceError:
            continue
        tables[xs] = (ps, ideal.joint_raw(xs))
    return tables


def _max_deviation(tables: Mapping) -> float:
    worst = 0.0
    for ps, raw_ideal in tables.values():
        for outs, p in ps.items():
            worst = max(worst, abs(p - raw_ideal[outs]))
    return worst


def postselected_vs_ideal_deviation(sc: BellScenario, ideal: BellScenario) -> float:
    """Max |post-selected - ideal raw| probability over setting and outcome tuples.

    Setting tuples with vanishing acceptance are erased rather than compared.
    """
    return _max_deviation(_postselected_and_ideal(sc, ideal))


def verify_postselection_equivalence(sc: BellScenario, tol: float = 1e-9) -> float:
    """Check that post-selected statistics match the ideal filtered experiment.

    Every party must pass the exact fair-sampling check.  Returns the
    maximum deviation and raises if it exceeds ``tol``.
    """
    worst = postselected_vs_ideal_deviation(sc, ideal_scenario(sc))
    if worst > tol:
        raise AssertionError(f"post-selected vs ideal deviation {worst:.3e} exceeds {tol:.1e}")
    return worst


def epsilon_total(eps: Sequence[float]) -> float:
    """Compose per-party deviations: 1 - prod(1 - eps_k), the exact product formula."""
    out = 1.0
    for e in eps:
        if not 0.0 <= e < 1.0:
            raise ValueError(f"per-party epsilon {e!r} outside [0, 1)")
        out *= 1.0 - e
    return 1.0 - out


def bell_value(
    dists: Mapping[tuple[str, ...], Mapping[tuple[str, ...], float]], coeffs: BellCoeffs
) -> float:
    """Linear Bell functional sum(c * Pr) over the supplied distributions."""
    total = 0.0
    for (xs, outs), c in coeffs.items():
        if xs not in dists:
            raise KeyError(f"no distribution supplied for settings {xs!r}")
        total += c * dists[xs].get(outs, 0.0)
    return total


def validate_coefficients(sc: BellScenario, coeffs: BellCoeffs) -> None:
    """Require a coefficient for every good outcome tuple of every setting used.

    Only complete (linear) Bell functionals are accepted; a missing entry is
    an error, not an implicit zero.
    """
    outcome_tuples = list(itertools.product(*(dev.outcomes for dev in sc.devices)))
    for xs, _ in coeffs:
        for dev, x in zip(sc.devices, xs):
            if x not in dev.settings:
                raise KeyError(f"coefficients reference unknown setting {x!r}")
    for xs in {xs for xs, _ in coeffs}:
        for outs in outcome_tuples:
            if (xs, outs) not in coeffs:
                raise ValueError(f"missing coefficient entry for settings {xs!r}, outcomes {outs!r}")


def beta_max(coeffs: BellCoeffs) -> float:
    """Algebraic bound of a linear Bell functional.

    The maximum over unconstrained conditional distributions is attained at
    deterministic assignments, independently for each setting tuple, so it
    is the larger of |sum of per-setting maxima| and |sum of per-setting
    minima|.  The coefficients must cover the full outcome alphabet.
    """
    by_setting: dict[tuple[str, ...], list[float]] = {}
    for (xs, _), c in coeffs.items():
        by_setting.setdefault(xs, []).append(c)
    hi = sum(max(cs) for cs in by_setting.values())
    lo = sum(min(cs) for cs in by_setting.values())
    return max(abs(hi), abs(lo))


def deviation_bound(eps_tot: float, beta: float) -> float:
    """Bound on |<B>_postselected - <B>_ideal| for a composed deviation eps_tot."""
    return 2.0 * eps_tot * beta


def _bell_settings(sc: BellScenario) -> set[tuple[str, ...]]:
    """Validate the scenario's Bell coefficients; return the setting tuples they read."""
    validate_coefficients(sc, sc.bell_coeffs)
    return {xs for (xs, _) in sc.bell_coeffs}


def postselected_bell_value(sc: BellScenario) -> float:
    """Bell functional evaluated on the post-selected distributions."""
    if sc.bell_coeffs is None:
        raise ValueError("scenario declares no Bell coefficients")
    dists = {xs: sc.joint_postselected(xs) for xs in _bell_settings(sc)}
    return bell_value(dists, sc.bell_coeffs)


@dataclass
class BoundReport:
    """Epsilons and measured deviations of a scenario; Bell fields are None without coefficients."""

    epsilons: list[float]
    epsilon_total: float
    measured_joint_deviation: float
    beta_max: float | None = None
    measured_bell_deviation: float | None = None


def bound_report(sc: BellScenario, mqs: Sequence[np.ndarray]) -> BoundReport:
    """Epsilons against ``mqs`` and the deviations from the ideal experiment built from them."""
    eps = [approximate_epsilon(dev, mq) for dev, mq in zip(sc.devices, mqs)]
    eps_tot = epsilon_total(eps)
    tables = _postselected_and_ideal(sc, ideal_scenario(sc, mqs))
    beta = bell_deviation = None
    if sc.bell_coeffs is not None:
        needed = _bell_settings(sc)
        erased = needed - tables.keys()
        if erased:
            raise ZeroAcceptanceError(
                f"Bell coefficients read setting tuples with vanishing acceptance: {sorted(erased)!r}"
            )
        beta = beta_max(sc.bell_coeffs)
        post_value = bell_value({xs: tables[xs][0] for xs in needed}, sc.bell_coeffs)
        ideal_value = bell_value({xs: tables[xs][1] for xs in needed}, sc.bell_coeffs)
        bell_deviation = abs(post_value - ideal_value)
    return BoundReport(eps, eps_tot, _max_deviation(tables), beta, bell_deviation)
