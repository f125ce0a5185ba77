"""Filter / lossless-measurement decomposition of a lossy device.

Any lossy device factors as a two-flag probabilistic filter followed by a
measurement that always fires on filtered states.  The canonical gauge uses
the symmetric square root of the click element, which makes the construction
deterministic; classical filters that scramble the setting can be brought to
a diagonal normal form without changing the composed statistics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .device import NOCLICK, LossyDevice, LosslessDevice, ZeroAcceptanceError
from .linalg import COMPLETENESS_TOL, ZERO_ACCEPTANCE, as_operator, dagger, expect, sqrt_pinv_sqrt
from .sampling import verification_states


@dataclass(frozen=True)
class QuantumFilter:
    """Two-outcome Kraus pair: kraus_click fires on acceptance, kraus_noclick on loss.

    A non-finite entry raises ``ValueError`` naming its operator.
    """

    kraus_click: np.ndarray
    kraus_noclick: np.ndarray

    def __post_init__(self):
        fc = as_operator(self.kraus_click)
        fn = as_operator(self.kraus_noclick)
        for name, k in (("kraus_click", fc), ("kraus_noclick", fn)):
            if not np.isfinite(k).all():
                raise ValueError(f"{name} has a non-finite entry")
        res = np.max(np.abs(dagger(fc) @ fc + dagger(fn) @ fn - np.eye(fc.shape[0])))
        if res > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated by {float(res):.3e}")

    @property
    def dim(self) -> int:
        return self.kraus_click.shape[0]

    def click_branch(self, rho: np.ndarray) -> np.ndarray:
        """Unnormalized post-filter state on acceptance."""
        return self.kraus_click @ rho @ dagger(self.kraus_click)

    def acceptance(self, rho: np.ndarray) -> float:
        return float(np.trace(self.click_branch(rho)).real)


@dataclass(frozen=True)
class ClassicalFilter:
    """Stochastic filter on the setting register.

    ``transition`` maps a requested setting to a sub-normalized distribution
    over actually-used settings; ``accept_prob`` gives the total acceptance
    per setting.  Both are probabilities up to ``COMPLETENESS_TOL`` of drift.
    A diagonal filter has transition None; any other has one row for each
    setting of ``accept_prob`` and no more, and finite entries.
    """

    accept_prob: Mapping[str, float]
    transition: Mapping[str, Mapping[str, float]] | None = None

    def __post_init__(self):
        for x, p in self.accept_prob.items():
            if not -COMPLETENESS_TOL <= p <= 1.0 + COMPLETENESS_TOL:
                raise ValueError(f"accept_prob[{x!r}] = {p!r} outside [0, 1]")
        if self.transition is not None:
            for x in self.transition:
                if x not in self.accept_prob:
                    raise ValueError(f"transition row {x!r} names a setting absent from accept_prob")
            for x in self.accept_prob:
                if x not in self.transition:
                    raise ValueError(f"accept_prob setting {x!r} has no transition row")
            for x, row in self.transition.items():
                for y, p in row.items():
                    if not math.isfinite(p):
                        raise ValueError(f"transition row {x!r} has entry {float(p)!r} at setting {y!r}, not finite")
                total = sum(row.values())
                if total > 1.0 + COMPLETENESS_TOL or any(p < -COMPLETENESS_TOL for p in row.values()):
                    raise ValueError(f"transition row {x!r} is not sub-normalized")
                if abs(total - self.accept_prob[x]) > COMPLETENESS_TOL:
                    raise ValueError(f"accept_prob[{x!r}] inconsistent with transition row sum")


@dataclass(frozen=True)
class FilterDecomposition:
    """Per-setting quantum filters plus the lossless device they feed."""

    filters: Mapping[str, QuantumFilter]
    lossless: LosslessDevice

    def probability(self, x: str, a: str, rho: np.ndarray) -> float:
        """Outcome probability of the recomposed device (filter, then measurement)."""
        branch = _row(self.filters, x).click_branch(rho)
        if a == NOCLICK:
            return 1.0 - float(np.trace(branch).real)
        return expect(self.lossless.element(x, a), branch)


def canonical_decomposition(dev: LossyDevice) -> FilterDecomposition:
    """Split a device into sqrt-click filters and a unit-efficiency measurement.

    For each setting the filter's accepting Kraus operator is sqrt of the
    click element and the lossless POVM conjugates every good element by the
    pseudo-inverse square root, so the good outcomes sum to the click
    element's support projector.
    """
    filters: dict[str, QuantumFilter] = {}
    n = len(dev.outcomes)
    stack = np.empty((len(dev.settings), n, dev.dim, dev.dim), dtype=complex)
    for x, m_click, elements, good in zip(dev.settings, dev.click_elements(), dev.stack, stack):
        sq_click, pinv_click = sqrt_pinv_sqrt(m_click)
        sq_noclick, _ = sqrt_pinv_sqrt(elements[n])
        filters[x] = QuantumFilter(sq_click, sq_noclick)
        good[:] = pinv_click @ elements[:n] @ pinv_click
    return FilterDecomposition(filters, LosslessDevice(dev.dim, dev.settings, dev.outcomes, stack))


def verify_recomposition(
    dev: LossyDevice, decomp: FilterDecomposition, trials: int = 100, seed: int = 0
) -> float:
    """Max |recomposed - direct| outcome probability over random input states.

    Per state, the filter branches of every setting are formed in one stacked
    product, and each setting's direct and recomposed probabilities are read
    with one contraction each.  ``trials`` must be at least 1: a verification
    over no states would pass without checking anything.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    kraus = np.array([decomp.filters[x].kraus_click for x in dev.settings])
    kraus_dagger = np.conj(kraus).swapaxes(1, 2)
    lossless = [np.array([decomp.lossless.element(x, a) for a in dev.outcomes]) for x in dev.settings]
    worst = 0.0
    for rho in verification_states(dev.dim, trials, rng):
        branches = kraus @ rho @ kraus_dagger
        for elements, measured, branch in zip(dev.stack, lossless, branches):
            direct = np.einsum("aij,ji->a", elements, rho).real
            good = np.einsum("aij,ji->a", measured, branch).real
            noclick = 1.0 - float(np.trace(branch).real)
            worst = max(worst, float(np.abs(good - direct[:-1]).max()), abs(noclick - direct[-1]))
    return worst


def classical_normal_form(
    fc: ClassicalFilter, lossless: LosslessDevice
) -> tuple[ClassicalFilter, LosslessDevice]:
    """Push a setting-scrambling classical filter into the measurement.

    Returns a diagonal filter that only damps each setting by its total
    acceptance, together with a reweighted device mixing the original POVMs
    by the transition probabilities.  The composed statistics are unchanged.
    """
    if fc.transition is None:
        return fc, lossless

    accept: dict[str, float] = {}
    povm: dict[str, dict[str, np.ndarray]] = {}
    kept: list[str] = []
    for x, row in fc.transition.items():
        acc = sum(row.values())
        if acc <= ZERO_ACCEPTANCE:
            warnings.warn(f"setting {x!r} has zero acceptance and is erased", stacklevel=2)
            continue
        kept.append(x)
        accept[x] = acc
        povm[x] = {
            a: sum((p / acc) * lossless.element(xp, a) for xp, p in row.items())
            for a in lossless.outcomes
        }
    if not kept:
        raise ZeroAcceptanceError("all settings have zero acceptance")
    device = LosslessDevice(lossless.dim, kept, lossless.outcomes, povm)
    return ClassicalFilter(accept_prob=accept), device


def composed_probability(
    fc: ClassicalFilter, lossless: LosslessDevice, x: str, a: str, rho: np.ndarray
) -> float:
    """Unnormalized Pr(a, accept | x) of a classical filter followed by a device."""
    if fc.transition is None:
        return _row(fc.accept_prob, x) * expect(lossless.element(x, a), rho)
    return sum(p * expect(lossless.element(xp, a), rho) for xp, p in _row(fc.transition, x).items())


def _row(rows: Mapping, x: str):
    """``rows[x]``; a setting not there raises ``KeyError`` naming it, as a device's lookup does."""
    try:
        return rows[x]
    except KeyError:
        raise KeyError(f"unknown setting {x!r}") from None
