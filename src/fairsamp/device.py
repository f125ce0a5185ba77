"""Lossy measurement devices as POVMs over settings and outcomes.

A device maps each (setting, outcome) pair to a POVM element; the reserved
outcome label ``"noclick"`` stands for a failed detection.  Raw and
post-selected outcome statistics are evaluated by trace rules against a
density matrix.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .linalg import (
    COMPLETENESS_TOL,
    ZERO_ACCEPTANCE,
    as_operator,
    assert_density,
    probability,
    projector,
    psd_faults,
    raise_psd_fault,
)

#: Reserved label for the failed-detection outcome.
NOCLICK = "noclick"


class ZeroAcceptanceError(ValueError):
    """Acceptance probability vanished; the setting must be erased, not renormalized."""


def total_variation(p: Mapping, q: Mapping) -> float:
    """Total variation distance between two distributions given as mappings."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class LossyDevice:
    """POVM-described measurement device with a no-click outcome.

    ``stack`` holds every element in one read-only complex array of shape
    ``(settings, outcomes + 1, dim, dim)``: settings and good outcomes in
    label order, the no-click element last.  ``povm`` is a read-only mapping
    setting -> outcome -> view into ``stack``.  The no-click element may be
    omitted from the input, in which case it is reconstructed from
    completeness; if present, the full sum must equal the identity within
    COMPLETENESS_TOL.  Each setting's block is checked for Hermiticity and
    positivity at once (``linalg.psd_faults``); errors name the first faulty
    element in label order, as a check of one element at a time would.
    """

    def __init__(
        self,
        dim: int,
        settings: Sequence[str],
        outcomes: Sequence[str],
        povm: Mapping[str, Mapping[str, np.ndarray]],
    ):
        self.dim = int(dim)
        self.settings, self.outcomes = _labels(settings, outcomes)
        n = len(self.outcomes)
        labels = (*self.outcomes, NOCLICK)
        eye = np.eye(self.dim, dtype=complex)
        stack = np.empty((len(self.settings), n + 1, self.dim, self.dim), dtype=complex)
        for x, block in zip(self.settings, stack):
            row = _fill(block, x, self.outcomes, povm)
            good_sum = sum(block[:n])
            if NOCLICK in row:
                block[n] = _operator(self.dim, x, NOCLICK, row[NOCLICK])
            else:
                np.subtract(eye, good_sum, out=block[n])
            herm, lowest = psd_faults(block)
            raise_psd_fault(herm[:n], lowest[:n], lambda j: f"POVM element ({x!r}, {self.outcomes[j]!r})")
            if NOCLICK in row:
                res = float(np.max(np.abs(good_sum + block[n] - eye)))
                if res > COMPLETENESS_TOL:
                    raise ValueError(f"setting {x!r} violates completeness by {res:.3e}")
            raise_psd_fault(herm[n:], lowest[n:], lambda j: f"POVM element ({x!r}, noclick)")
        stack.setflags(write=False)
        self.stack = stack
        self.povm = _read_only_povm(self.settings, labels, stack)

    def element(self, x: str, a: str) -> np.ndarray:
        return self.povm[x][a]

    def click_element(self, x: str) -> np.ndarray:
        """Sum of the good-outcome elements for setting x."""
        if x not in self.povm:
            raise KeyError(f"unknown setting {x!r}")
        return sum(self.stack[self.settings.index(x), : len(self.outcomes)])

    def click_elements(self) -> np.ndarray:
        """``click_element`` of every setting in label order, shape ``(settings, dim, dim)``."""
        return sum(self.stack[:, j] for j in range(len(self.outcomes)))

    def noclick_element(self, x: str) -> np.ndarray:
        if x not in self.povm:
            raise KeyError(f"unknown setting {x!r}")
        return self.povm[x][NOCLICK]

    def efficiency(self, x: str, rho: np.ndarray) -> float:
        """Probability of any good outcome for setting x on state rho."""
        rho = assert_density(rho)
        if rho.shape[0] != self.dim:
            raise ValueError(f"state dimension {rho.shape[0]} does not match device dimension {self.dim}")
        return min(1.0, probability(self.click_element(x), rho, f"click at setting {x!r}"))

    def outcome_distribution(self, x: str, rho: np.ndarray) -> dict[str, float]:
        """Raw distribution over good outcomes plus noclick."""
        rho = assert_density(rho)
        if rho.shape[0] != self.dim:
            raise ValueError(f"state dimension {rho.shape[0]} does not match device dimension {self.dim}")
        labels = (*self.outcomes, NOCLICK)
        probs = {a: probability(self.povm[x][a], rho, f"outcome {a!r} at setting {x!r}") for a in labels}
        total = sum(probs.values())
        if abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValueError(f"distribution for setting {x!r} sums to {total!r}")
        return probs

    def postselected_distribution(self, x: str, rho: np.ndarray) -> dict[str, float]:
        """Distribution over good outcomes conditioned on a click."""
        raw = self.outcome_distribution(x, rho)
        acc = sum(raw[a] for a in self.outcomes)
        if acc <= ZERO_ACCEPTANCE:
            raise ZeroAcceptanceError(
                f"setting {x!r} has acceptance {acc:.3e}; erase it from the allowed settings"
            )
        return {a: raw[a] / acc for a in self.outcomes}


def _labels(settings: Sequence[str], outcomes: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Setting and good-outcome labels as tuples of str; duplicates and a good ``noclick`` raise."""
    settings = tuple(str(x) for x in settings)
    outcomes = tuple(str(a) for a in outcomes)
    if NOCLICK in outcomes:
        raise ValueError(f"{NOCLICK!r} is reserved and cannot be a good outcome")
    if len(set(settings)) != len(settings):
        raise ValueError("duplicate setting labels")
    if len(set(outcomes)) != len(outcomes):
        raise ValueError("duplicate outcome labels")
    return settings, outcomes


def _operator(dim: int, x: str, a: str, m) -> np.ndarray:
    m = as_operator(m)
    if m.shape[0] != dim:
        raise ValueError(f"element ({x!r}, {a!r}) has dimension {m.shape[0]}, expected {dim}")
    return m


def _fill(block: np.ndarray, x: str, outcomes: Sequence[str], povm: Mapping) -> Mapping:
    """Copy setting ``x``'s elements for ``outcomes`` from ``povm`` into ``block``, in order; returns ``povm[x]``.

    A missing setting or element, or an element of the wrong dimension, raises
    ``ValueError`` naming the setting and outcome.
    """
    if x not in povm:
        raise ValueError(f"missing POVM entries for setting {x!r}")
    row = povm[x]
    for j, a in enumerate(outcomes):
        if a not in row:
            raise ValueError(f"missing POVM element for ({x!r}, {a!r})")
        block[j] = _operator(block.shape[-1], x, a, row[a])
    return row


def _read_only_povm(settings: Sequence[str], labels: Sequence[str], stack: np.ndarray) -> Mapping:
    """Read-only mapping setting -> label -> element view of a read-only ``stack``."""
    return MappingProxyType(
        {x: MappingProxyType(dict(zip(labels, block))) for x, block in zip(settings, stack)}
    )


class LosslessDevice:
    """Device whose good outcomes sum to a projector for every setting.

    Acting on a state supported inside that projector it always produces a
    good outcome.  Elements live in one read-only ``stack`` of shape
    ``(settings, outcomes, dim, dim)``, with ``povm`` a read-only mapping of
    views into it.  ``support`` maps each setting to its projector; it is
    validated to be idempotent and to match the outcome sum.  Labels and
    element structure are checked as for ``LossyDevice``: errors name the
    setting and outcome.
    """

    def __init__(
        self,
        dim: int,
        settings: Sequence[str],
        outcomes: Sequence[str],
        povm: Mapping[str, Mapping[str, np.ndarray]],
    ):
        self.dim = int(dim)
        self.settings, self.outcomes = _labels(settings, outcomes)
        stack = np.empty((len(self.settings), len(self.outcomes), self.dim, self.dim), dtype=complex)
        supports: dict[str, np.ndarray] = {}
        for x, block in zip(self.settings, stack):
            _fill(block, x, self.outcomes, povm)
            raise_psd_fault(*psd_faults(block), lambda j: f"element ({x!r}, {self.outcomes[j]!r})")
            s = sum(block)
            res = float(np.max(np.abs(s @ s - s)))
            if res > COMPLETENESS_TOL:
                raise ValueError(f"outcome sum for setting {x!r} is not a projector (residual {res:.3e})")
            supports[x] = s
        stack.setflags(write=False)
        self.stack = stack
        self.povm = _read_only_povm(self.settings, self.outcomes, stack)
        self.support = supports

    def element(self, x: str, a: str) -> np.ndarray:
        return self.povm[x][a]

    def common_support(self) -> np.ndarray | None:
        """The shared support projector, or None if it differs across settings."""
        first = self.support[self.settings[0]]
        for x in self.settings[1:]:
            if np.max(np.abs(self.support[x] - first)) > COMPLETENESS_TOL:
                return None
        return first

    def to_lossy(self) -> LossyDevice:
        """Complete each setting with a noclick element 1 - support."""
        eye = np.eye(self.dim, dtype=complex)
        povm = {x: {**self.povm[x], NOCLICK: eye - self.support[x]} for x in self.settings}
        return LossyDevice(self.dim, self.settings, self.outcomes, povm)


def projective_qubit_device(
    angles: Mapping[str, float], efficiency: float = 1.0, outcomes: tuple[str, str] = ("+", "-")
) -> LossyDevice:
    """Qubit device measuring cos(t)Z + sin(t)X per setting, damped by a flat efficiency.

    ``angles`` maps setting labels to Bloch angles t in the X-Z plane; both
    projective outcomes are scaled by the same efficiency, so the click
    element is efficiency times the identity (strong fair sampling).
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    plus, minus = outcomes
    povm = {}
    for x, t in angles.items():
        up = np.array([np.cos(t / 2.0), np.sin(t / 2.0)], dtype=complex)
        down = np.array([-np.sin(t / 2.0), np.cos(t / 2.0)], dtype=complex)
        povm[str(x)] = {plus: efficiency * projector(up), minus: efficiency * projector(down)}
    return LossyDevice(2, list(povm), [plus, minus], povm)
