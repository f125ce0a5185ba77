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
    read_probability,
)

#: Reserved label for the failed-detection outcome.
NOCLICK = "noclick"

#: A device's input elements: setting -> outcome -> element, or the good elements in one stack.
Elements = Mapping[str, Mapping[str, np.ndarray]] | np.ndarray


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
    setting -> outcome -> view into ``stack``.  The input ``povm`` is such a
    mapping, or the good elements as one stack of shape ``(settings, outcomes,
    dim, dim)``; either is copied.  A no-click element the input omits (a
    stack always does) is reconstructed from completeness; if present, the
    full sum must equal the identity within COMPLETENESS_TOL.  Every element
    is checked for Hermiticity and positivity at once (one
    ``linalg.psd_faults`` call per device); errors name the first faulty
    element in label order, as a check of one element at a time would.
    """

    def __init__(self, dim: int, settings: Sequence[str], outcomes: Sequence[str], povm: Elements):
        dim = int(dim)
        settings, outcomes = _labels(settings, outcomes)
        stack = np.empty((len(settings), len(outcomes) + 1, dim, dim), dtype=complex)
        given = np.zeros(len(settings), dtype=bool)  # which no-click elements the input holds
        _fill(
            stack, settings, outcomes, povm, lambda i: _check_lossy(settings[:i], outcomes, stack[:i], given[:i]), given
        )
        _check_lossy(settings, outcomes, stack, given)
        self._finish(dim, settings, outcomes, stack)

    def _finish(self, dim: int, settings: tuple[str, ...], outcomes: tuple[str, ...], stack: np.ndarray) -> None:
        """Take the validated ``stack`` as this device's elements; it is frozen, not copied."""
        stack.setflags(write=False)
        self.dim, self.settings, self.outcomes, self.stack = dim, settings, outcomes, stack
        labels = (*outcomes, NOCLICK)
        self.povm = MappingProxyType({x: MappingProxyType(dict(zip(labels, row))) for x, row in zip(settings, stack)})

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
        """Raw distribution over good outcomes plus noclick, read with one contraction of the setting's elements."""
        rho = assert_density(rho)
        if rho.shape[0] != self.dim:
            raise ValueError(f"state dimension {rho.shape[0]} does not match device dimension {self.dim}")
        if x not in self.povm:
            raise KeyError(x)
        values = np.einsum("aij,ji->a", self.stack[self.settings.index(x)], rho).real
        probs = {
            a: read_probability(float(p), f"outcome {a!r} at setting {x!r}")
            for a, p in zip((*self.outcomes, NOCLICK), values)
        }
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


def _fill(stack: np.ndarray, settings: Sequence[str], outcomes: Sequence[str], povm: Elements, check, given=None):
    """Copy the good elements of ``povm``, a mapping or a good-element stack, into ``stack[:, :outcomes]``.

    With ``given``, a mapping's no-click elements are copied into the last row
    too and flagged there.  A stack of the wrong shape raises
    ``ValueError``; so does a missing setting or element, or an element of the
    wrong dimension, naming the setting and outcome, but only after
    ``check(i)`` has raised any fault of the ``i`` settings copied before it.
    """
    n = len(outcomes)
    if isinstance(povm, np.ndarray):
        if povm.shape != stack[:, :n].shape:
            raise ValueError(f"element stack has shape {povm.shape}, expected {stack[:, :n].shape}")
        stack[:, :n] = povm
        return
    dim = stack.shape[-1]
    for i, (x, block) in enumerate(zip(settings, stack)):
        try:
            if x not in povm:
                raise ValueError(f"missing POVM entries for setting {x!r}")
            row = povm[x]
            for j, a in enumerate(outcomes):
                if a not in row:
                    raise ValueError(f"missing POVM element for ({x!r}, {a!r})")
                block[j] = _operator(dim, x, a, row[a])
            if given is not None and NOCLICK in row:
                block[n] = _operator(dim, x, NOCLICK, row[NOCLICK])
                given[i] = True
        except (TypeError, ValueError):
            check(i)  # earlier settings' faults come first
            raise


def _complete(stack: np.ndarray, n: int, where: np.ndarray | bool = True) -> np.ndarray:
    """Set the no-click rows (``where``) of ``stack`` to ``1 - sum`` of the ``n`` good elements; returns the sums."""
    dim = stack.shape[-1]
    sums = sum(stack[:, :n].swapaxes(0, 1), np.zeros((len(stack), dim, dim), dtype=complex))
    np.subtract(np.eye(dim, dtype=complex), sums, out=stack[:, n], where=where)
    return sums


def _check_lossy(settings: Sequence[str], outcomes: Sequence[str], stack: np.ndarray, given: np.ndarray) -> None:
    """Complete a lossy ``stack`` and raise what a check of one element at a time, in label order, raises first.

    The no-click row of each setting not flagged ``given`` is set from
    completeness.  Per setting: each good element's Hermiticity and
    positivity, then the completeness residual if the no-click element was
    given, then the no-click element.  One ``psd_faults`` call covers every
    element.
    """
    n = len(outcomes)
    eye = np.eye(stack.shape[-1], dtype=complex)
    sums = _complete(stack, n, ~given[:, None, None])
    with np.errstate(invalid="ignore"):  # a non-finite element is reported as its own fault below
        residual = np.max(np.abs(sums + stack[:, n] - eye), axis=(1, 2))
    incomplete = np.flatnonzero(given & (residual > COMPLETENESS_TOL))
    herm, lowest = psd_faults(stack.reshape(-1, *eye.shape))
    labels = [*map(repr, outcomes), NOCLICK]
    width = n + 1
    # The first incomplete setting's fault comes after its good elements, before its no-click one.
    stop = incomplete[0] * width + n if incomplete.size else herm.size
    raise_psd_fault(
        herm[:stop], lowest[:stop], lambda j: f"POVM element ({settings[j // width]!r}, {labels[j % width]})"
    )
    if incomplete.size:
        i = incomplete[0]
        raise ValueError(f"setting {settings[i]!r} violates completeness by {residual[i]:.3e}")


def _check_lossless(settings: Sequence[str], outcomes: Sequence[str], stack: np.ndarray) -> np.ndarray:
    """Complete a lossless ``stack`` and raise what a check of one good element at a time raises first.

    Each setting's no-click row is set to ``1 - sum``.  Per setting, in label
    order: each good element's Hermiticity and positivity, then whether the
    outcome sum is a projector; after every setting, the no-click elements,
    with the error ``LossyDevice`` raises for them.  One ``psd_faults`` call
    covers the good and the no-click elements alike.  Returns the outcome sums.
    """
    n = len(outcomes)
    dim = stack.shape[-1]
    sums = _complete(stack, n)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite element is reported as its own fault below
        residual = np.max(np.abs(sums @ sums - sums), axis=(1, 2))
    bad = np.flatnonzero(residual > COMPLETENESS_TOL)
    herm, lowest = (f.reshape(len(stack), n + 1) for f in psd_faults(stack.reshape(-1, dim, dim)))
    good_herm, good_lowest = herm[:, :n].ravel(), lowest[:, :n].ravel()
    stop = (bad[0] + 1) * n if bad.size else good_herm.size
    raise_psd_fault(
        good_herm[:stop], good_lowest[:stop], lambda j: f"element ({settings[j // n]!r}, {outcomes[j % n]!r})"
    )
    if bad.size:
        i = bad[0]
        raise ValueError(f"outcome sum for setting {settings[i]!r} is not a projector (residual {residual[i]:.3e})")
    raise_psd_fault(herm[:, n], lowest[:, n], lambda i: f"POVM element ({settings[i]!r}, {NOCLICK})")
    return sums


class LosslessDevice(LossyDevice):
    """Device whose good outcomes sum to a projector for every setting.

    Acting on a state supported inside that projector it always produces a
    good outcome.  It is the lossy device whose no-click element is
    ``1 - support``, stored and read as any ``LossyDevice`` is.  ``support``
    maps each setting to its projector; it is validated to be idempotent and
    to match the outcome sum.  ``povm`` is a mapping or a good-element stack,
    as for ``LossyDevice``, but a mapping's no-click elements are not read.
    """

    def __init__(self, dim: int, settings: Sequence[str], outcomes: Sequence[str], povm: Elements):
        dim = int(dim)
        settings, outcomes = _labels(settings, outcomes)
        stack = np.empty((len(settings), len(outcomes) + 1, dim, dim), dtype=complex)
        _fill(stack, settings, outcomes, povm, lambda i: _check_lossless(settings[:i], outcomes, stack[:i]))
        sums = _check_lossless(settings, outcomes, stack)
        self._finish(dim, settings, outcomes, stack)
        self.support = dict(zip(settings, sums))

    def common_support(self) -> np.ndarray | None:
        """The shared support projector, or None if it differs across settings."""
        first = self.support[self.settings[0]]
        for x in self.settings[1:]:
            if np.max(np.abs(self.support[x] - first)) > COMPLETENESS_TOL:
                return None
        return first

    def to_lossy(self) -> LossyDevice:
        """This device itself: it already is the lossy device completed by ``1 - support``."""
        return self


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
