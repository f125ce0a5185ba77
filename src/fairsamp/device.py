"""Lossy measurement devices as POVMs over settings and outcomes.

A device maps each (setting, outcome) pair to a POVM element; the reserved
outcome label ``"noclick"`` stands for a failed detection.  Raw and
post-selected outcome statistics are evaluated by trace rules against a
density matrix.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from .linalg import (
    COMPLETENESS_TOL,
    MAX_DIM,
    ZERO_ACCEPTANCE,
    as_operator,
    assert_density,
    operator_norms,
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
    label order, the no-click element last; everything else is read from it.
    ``click_elements()``, ``click_norms`` and ``live`` are computed once,
    when first read, and are read-only too.  The input ``povm`` is a mapping
    setting -> outcome -> element, or the good elements as one stack of
    shape ``(settings, outcomes, dim, dim)``; either is copied.  A
    no-click element the input omits (a stack always does) is reconstructed
    from completeness; if present, the full sum must equal the identity
    within COMPLETENESS_TOL.  Every element
    is checked for Hermiticity and positivity at once (one
    ``linalg.psd_faults`` call per device); errors name the first faulty
    ``POVM element`` in label order, as a check of one element at a time
    would.  ``LosslessDevice`` is built by this constructor and checked by
    this ``_check`` too, plus its projector rule.
    """

    def __init__(self, dim: int, settings: Sequence[str], outcomes: Sequence[str], povm: Elements):
        dim = _dimension(dim)
        settings, outcomes = _labels(settings, outcomes)
        stack = np.empty((len(settings), len(outcomes) + 1, dim, dim), dtype=complex)
        given = np.zeros(len(settings), dtype=bool)  # which no-click elements the input holds
        copied, fault = _fill(stack, settings, outcomes, povm, given)
        clicks = _click_sums(stack[:copied], len(outcomes))
        self._check(settings[:copied], outcomes, stack[:copied], given[:copied], clicks)
        if fault is not None:
            raise fault  # a structural fault comes after those of the settings copied before it
        stack.setflags(write=False)
        self.dim, self.settings, self.outcomes, self.stack = dim, settings, outcomes, stack

    def _check(
        self, settings: Sequence[str], outcomes: Sequence[str], stack: np.ndarray, given: np.ndarray, clicks: np.ndarray
    ) -> None:
        """Complete a filled ``stack`` and raise what a check of one element at a time, in label order, raises first.

        ``clicks`` holds each setting's sum of good elements.  The no-click
        row of each setting not flagged ``given`` is set to ``1 - sum``.  Per
        setting: each good element's Hermiticity and positivity, then the
        completeness residual if the no-click element was given, then the
        no-click element.  One ``psd_faults`` call covers every element.
        """
        n = len(outcomes)
        eye = np.eye(stack.shape[-1], dtype=complex)
        np.subtract(eye, clicks, out=stack[:, n], where=~given[:, None, None])
        incomplete = np.empty(0, dtype=int)
        if given.any():
            with np.errstate(invalid="ignore"):  # a non-finite element is reported as its own fault below
                residual = np.max(np.abs(clicks + stack[:, n] - eye), axis=(1, 2))
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

    def _index(self, x: str) -> int:
        """Row of setting ``x`` in ``stack``; an unknown setting raises ``KeyError`` naming it."""
        return _position(self.settings, x, "setting")

    def element(self, x: str, a: str) -> np.ndarray:
        """Outcome ``a``'s element at setting ``x``, a view into ``stack``; unknown labels raise ``KeyError``."""
        return self.stack[self._index(x), _position((*self.outcomes, NOCLICK), a, "outcome")]

    def click_element(self, x: str) -> np.ndarray:
        """Sum of the good-outcome elements for setting x: its row of ``click_elements()``."""
        return self.click_elements()[self._index(x)]

    def click_elements(self) -> np.ndarray:
        """``click_element`` of every setting in label order, shape ``(settings, dim, dim)``; read-only, summed once."""
        return self._click_stack

    @functools.cached_property
    def _click_stack(self) -> np.ndarray:
        clicks = _click_sums(self.stack, len(self.outcomes))
        clicks.setflags(write=False)
        return clicks

    @functools.cached_property
    def click_norms(self) -> np.ndarray:
        """Operator norms of ``click_elements()``, in label order; read-only, taken once, by one batched SVD."""
        norms = operator_norms(self._click_stack)
        norms.setflags(write=False)
        return norms

    @functools.cached_property
    def live(self) -> np.ndarray:
        """Indices of the settings whose click norm exceeds ZERO_ACCEPTANCE, read-only; the rest are erased.

        A device with no live setting never accepts and raises ``ZeroAcceptanceError``.
        """
        live = np.flatnonzero(self.click_norms > ZERO_ACCEPTANCE)
        if not live.size:
            raise ZeroAcceptanceError("all click elements vanish; the device never accepts")
        live.setflags(write=False)
        return live

    def noclick_element(self, x: str) -> np.ndarray:
        return self.element(x, NOCLICK)

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
        values = np.einsum("aij,ji->a", self.stack[self._index(x)], rho).real
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


def _position(labels: tuple[str, ...], label: str, kind: str) -> int:
    """Index of ``label`` in ``labels``; one not there raises ``KeyError`` naming it as an unknown ``kind``."""
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(f"unknown {kind} {label!r}") from None


def _dimension(dim) -> int:
    """``dim`` as an int; one outside ``[1, MAX_DIM]`` raises ``ValueError`` naming it.

    Checked before any element is allocated: a stack input never passes through ``as_operator``.
    """
    dim = int(dim)
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"device dimension {dim} outside [1, {MAX_DIM}]")
    return dim


def _labels(settings: Sequence[str], outcomes: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Setting and good-outcome labels as tuples of str; no setting, duplicates and a good ``noclick`` raise."""
    settings = tuple(str(x) for x in settings)
    outcomes = tuple(str(a) for a in outcomes)
    if not settings:
        raise ValueError("a device needs at least one setting; the setting list is empty")
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


def _fill(
    stack: np.ndarray, settings: Sequence[str], outcomes: Sequence[str], povm: Elements, given: np.ndarray
) -> tuple[int, Exception | None]:
    """Copy ``povm``, a mapping or a good-element stack, into ``stack``; return the settings copied and any fault.

    A mapping's no-click elements are copied into the last row too and
    flagged in ``given``.  The fault, a ``ValueError`` or ``TypeError``, is
    returned, not raised, with the number of settings copied before it: a
    stack of the wrong shape (none copied), or a missing setting or element,
    or an element of the wrong dimension, naming the setting and outcome.
    """
    n = len(outcomes)
    if isinstance(povm, np.ndarray):
        if povm.shape != stack[:, :n].shape:
            return 0, ValueError(f"element stack has shape {povm.shape}, expected {stack[:, :n].shape}")
        stack[:, :n] = povm
        return len(stack), None
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
            if NOCLICK in row:
                block[n] = _operator(dim, x, NOCLICK, row[NOCLICK])
                given[i] = True
        except (TypeError, ValueError) as fault:
            return i, fault
    return len(stack), None


def _click_sums(stack: np.ndarray, n: int) -> np.ndarray:
    """Each setting's sum of its ``n`` good elements in ``stack``, added left to right."""
    return sum(stack[:, :n].swapaxes(0, 1), np.zeros((len(stack), *stack.shape[2:]), dtype=complex))


class LosslessDevice(LossyDevice):
    """Device whose good outcomes sum to a projector for every setting.

    Acting on a state supported inside that projector it always produces a
    good outcome.  It is the lossy device whose no-click element is
    ``1 - support``: built by ``LossyDevice``'s constructor, stored and read
    as any ``LossyDevice`` is, and checked as one, with the same element
    names, plus the projector rule.  Each setting's support projector is
    its click element.  ``povm`` is a mapping or a good-element stack, as
    for ``LossyDevice``; a no-click element a mapping gives is checked for
    completeness and kept, as ``LossyDevice`` keeps it.
    """

    # The benchmark tracer (perfbench/tracer.py) wraps ``LosslessDevice.__init__`` by name.  An alias,
    # not a ``super()`` call, so a traced lossless construction is not counted as a lossy one too.
    __init__ = LossyDevice.__init__

    def _check(
        self, settings: Sequence[str], outcomes: Sequence[str], stack: np.ndarray, given: np.ndarray, clicks: np.ndarray
    ) -> None:
        """``LossyDevice._check``, then the projector rule: each setting's outcome sum must be idempotent.

        The lossy check covers the settings up to and including the first
        whose sum is not a projector, so within a setting ``1 - sum`` is
        checked before the rule, and a fault of an earlier setting is named
        before it.
        """
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite element is reported as its own fault
            residual = np.max(np.abs(clicks @ clicks - clicks), axis=(1, 2))
        bad = np.flatnonzero(residual > COMPLETENESS_TOL)
        stop = bad[0] + 1 if bad.size else len(stack)
        super()._check(settings[:stop], outcomes, stack[:stop], given[:stop], clicks[:stop])
        if bad.size:
            i = bad[0]
            raise ValueError(f"outcome sum for setting {settings[i]!r} is not a projector (residual {residual[i]:.3e})")

    def common_support(self) -> np.ndarray | None:
        """The shared support projector, or None if the click elements differ across settings."""
        clicks = self.click_elements()
        return None if np.max(np.abs(clicks - clicks[0])) > COMPLETENESS_TOL else clicks[0]

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
