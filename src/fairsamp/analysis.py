"""Fair-sampling verdicts, approximate deviations and single-device bounds.

A device samples fairly when its click elements are proportional across
settings: the common quantum part filters the state independently of the
setting, so post-selected data is reproduced by a unit-efficiency device
measuring the filtered state.  This module decides that property exactly,
quantifies near-misses by an operator-norm epsilon, constructs the ideal
device and filtered state realizing the bound, and evaluates the companion
bounds for imperfectly prepared states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .device import LossyDevice, LosslessDevice, ZeroAcceptanceError, total_variation
from .linalg import (
    COMPLETENESS_TOL,
    VERDICT_TOL,
    ZERO_ACCEPTANCE,
    as_operator,
    assert_density,
    dagger,
    norms_exceed,
    operator_norms,
    sqrt_pinv_sqrt,
    support_and_pinv_sqrt,
    tensor,
    trace_norm,
)


class Reference:
    """A reference operator ``mq`` bound to the device whose click elements it is compared with.

    ``support``, ``pinv`` (the pseudo-inverse square root, which conjugates
    click elements into the ideal device) and ``root`` (the square root, the
    local filter) come from one eigendecomposition of ``mq``, made when one
    of them is first read, each built as ``support_projector`` and
    ``sqrt_pinv_sqrt`` build it.  The conjugated click elements, and with
    them epsilon, are computed once too, for ``approximate_epsilon`` and
    ``ideal_device_from`` alike.  Build one with ``reference(dev, mq)``; a
    ``FairSamplingVerdict`` carries the one it reports.  A matrix whose
    shape is not the device's ``(dim, dim)`` raises ``ValueError`` before
    anything multiplies it.
    """

    def __init__(self, mq: np.ndarray | None, device: LossyDevice):
        if mq is None:
            live = device.live
            mq = sum(device.click_elements()[live] / device.click_norms[live, None, None]) / live.size
        elif np.shape(mq) != (device.dim,) * 2:
            raise ValueError(f"reference operator has shape {np.shape(mq)}, but the device has dimension {device.dim}")
        self.mq, self.device = mq, device

    @functools.cached_property
    def _decomposition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return support_and_pinv_sqrt(self.mq, name="reference operator")

    support = property(lambda self: self._decomposition[0], doc="The support projector of ``mq``.")
    pinv = property(lambda self: self._decomposition[1], doc="The pseudo-inverse square root of ``mq``.")
    root = property(lambda self: self._decomposition[2], doc="The square root of ``mq``.")

    @functools.cached_property
    def _conjugation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(live setting indices, gaps ``support - mt / s``, norms ``s``, epsilon: the largest gap norm).

        ``mt = pinv @ click @ pinv`` for each live setting's click element.
        """
        live, conjugated, norms = _conjugated_clicks(self.device, self.support, self.pinv)
        gaps = self.support - conjugated
        return live, gaps, norms, float(operator_norms(gaps).max())


def reference(dev: LossyDevice, mq: np.ndarray | Reference | None = None) -> Reference:
    """The ``Reference`` of ``mq`` for ``dev``; of ``default_mq(dev)`` when ``mq`` is None.

    A ``Reference`` built for ``dev`` is returned as it is, with what it has
    computed already; one built for another device raises ``ValueError``.
    """
    if not isinstance(mq, Reference):
        return Reference(mq, dev)
    if mq.device is not dev:
        raise ValueError("the reference was built for another device")
    return mq


@dataclass
class FairSamplingVerdict:
    """Classification of a device plus the extracted filter data.

    For a device passing the weak test, ``quantum_elem`` is the shared click
    element normalized to unit operator norm and ``classical_eff`` collects
    the per-setting acceptance scales; ``epsilon`` is 0.  Otherwise epsilon
    quantifies the best approximate-fair-sampling deviation found for
    ``quantum_elem`` (the default reference unless one was supplied), whose
    ``Reference`` is ``reference``.
    """

    weak: bool
    strong: bool
    homogeneous: bool
    classical_eff: dict[str, float]
    quantum_elem: np.ndarray
    support: np.ndarray
    epsilon: float
    reference: Reference | None = field(default=None, repr=False)


class NecessaryConditions(NamedTuple):
    weak_consistent: bool
    strong_consistent: bool


@dataclass
class ImperfectStateReport:
    """Post-selection bound for a state with weight outside the calibrated space."""

    eps_prime: float
    coherence_trace_norm: float
    tv_bound: float
    tv_measured: float


@dataclass
class StateDependentResult:
    holds: bool
    psi_click: np.ndarray | None
    eq: dict[str, float] = field(default_factory=dict)


def _pairwise_proportional(mats: np.ndarray, norms: np.ndarray, tol: float) -> bool:
    """Norm-scaled residual test on a ``(k, d, d)`` stack with operator norms ``norms``.

    ``||A s_B - B s_A|| <= tol * max(s_A, s_B)`` for every pair; the residuals
    against one matrix are taken over the stack of the later ones at once.
    """
    for i in range(len(mats) - 1):
        later = norms[i + 1:]
        residual = mats[i] * later[:, None, None] - mats[i + 1:] * norms[i]
        if norms_exceed(residual, tol * np.maximum(norms[i], later)).any():
            return False
    return True


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Raise ``ValueError`` naming ``name`` unless the decision tolerance ``tol`` is finite and non-negative.

    Every comparison with a NaN tolerance is false, so no residual would be found too large; an
    infinite one would pass every test and a negative one fail every test.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"{name} must be a finite non-negative number, got {tol!r}")


def check_exact(
    dev: LossyDevice, tol: float = VERDICT_TOL, mq: np.ndarray | Reference | None = None
) -> FairSamplingVerdict:
    """Decide weak / strong / homogeneous fair sampling at the given tolerance.

    Weak holds iff all click elements are pairwise proportional; strong
    additionally requires the common element to be proportional to the
    identity on the full space; homogeneous requires the per-setting scales
    to coincide.  For devices failing the weak test, epsilon reports the
    approximate deviation with respect to the uniform-average reference.
    Erased settings (not in ``dev.live``) are left out of the weak test and
    of epsilon; they keep their entry in ``classical_eff``.  A device with
    no live setting raises ``ZeroAcceptanceError``.
    With ``mq`` (a matrix or a ``Reference``), ``quantum_elem``, ``support``
    and ``epsilon`` come from that reference instead; the flags stay the device's.
    """
    check_tolerance(tol)
    weak_mq = _weak_reference(dev, tol)
    norms = dev.click_norms
    weak = weak_mq is not None
    ref = reference(dev, weak_mq if mq is None else mq)
    return FairSamplingVerdict(
        weak=weak,
        strong=weak and not norms_exceed((weak_mq - np.eye(dev.dim))[None], tol)[0],
        homogeneous=weak and float(norms.max() - norms.min()) <= tol,
        classical_eff=dict(zip(dev.settings, norms.tolist())),
        quantum_elem=ref.mq,
        support=ref.support,
        epsilon=0.0 if weak and mq is None else approximate_epsilon(dev, ref),
        reference=ref,
    )


def _weak_reference(dev: LossyDevice, tol: float = VERDICT_TOL) -> np.ndarray | None:
    """The weak test of ``check_exact``: the reference ``mq``, or None when the test fails.

    ``mq`` is the first live click element scaled to unit operator norm.  A
    device with no live setting raises ``ZeroAcceptanceError``.
    """
    clicks, norms, live = dev.click_elements(), dev.click_norms, dev.live
    if not _pairwise_proportional(clicks[live], norms[live], tol):
        return None
    first = live[0]
    return clicks[first] / norms[first]


def default_mq(dev: LossyDevice) -> np.ndarray:
    """Uniform average of the norm-scaled click elements.

    Erased settings (click norm at most ZERO_ACCEPTANCE) carry no shape
    information and are skipped; a device with no live setting raises
    ``ZeroAcceptanceError``.
    """
    return reference(dev).mq


def _conjugated_clicks(dev: LossyDevice, pi: np.ndarray, pinv: np.ndarray):
    """(live setting indices, stack of ``mt / s``, norms ``s``) for ``mt = pinv @ click @ pinv``.

    Only ``dev.live`` is read; a live click element must lie inside the
    reference support ``pi`` and click somewhere on it.  The first setting,
    in label order, that fails either test is named in the error.
    """
    live = dev.live
    mc, norms = dev.click_elements()[live], dev.click_norms[live]
    residual = pi @ mc @ pi - mc
    leaks = norms_exceed(residual, VERDICT_TOL * np.maximum(1.0, norms))
    mt = pinv @ mc @ pinv
    s = operator_norms(mt)
    bad = leaks | (s <= 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        x = dev.settings[live[j]]
        if leaks[j]:
            leak = operator_norms(residual[j:j + 1])[0]
            raise ValueError(
                f"click element for setting {x!r} leaks outside the reference support (residual {leak:.3e})"
            )
        raise ZeroAcceptanceError(f"setting {x!r} clicks only outside the reference support")
    return live, mt / s[:, None, None], s


def approximate_epsilon(dev: LossyDevice, mq: np.ndarray | Reference) -> float:
    """Operator-norm deviation of the normalized conjugated click elements.

    For each live setting, conjugate the click element by the pseudo-inverse
    square root of ``mq``, normalize, and measure the distance to the
    support projector; the maximum over settings is the epsilon of
    approximate fair sampling.  Erased settings do not contribute; a device
    with no live setting raises ``ZeroAcceptanceError``.
    """
    *_, epsilon = reference(dev, mq)._conjugation
    return epsilon


def ideal_device_from(dev: LossyDevice, mq: np.ndarray | Reference) -> LosslessDevice:
    """Unit-efficiency device reproducing post-selected statistics up to the epsilon bound.

    Each good element is conjugated and normalized like the click element,
    and the per-setting deficit from the support projector is spread
    uniformly over the outcomes so completeness holds exactly.  Only the
    live settings get a POVM: erased ones never appear in post-selected data,
    and a device with none raises ``ZeroAcceptanceError``.
    The elements are built as one stack, which the device takes as it is.
    """
    ref = reference(dev, mq)
    live, gaps, norms, epsilon = ref._conjugation
    if epsilon >= 1.0:
        raise ValueError(f"approximate deviation {epsilon:.3f} >= 1; no ideal device exists")
    n = len(dev.outcomes)
    stack = ref.pinv @ dev.stack[live, :n] @ ref.pinv / norms[:, None, None, None] + gaps[:, None] / n
    return LosslessDevice(dev.dim, [dev.settings[i] for i in live], dev.outcomes, stack)


def _checked_state(mqs: Sequence[np.ndarray | Reference], rho) -> np.ndarray:
    """``rho`` checked with ``assert_density``, after the dimensions of ``mqs`` are checked to multiply to its own.

    A mismatch raises ``ValueError`` before any spectral work.
    """
    rho = as_operator(rho)
    dims = [np.shape(mq.mq if isinstance(mq, Reference) else mq)[0] for mq in mqs]
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"reference dimensions {dims} do not match state dimension {rho.shape[0]}")
    return assert_density(rho)


def _filter(
    mqs: Sequence[np.ndarray | Reference], rho: np.ndarray, vanishes: str = "global filter acceptance {:.3e} vanishes"
) -> tuple[np.ndarray, float]:
    """``rho`` conjugated by the tensor product of the square roots of ``mqs`` and normalized, and the acceptance.

    ``rho`` must be a state whose dimension the references fit (``_checked_state``).
    A ``Reference`` gives its ``root``.  An acceptance at most ZERO_ACCEPTANCE
    raises ``ZeroAcceptanceError`` with ``vanishes``, the global filter's text
    unless given, formatted with it.
    """
    sq = tensor([mq.root if isinstance(mq, Reference) else sqrt_pinv_sqrt(mq)[0] for mq in mqs])
    branch = sq @ rho @ sq
    eq = float(np.trace(branch).real)
    if eq <= ZERO_ACCEPTANCE:
        raise ZeroAcceptanceError(vanishes.format(eq))
    return branch / eq, eq


def filtered_state(mq: np.ndarray | Reference, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Conjugate a state by sqrt(mq) and renormalize; returns (state, acceptance).

    For a ``Reference``, its ``root`` is the square root.  A reference whose
    dimension is not the state's, or a ``rho`` that is not a density matrix,
    raises ``ValueError``.
    """
    return _filter([mq], _checked_state([mq], rho), "filter acceptance {:.3e} vanishes for this state")


def tv_bound(epsilon: float) -> float:
    """Total-variation bound epsilon / (1 - epsilon) for post-selected statistics."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    return epsilon / (1.0 - epsilon)


def imperfect_state_bound(
    dev_hat: LossyDevice, rho_hat: np.ndarray, good_dim: int, x: str
) -> ImperfectStateReport:
    """Bound the post-selection error caused by weight outside the calibrated block.

    ``rho_hat`` is block-structured with the leading ``good_dim`` rows and
    columns spanning the calibrated space.  The report contains the weight
    on the orthogonal block, the trace norm of the coherence block, the
    resulting bound and the actually measured total-variation distance
    between the two post-selected distributions, read as the device reads
    them.  A ``rho_hat`` that is not a density matrix, or not of the device's
    dimension, raises ``ValueError``; a vanishing acceptance of setting ``x``
    on either state raises ``ZeroAcceptanceError`` naming it.
    """
    rho_hat = assert_density(rho_hat)
    d = rho_hat.shape[0]
    g = int(good_dim)
    if not 0 < g < d:
        raise ValueError(f"good_dim must lie strictly between 0 and {d}")

    eps_prime = float(np.trace(rho_hat[g:, g:]).real)
    c_norm = trace_norm(rho_hat[:g, g:])
    weight = float(np.trace(rho_hat[:g, :g]).real)
    if weight <= 0.0:
        raise ValueError("the state has no weight on the calibrated block")

    # The good block over its own trace, so of unit trace whatever rho_hat's drift, embedded in the full space.
    rho_good = np.zeros_like(rho_hat)
    rho_good[:g, :g] = rho_hat[:g, :g] / weight

    # Post-selected first: a vanishing acceptance raises ZeroAcceptanceError naming ``x`` before any bound is formed.
    p_hat = dev_hat.postselected_distribution(x, rho_hat)
    p_good = dev_hat.postselected_distribution(x, rho_good)
    bound = 2.0 * (c_norm + eps_prime) / max(dev_hat.efficiency(x, rho_hat), dev_hat.efficiency(x, rho_good))
    return ImperfectStateReport(
        eps_prime=eps_prime, coherence_trace_norm=c_norm, tv_bound=bound, tv_measured=total_variation(p_hat, p_good)
    )


def necessary_conditions(
    eff_table: Mapping[str, Mapping[str, float]], tol: float = VERDICT_TOL
) -> NecessaryConditions:
    """Consistency checks on observed efficiencies versus remote configurations.

    ``eff_table[x][r]`` is the acceptance probability of the local device at
    setting x given remote configuration r.  Fair sampling forces the table
    to factorize (rank one, tested through the second singular value);
    strong fair sampling forces every row to be constant.  These are
    necessary conditions only.  Every row must be non-empty and name the
    first row's remote configurations, no fewer and no more, and every entry
    must be a finite probability, in [-COMPLETENESS_TOL, 1 + COMPLETENESS_TOL],
    or ``ValueError`` names the setting and the configuration.
    """
    check_tolerance(tol)
    settings = list(eff_table)
    if not settings:
        raise ValueError("empty efficiency table")
    first = eff_table[settings[0]]
    for x in settings:
        if not eff_table[x]:
            raise ValueError(f"setting {x!r} has no remote configuration")
        odd = [r for r in (*first, *eff_table[x]) if (r in first) != (r in eff_table[x])]
        if odd:
            raise ValueError(f"settings {settings[0]!r} and {x!r} differ in remote configuration {odd[0]!r}")
    matrix = np.array([[eff_table[x][r] for r in first] for x in settings], dtype=float)
    bad = np.argwhere(~((matrix >= -COMPLETENESS_TOL) & (matrix <= 1.0 + COMPLETENESS_TOL)))  # NaN included
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"setting {settings[i]!r} at remote configuration {list(first)[j]!r} has efficiency "
            f"{float(matrix[i, j])!r}, not a probability (tol {COMPLETENESS_TOL:.1e})"
        )
    svals = np.linalg.svd(matrix, compute_uv=False)
    scale = svals[0] if svals[0] > 0.0 else 1.0
    weak_ok = bool(len(svals) < 2 or svals[1] <= tol * scale)
    strong_ok = bool(np.max(matrix.max(axis=1) - matrix.min(axis=1)) <= tol)
    return NecessaryConditions(weak_consistent=weak_ok, strong_consistent=strong_ok)


def state_dependent_check(
    filter_click: Mapping[str, Sequence[np.ndarray]],
    psi: np.ndarray,
    party_dims: Sequence[int],
    party: int,
    tol: float = VERDICT_TOL,
) -> StateDependentResult:
    """Test whether per-setting local filters act identically on this specific state.

    ``filter_click`` maps each setting to the Kraus operators of the
    accepting branch on the chosen party's factor.  The check passes when
    the filtered (unnormalized) global states are pairwise proportional, in
    which case the common normalized state and the per-setting acceptance
    scalars are returned.  A ``party`` outside ``range(len(party_dims))``,
    or a Kraus operator that is not ``party_dims[party]`` square, raises
    ``ValueError`` naming the party or the setting, and so does a map with
    no setting, before any other check.
    """
    if not filter_click:
        raise ValueError("filter_click holds no setting")
    check_tolerance(tol)
    psi = as_operator(psi)
    dims = [int(d) for d in party_dims]
    if int(np.prod(dims)) != psi.shape[0]:
        raise ValueError("party dimensions do not match the state")
    if not 0 <= party < len(dims):
        raise ValueError(f"party {party} is not one of the {len(dims)} parties of party_dims")
    before, after = np.eye(int(np.prod(dims[:party]))), np.eye(int(np.prod(dims[party + 1:])))

    sigmas: dict[str, np.ndarray] = {}
    for x, kraus_list in filter_click.items():
        sigma = np.zeros_like(psi)
        for k in kraus_list:
            if np.shape(k) != (dims[party],) * 2:
                raise ValueError(
                    f"setting {x!r} has a Kraus operator of shape {np.shape(k)}; "
                    f"party {party} has dimension {dims[party]}"
                )
            ke = tensor([before, k, after])
            sigma = sigma + ke @ psi @ dagger(ke)
        sigmas[x] = sigma

    traces = {x: float(np.trace(s).real) for x, s in sigmas.items()}
    if max(traces.values(), default=0.0) <= ZERO_ACCEPTANCE:
        raise ZeroAcceptanceError("every setting filters the state to zero")
    stacked = np.array(list(sigmas.values()))
    if not _pairwise_proportional(stacked, operator_norms(stacked), tol):
        return StateDependentResult(holds=False, psi_click=None, eq=traces)
    x0 = next(x for x, t in traces.items() if t > ZERO_ACCEPTANCE)
    return StateDependentResult(holds=True, psi_click=sigmas[x0] / traces[x0], eq=traces)
