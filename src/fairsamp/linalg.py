"""Dense Hermitian linear algebra primitives shared by every other module.

All operators are plain complex numpy arrays.  Functions here validate their
inputs (Hermiticity, positivity) and implement the spectral constructions that
the rest of the toolkit is built on: support projectors, square roots and
pseudo-inverse square roots with the f(0) = 0 convention, operator and trace
norms, Kronecker products and partial traces.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

# The tolerance policy: every numerical threshold of the package is defined here and only here.
#: Largest entry of m - m^dagger accepted for a Hermitian input.
HERMITICITY_TOL = 1e-10
#: Eigenvalues in [-PSD_TOL, 0) are clamped to 0; a state's trace may miss 1 by this much.
PSD_TOL = 1e-10
#: Relative eigenvalue cutoff for rank decisions (scaled by the largest eigenvalue).
CUTOFF_FACTOR = 1e-9
#: Residual allowed in POVM and Kraus completeness and in probability sums; a
#: trace read as a probability may fall this far below 0 before it is an error.
COMPLETENESS_TOL = 1e-9
#: A click element or acceptance probability at or below this means the setting is erased.
ZERO_ACCEPTANCE = 1e-12
#: Exact fair-sampling decisions: proportionality, reference-support leakage.
VERDICT_TOL = 1e-8
#: Hard cap on matrix dimension; dense eigendecompositions only.
MAX_DIM = 4096
#: Smallest matrix dimension at which ``psd_faults`` and ``norms_exceed`` screen before their
#: spectral call; below it the screen saves nothing and the spectral call runs alone.
SCREEN_FROM_DIM = 8
#: Relative slack of ``norms_exceed``'s Frobenius screen, far wider than its rounding (at most
#: about ``MAX_DIM**2`` times the unit roundoff, 2e-9) and than the SVD's.
NORM_SCREEN_SLACK = 1e-6

# Bounds of Python's float text format, not tolerances: serialize's float-block writer reads them.
#: Magnitudes at which orjson and ``float.__repr__`` spell a finite double differently.  Both
#: write the shortest digits that read back as the value, and both write them positionally in
#: ``[POSITIONAL_FROM, EXPONENT_FROM)`` and as ``d.ddde-XX`` below ``PADDED_EXPONENT_FROM``.
#: In ``[PADDED_EXPONENT_FROM, POSITIONAL_FROM)`` repr pads a one-digit exponent to two
#: (``3.49e-06``, ``1e-05``) where orjson writes ``3.49e-6`` or, from 1e-5, ``0.00001``; from
#: ``EXPONENT_FROM`` on repr signs the exponent (``1e+16``) and orjson does not (``1e16``).
PADDED_EXPONENT_FROM = 1e-9
POSITIONAL_FROM = 1e-4
EXPONENT_FROM = 1e16


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPositiveError(ValueError):
    """Input matrix has an eigenvalue below the negative tolerance."""


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, enforcing the dimension cap."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds the cap {MAX_DIM}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def _check_hermitian(dev: float, name: str) -> None:
    """Raise for a Hermiticity deviation ``dev`` (``_hermiticity``'s value) above the tolerance, or NaN."""
    if np.isnan(dev):
        raise ValueError(f"{name} has a non-finite entry")
    if dev > HERMITICITY_TOL:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {HERMITICITY_TOL:.1e})")


def _check_positive(lowest: float, name: str) -> None:
    if lowest < -PSD_TOL:
        raise NotPositiveError(f"{name} has negative eigenvalue {lowest:.3e} (tol {PSD_TOL:.1e})")


def _hermiticity(stack: np.ndarray) -> np.ndarray:
    """Largest entry of ``|m - m^dagger|`` per matrix of a ``(k, d, d)`` stack, NaN if it has a non-finite entry.

    A non-finite entry always makes the deviation non-finite, so only such
    matrices are searched for one; a finite matrix whose deviation overflows
    keeps ``inf``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.max(np.abs(stack - np.conj(stack).swapaxes(1, 2)), axis=(1, 2))
    if not math.isfinite(herm.max(initial=0.0)):
        odd = np.flatnonzero(~np.isfinite(herm))
        herm[odd[~np.isfinite(stack[odd]).all(axis=(1, 2))]] = np.nan
    return herm


def assert_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_operator(m)
    _check_hermitian(_hermiticity(a[None])[0], name)
    return a


def eigh_psd(m, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD-within-tolerance Hermitian matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to 0 so that numerical PSD drift
    does not abort an analysis; anything below -PSD_TOL raises.
    Returns (eigenvalues ascending, eigenvector columns).
    """
    a = assert_hermitian(m, name=name)
    w, v = np.linalg.eigh(a)
    _check_positive(w[0], name)
    return np.clip(w, 0.0, None), v


def psd_faults(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity deviation and lowest eigenvalue of every matrix of a ``(k, d, d)`` stack.

    One reduction and at most one ``eigvalsh`` call cover the whole stack.
    The eigenvalues of a matrix that is not Hermitian mean nothing, and
    ``raise_psd_fault`` reports its Hermiticity before reading them.  A
    matrix whose deviation is not finite (NaN for a non-finite entry, see
    ``_hermiticity``) is never passed to LAPACK; its lowest eigenvalue reads NaN.

    From dimension ``SCREEN_FROM_DIM`` on, ``_psd_floors`` first tries to
    certify the whole stack with one Cholesky factorisation; when it does,
    each "lowest eigenvalue" is a floor above ``-PSD_TOL`` that ``eigvalsh``'s
    value would not fall below, and ``eigvalsh`` is not called.  Either way
    ``lowest < -PSD_TOL`` marks exactly the matrices ``eigvalsh`` would, and
    a matrix so marked carries ``eigvalsh``'s value.
    """
    herm = _hermiticity(stack)
    if not math.isfinite(herm.max(initial=0.0)):
        finite = np.isfinite(herm)
        lowest = np.full(herm.shape, np.nan)
        lowest[finite] = psd_faults(stack[finite])[1]
        return herm, lowest
    floors = _psd_floors(stack) if stack.shape[-1] >= SCREEN_FROM_DIM else None
    return herm, np.linalg.eigvalsh(stack)[:, 0] if floors is None else floors


def _psd_floors(stack: np.ndarray) -> np.ndarray | None:
    """Certified floors ``>= -PSD_TOL`` under the lowest eigenvalue of every matrix, or None.

    Cholesky reads the lower triangle, as ``eigvalsh`` does.  If it factors
    ``B = A + (PSD_TOL / 2) I`` as ``L L^dagger``, then ``B + E`` is positive
    semidefinite for a backward error ``|E| <= gamma_(d+1) |L| |L^dagger|``
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), so
    ``||E||_2 <= gamma_(d+1) ||L||_F^2``, at most about ``d^2 eps ||A||_2``.
    The bound taken, ``4 (d + 1) eps ||L||_F^2``, covers that with room for
    complex arithmetic and for the shift's own rounding, and the lowest
    eigenvalue of ``A`` is at least ``-(PSD_TOL / 2 + bound)``.  The stack is
    certified only when every bound is at most ``PSD_TOL / 8``: ``eigvalsh``'s
    own error is of the same order, so its lowest eigenvalue stays above
    ``-PSD_TOL`` with room to spare.  A stack that does not factor, or whose
    bound is larger (or not finite), returns None.
    """
    d = stack.shape[-1]
    try:
        factor = np.linalg.cholesky(stack + (PSD_TOL / 2) * np.eye(d))
    except np.linalg.LinAlgError:
        return None
    bound = 4 * (d + 1) * np.finfo(float).eps * np.sum(factor.real**2 + factor.imag**2, axis=(1, 2))
    if not np.all(bound <= PSD_TOL / 8):
        return None
    return -(PSD_TOL / 2 + bound)


def raise_psd_fault(herm: np.ndarray, lowest: np.ndarray, name: Callable[[int], str]) -> None:
    """Raise what ``eigh_psd`` raises for the first faulty matrix of a stack, named ``name(index)``.

    ``herm`` and ``lowest`` are ``psd_faults`` of the stack (or of a slice of it).
    """
    bad = ~(herm <= HERMITICITY_TOL) | (lowest < -PSD_TOL)
    if bad.any():
        j = int(np.argmax(bad))
        _check_hermitian(herm[j], name(j))
        _check_positive(lowest[j], name(j))


def assert_density(rho, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD and of unit trace within PSD_TOL.

    The Hermiticity and lowest-eigenvalue checks are those of ``eigh_psd``, on eigenvalues alone.
    """
    a = assert_hermitian(rho, name=name)
    _check_positive(np.linalg.eigvalsh(a)[0], name)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > PSD_TOL:
        raise ValueError(f"{name} has trace {tr!r}, expected 1")
    return a


def _above_cutoff(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above CUTOFF_FACTOR times the largest one (scale-invariant rank)."""
    return w > CUTOFF_FACTOR * w.max(initial=0.0)


def support_projector(m) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above the cutoff.

    The cutoff is CUTOFF_FACTOR times the largest eigenvalue, which makes the
    rank decision scale-invariant.
    """
    w, v = eigh_psd(m, name="support_projector input")
    return _support_of(w, v)


def _support_of(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    vk = v[:, _above_cutoff(w)]
    return vk @ dagger(vk)


def _root_factors(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(p) and 1/sqrt(p) of the eigenvalues above the cutoff, 0 for the others."""
    keep = _above_cutoff(w)
    sq = np.where(keep, np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return sq, np.where(keep, 1.0 / np.where(keep, sq, 1.0), 0.0)


def sqrt_pinv_sqrt(m) -> tuple[np.ndarray, np.ndarray]:
    """Square root and pseudo-inverse square root of a PSD matrix.

    Spectral mapping with p -> sqrt(p) and p -> 1/sqrt(p) for p above the
    cutoff, and 0 otherwise, so the pseudo-inverse is defined on the support.
    """
    w, v = eigh_psd(m, name="sqrt input")
    sq, inv = _root_factors(w)
    return (v * sq) @ dagger(v), (v * inv) @ dagger(v)


def support_and_pinv_sqrt(m, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``support_projector(m)``, ``sqrt_pinv_sqrt(m)[1]`` and ``sqrt_pinv_sqrt(m)[0]`` from one eigendecomposition.

    Each operator is built as those functions build it, so all three are the same to the bit.
    """
    w, v = eigh_psd(m, name=name)
    sq, inv = _root_factors(w)
    return _support_of(w, v), (v * inv) @ dagger(v), (v * sq) @ dagger(v)


def operator_norm(m) -> float:
    """Largest singular value."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.norm(a, 2))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a ``(k, d, d)`` stack: ``operator_norm``'s SVD, batched.

    The singular values come in descending order, so the first is the one
    ``np.linalg.norm(stack, 2, axis=(1, 2))`` picks, from the same LAPACK call.
    """
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def norms_exceed(stack: np.ndarray, limits) -> np.ndarray:
    """``operator_norms(stack) > limits`` for a ``(k, d, d)`` stack, with the SVD only where it must decide.

    From dimension ``SCREEN_FROM_DIM`` on, the squared Frobenius norm ``F^2``
    decides first, from ``F^2 / d <= ||R||_2^2 <= F^2``: ``NORM_SCREEN_SLACK``
    covers the rounding of ``F^2`` and of the SVD, and ``2 d^2`` times the
    smallest normal double the squares that underflow.  An entry is decided
    there when both bounds lie on one side of its ``limits^2``, that is not
    negative, not NaN and, for "above", a normal double.  The SVD runs for
    the other entries, and for every entry below the gate.
    """
    d = stack.shape[-1]
    if d < SCREEN_FROM_DIM:
        return operator_norms(stack) > limits
    limits = np.broadcast_to(np.asarray(limits, dtype=float), stack.shape[:1])
    tiny = np.finfo(float).tiny
    sq = np.sum(stack.real**2 + stack.imag**2, axis=(1, 2))
    limit_sq = limits**2
    screened = np.isfinite(sq) & (limits >= 0)
    above = screened & (limit_sq >= tiny) & (sq * (1 - NORM_SCREEN_SLACK) / d > limit_sq)
    below = screened & (sq * (1 + NORM_SCREEN_SLACK) + 2 * d * d * tiny <= limit_sq)
    open_ = np.flatnonzero(~(above | below))
    if open_.size:
        above[open_] = operator_norms(stack[open_]) > limits[open_]
    return above


def trace_norm(m) -> float:
    """Sum of singular values; accepts rectangular blocks."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("trace_norm expects a matrix")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty list, in list order."""
    mats = [as_operator(o) for o in ops]
    if not mats:
        raise ValueError("tensor of an empty list is undefined")
    return reduce(np.kron, mats)


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the tensor factors not listed in ``keep``.

    ``dims`` are the local dimensions whose product must equal the matrix
    dimension; ``keep`` is a set of factor indices whose order is preserved.
    """
    a = as_operator(m)
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != a.shape[0]:
        raise ValueError(f"product of dims {dims} does not match dimension {a.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    # Reshape to 2n legs, contract the row/column legs of each traced factor.
    t = a.reshape(dims + dims)
    traced = 0
    for idx in range(n):
        if idx in keep:
            continue
        pos = idx - traced
        legs = t.ndim // 2
        t = np.trace(t, axis1=pos, axis2=legs + pos)
        traced += 1
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def projector(vec) -> np.ndarray:
    """Rank-1 projector |v><v| from a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def expect(op: np.ndarray, rho: np.ndarray) -> float:
    """Real part of Tr(op rho), read as sum_ij op_ij rho_ji without forming the product."""
    return float(np.einsum("ij,ji->", np.asarray(op), np.asarray(rho)).real)


def read_probability(p: float, name: str) -> float:
    """``p`` read as the probability of ``name``: drift down to -COMPLETENESS_TOL reads as 0."""
    if p < -COMPLETENESS_TOL:
        raise NotPositiveError(f"{name} has negative probability {p:.3e} (tol {COMPLETENESS_TOL:.1e})")
    return max(0.0, p)
