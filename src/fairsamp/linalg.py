"""Dense Hermitian linear algebra primitives shared by every other module.

All operators are plain complex numpy arrays.  Functions here validate their
inputs (Hermiticity, positivity) and implement the spectral constructions that
the rest of the toolkit is built on: support projectors, square roots and
pseudo-inverse square roots with the f(0) = 0 convention, operator and trace
norms, Kronecker products and partial traces.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
#: Relative eigenvalue cutoff for rank decisions (scaled by the largest eigenvalue).
CUTOFF_FACTOR = 1e-9
#: Hard cap on matrix dimension; dense eigendecompositions only.
MAX_DIM = 4096


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPositiveError(ValueError):
    """Input matrix has an eigenvalue below the negative tolerance."""


def as_operator(m, max_dim: int = MAX_DIM) -> np.ndarray:
    """Coerce to a square complex matrix, enforcing the dimension cap."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > max_dim:
        raise ValueError(f"dimension {a.shape[0]} exceeds the cap {max_dim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def assert_hermitian(m, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    a = as_operator(m)
    dev = float(np.max(np.abs(a - dagger(a))))
    if dev > tol:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return a


def eigh_psd(m, psd_tol: float = PSD_TOL, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD-within-tolerance Hermitian matrix.

    Eigenvalues in [-psd_tol, 0) are clamped to 0 so that numerical PSD drift
    does not abort an analysis; anything below -psd_tol raises.
    Returns (eigenvalues ascending, eigenvector columns).
    """
    a = assert_hermitian(m, name=name)
    w, v = np.linalg.eigh(a)
    if w[0] < -psd_tol:
        raise NotPositiveError(f"{name} has negative eigenvalue {w[0]:.3e} (tol {psd_tol:.1e})")
    return np.clip(w, 0.0, None), v


def assert_density(rho, tol: float = PSD_TOL, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within tol, unit trace."""
    a = as_operator(rho)
    eigh_psd(a, psd_tol=tol, name=name)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} has trace {tr!r}, expected 1")
    return a


def _effective_cutoff(w: np.ndarray, cutoff: float | None) -> float:
    if cutoff is not None:
        return cutoff
    top = float(w[-1]) if w.size else 0.0
    return CUTOFF_FACTOR * top


def support_projector(m, cutoff: float | None = None, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above the cutoff.

    The default cutoff is CUTOFF_FACTOR times the largest eigenvalue, which
    makes the rank decision scale-invariant.
    """
    w, v = eigh_psd(m, psd_tol=psd_tol, name="support_projector input")
    keep = w > _effective_cutoff(w, cutoff)
    vk = v[:, keep]
    return vk @ dagger(vk)


def sqrt_pinv_sqrt(
    m, cutoff: float | None = None, psd_tol: float = PSD_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Square root and pseudo-inverse square root of a PSD matrix.

    Spectral mapping with p -> sqrt(p) and p -> 1/sqrt(p) for p above the
    cutoff, and 0 otherwise, so the pseudo-inverse is defined on the support.
    """
    w, v = eigh_psd(m, psd_tol=psd_tol, name="sqrt input")
    keep = w > _effective_cutoff(w, cutoff)
    sq = np.where(keep, np.sqrt(np.where(keep, w, 1.0)), 0.0)
    inv = np.where(keep, 1.0 / np.where(keep, sq, 1.0), 0.0)
    return (v * sq) @ dagger(v), (v * inv) @ dagger(v)


def operator_norm(m) -> float:
    """Largest singular value."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.norm(a, 2))


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
    """Real part of Tr(op rho)."""
    return float(np.trace(np.asarray(op) @ np.asarray(rho)).real)
