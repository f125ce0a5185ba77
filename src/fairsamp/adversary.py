"""Detector designs that look fair while leaking settings and faking violations.

The hidden-variable detector draws r in {1,2,3,4} and implements a one-shot
projective branch per value; averaging over r reproduces an innocuous-looking
quarter-efficiency CHSH device, while the finer description acting on the
qubit together with the r register manifestly fails fair sampling.  Paired
with a source that reads both hidden values, post-selection yields
deterministic correlations saturating the algebraic CHSH bound from purely
separable states.  Every derived quantity is read from the branches' own
element stacks, labels and dimension and from the source table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .device import LossyDevice, projective_qubit_device
from .linalg import projector

_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}

#: (branch r, setting) -> outcome the branch is armed for, with its target ket.
_BRANCH_ARMING = {
    (1, "0"): ("+", "0"),
    (2, "0"): ("-", "1"),
    (3, "1"): ("+", "+"),
    (4, "1"): ("-", "-"),
}

#: Source table: (r_A, r_B) -> pair of ket labels, or None for the vacuum.
_SOURCE_TABLE: dict[tuple[int, int], tuple[str, str] | None] = {
    (1, 1): ("0", "0"), (1, 2): None, (1, 3): ("0", "+"), (1, 4): None,
    (2, 1): None, (2, 2): ("1", "1"), (2, 3): None, (2, 4): ("1", "-"),
    (3, 1): ("+", "0"), (3, 2): None, (3, 3): None, (3, 4): ("+", "-"),
    (4, 1): None, (4, 2): ("-", "1"), (4, 3): ("-", "+"), (4, 4): None,
}

SETTINGS = ("0", "1")
OUTCOMES = ("+", "-")
#: Setting pairs and their CHSH signs: the correlator of ("1", "1") enters negatively.
_CHSH_SIGNS = {xy: -1.0 if xy == ("1", "1") else 1.0 for xy in itertools.product(SETTINGS, SETTINGS)}


def makarov_traced() -> LossyDevice:
    """The device as its user sees it: CHSH measurements with flat efficiency 1/4."""
    return projective_qubit_device({"0": 0.0, "1": np.pi / 2.0}, efficiency=0.25)


@dataclass
class HiddenVariableDevice:
    """Mixture of single-shot branches, each drawn with probability ``branch_prob``.

    The branches share ``dim``, ``settings`` and ``outcomes``, which the device carries too.
    """

    branches: Mapping[int, LossyDevice]
    branch_prob: float = 0.25

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a hidden-variable device needs at least one branch")
        (r0, first), *rest = self.branches.items()
        self.dim, self.settings, self.outcomes = shape = first.dim, first.settings, first.outcomes
        for r, dev in rest:
            got = (dev.dim, dev.settings, dev.outcomes)
            if got != shape:
                raise ValueError(f"branch {r!r} has (dim, settings, outcomes) {got}, branch {r0!r} {shape}")

    def traced(self) -> LossyDevice:
        """Average the branches over the hidden variable."""
        n = len(self.outcomes)
        stack = self.branch_prob * sum(dev.stack[:, :n] for dev in self.branches.values())
        return LossyDevice(self.dim, self.settings, self.outcomes, stack)

    def adversary_device(self) -> LossyDevice:
        """The finer description: ``kron(element, |i><i|)`` summed over the branches i in sorted order.

        With R branches, branch i fills the diagonal slice ``[i::R, i::R]`` of the ``dim * R`` space.
        """
        n, r_dim = len(self.outcomes), len(self.branches)
        dim = self.dim * r_dim
        stack = np.zeros((len(self.settings), n, dim, dim), dtype=complex)
        for i, r in enumerate(sorted(self.branches)):
            stack[..., i::r_dim, i::r_dim] += self.branches[r].stack[:, :n]
        return LossyDevice(dim, self.settings, self.outcomes, stack)


def makarov_branches() -> HiddenVariableDevice:
    """The four hidden branches: each clicks for one setting and one outcome only."""
    stacks = {r: np.zeros((len(SETTINGS), len(OUTCOMES), 2, 2), dtype=complex) for r in (1, 2, 3, 4)}
    for (r, x), (a, ket) in _BRANCH_ARMING.items():
        stacks[r][SETTINGS.index(x), OUTCOMES.index(a)] = projector(_KETS[ket])
    return HiddenVariableDevice({r: LossyDevice(2, SETTINGS, OUTCOMES, s) for r, s in stacks.items()})


@dataclass(frozen=True)
class FakingSource:
    """Separable-state source keyed by both detectors' hidden variables."""

    table: Mapping[tuple[int, int], tuple[str, str] | None] = field(
        default_factory=lambda: dict(_SOURCE_TABLE)
    )

    def state(self, r_a: int, r_b: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Local density matrices for the two wings, or None for the vacuum."""
        entry = self.table[(r_a, r_b)]
        if entry is None:
            return None
        pa, pb = entry
        return projector(_KETS[pa]), projector(_KETS[pb])


@dataclass
class FakedChshResult:
    chsh: float
    detection_rate: float
    correlators: dict[tuple[str, str], float]
    sampled_chsh: float | None = None
    sampled_std_error: float | None = None


def _click_table(hv: HiddenVariableDevice, source) -> np.ndarray:
    """``W[x, y, a, b]``: probability that both detectors click with outcomes a, b, given settings x, y.

    The hidden pair is uniform over ``source.table``; ``source.state`` gives
    the two wings' states, or None for the vacuum, which never clicks.
    """
    n = len(hv.outcomes)
    clicks = np.zeros((len(hv.settings),) * 2 + (n,) * 2)
    for ra, rb in source.table:
        states = source.state(ra, rb)
        if states is not None:
            pa, pb = (
                np.einsum("xaij,ji->xa", hv.branches[r].stack[:, :n], rho).real for r, rho in zip((ra, rb), states)
            )
            clicks += np.einsum("xa,yb->xyab", pa, pb)
    return clicks / len(source.table)


def run_faked_chsh(noise: float = 0.0, seed: int | None = None, samples: int | None = None) -> FakedChshResult:
    """Exact post-selected CHSH statistics of the hidden-variable attack.

    All probabilities are enumerated over the finite space of hidden values
    and settings (uniform r_A, r_B, x, y), never sampled.  ``noise`` is the
    probability that a successful round's outcome pair is replaced by a
    uniformly random one, which scales every correlator by 1 - noise while
    leaving click probabilities unchanged.  ``detection_rate`` is the
    probability per round that both detectors click and the round used one
    designated setting pair; it is the same for all four pairs.

    With ``samples`` (at least 1) set, a Monte Carlo estimate of the CHSH
    value with the given seed is attached for cross-checking the enumeration.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be None or at least 1, got {samples!r}")
    hv = makarov_branches()
    clicks = _click_table(hv, FakingSource())
    same = 2.0 * np.eye(len(hv.outcomes)) - 1.0  # +1 for equal outcomes, -1 otherwise
    pairs = list(itertools.product(hv.settings, repeat=2))
    num = np.einsum("xyab,ab->xy", clicks, same).ravel().tolist()
    den = clicks.sum(axis=(2, 3)).ravel().tolist()
    correlator = {xy: (1.0 - noise) * nu / de for xy, nu, de in zip(pairs, num, den)}
    chsh = sum(sign * correlator[xy] for xy, sign in _CHSH_SIGNS.items())
    # Uniform settings: P(click, click, X=x, Y=y) is den / (number of pairs) for each pair.
    detection_rate = sum(d / len(pairs) for d in den) / len(pairs)

    sampled = std_err = None
    if samples is not None:
        sampled, std_err = _sample_chsh(clicks, noise, seed, samples)
    return FakedChshResult(
        chsh=chsh,
        detection_rate=detection_rate,
        correlators=correlator,
        sampled_chsh=sampled,
        sampled_std_error=std_err,
    )


def _sample_chsh(clicks: np.ndarray, noise: float, seed: int | None, samples: int) -> tuple[float, float]:
    """Monte Carlo rounds of the attack on click table ``clicks``; returns (CHSH estimate, standard error).

    Every round is drawn at once from the distribution of (x, y, a, b) under
    uniform settings, one cell per entry of ``clicks`` in order; the last
    cell holds the rounds in which some detector stays silent.
    """
    rng = np.random.default_rng(seed)
    n_pairs, n_outs = clicks.shape[0] * clicks.shape[1], clicks.shape[2] * clicks.shape[3]
    probs = np.append(clicks.ravel() / n_pairs, 0.0)
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    drawn = rng.choice(probs.size, size=samples, p=probs)
    pair, outs = np.divmod(drawn[drawn < clicks.size], n_outs)
    noisy = rng.random(pair.size) < noise
    outs = np.where(noisy, rng.integers(n_outs, size=pair.size), outs)
    same = (2.0 * np.eye(clicks.shape[2]) - 1.0).ravel()  # +1 for equal outcomes, -1 otherwise
    sums = np.bincount(pair, weights=same[outs], minlength=n_pairs)
    counts = np.bincount(pair, minlength=n_pairs)
    if np.any(counts == 0):
        raise ValueError("no successful rounds for some setting pair; increase samples")
    means = sums / counts
    est = float(np.array(list(_CHSH_SIGNS.values())) @ means)
    return est, float(np.sqrt(np.sum((1.0 - means**2) / counts)))
