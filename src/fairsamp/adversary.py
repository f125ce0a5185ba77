"""Detector designs that look fair while leaking settings and faking violations.

The hidden-variable detector draws r in {1,2,3,4} and implements a one-shot
projective branch per value; averaging over r reproduces an innocuous-looking
quarter-efficiency CHSH device, while the finer description acting on the
qubit together with the r register manifestly fails fair sampling.  Paired
with a source that reads both hidden values, post-selection yields
deterministic correlations saturating the algebraic CHSH bound from purely
separable states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .device import LossyDevice, projective_qubit_device
from .linalg import expect, projector, tensor

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
    """Uniform mixture of four single-shot projective branches."""

    branches: Mapping[int, LossyDevice]
    branch_prob: float = 0.25

    def traced(self) -> LossyDevice:
        """Average the branches over the hidden variable."""
        first = next(iter(self.branches.values()))
        povm = {
            x: {
                a: self.branch_prob * sum(dev.element(x, a) for dev in self.branches.values())
                for a in first.outcomes
            }
            for x in first.settings
        }
        return LossyDevice(first.dim, first.settings, first.outcomes, povm)

    def adversary_device(self) -> LossyDevice:
        """The finer description: POVM on qubit tensor the 4-level r register."""
        r_dim = len(self.branches)
        dim = 2 * r_dim
        povm: dict[str, dict[str, np.ndarray]] = {}
        for x in SETTINGS:
            row = {}
            for a in OUTCOMES:
                total = np.zeros((dim, dim), dtype=complex)
                for i, r in enumerate(sorted(self.branches)):
                    reg = np.zeros((r_dim, r_dim), dtype=complex)
                    reg[i, i] = 1.0
                    total += tensor([self.branches[r].element(x, a), reg])
                row[a] = total
            povm[x] = row
        return LossyDevice(dim, SETTINGS, OUTCOMES, povm)


def makarov_branches() -> HiddenVariableDevice:
    """The four hidden branches: each clicks for one setting and one outcome only."""
    zero = np.zeros((2, 2), dtype=complex)
    branches = {}
    for r in (1, 2, 3, 4):
        povm = {x: {a: zero for a in OUTCOMES} for x in SETTINGS}
        for (rr, x), (a, ket) in _BRANCH_ARMING.items():
            if rr == r:
                povm[x] = {**povm[x], a: projector(_KETS[ket])}
        branches[r] = LossyDevice(2, SETTINGS, OUTCOMES, povm)
    return HiddenVariableDevice(branches)


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


def _click_weights():
    """Yield (x, y, a, b, w) for every hidden pair (r_A, r_B) the source fills.

    ``w`` is the probability of that hidden pair together with both detectors
    clicking with outcomes a, b, given settings x, y and uniform hidden
    values.  Vacuum pairs never click and yield nothing.
    """
    branches = makarov_branches().branches
    source = FakingSource()
    for x, y in itertools.product(SETTINGS, SETTINGS):
        for (ra, rb), entry in source.table.items():
            if entry is None:
                continue
            rho_a, rho_b = source.state(ra, rb)
            for a, b in itertools.product(OUTCOMES, OUTCOMES):
                p = expect(branches[ra].element(x, a), rho_a) * expect(
                    branches[rb].element(y, b), rho_b
                )
                yield x, y, a, b, p / 16.0


def run_faked_chsh(noise: float = 0.0, seed: int | None = None, samples: int | None = None) -> FakedChshResult:
    """Exact post-selected CHSH statistics of the hidden-variable attack.

    All probabilities are enumerated over the finite space of hidden values
    and settings (uniform r_A, r_B, x, y), never sampled.  ``noise`` is the
    probability that a successful round's outcome pair is replaced by a
    uniformly random one, which scales every correlator by 1 - noise while
    leaving click probabilities unchanged.  ``detection_rate`` is the
    probability per round that both detectors click and the round used one
    designated setting pair; it is the same for all four pairs.

    With ``samples`` set, a Monte Carlo estimate of the CHSH value with the
    given seed is attached for cross-checking the enumeration.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    num = dict.fromkeys(_CHSH_SIGNS, 0.0)
    den = dict.fromkeys(_CHSH_SIGNS, 0.0)
    for x, y, a, b, w in _click_weights():
        den[(x, y)] += w
        num[(x, y)] += w * (1.0 if a == b else -1.0)
    correlator = {xy: (1.0 - noise) * num[xy] / den[xy] for xy in _CHSH_SIGNS}
    chsh = sum(sign * correlator[xy] for xy, sign in _CHSH_SIGNS.items())
    # Uniform settings: P(click, click, X=x, Y=y) is den / 4 for each of the four pairs.
    detection_rate = sum(d / 4.0 for d in den.values()) / 4.0

    sampled = std_err = None
    if samples:
        sampled, std_err = _sample_chsh(noise, seed, samples)
    return FakedChshResult(
        chsh=chsh,
        detection_rate=detection_rate,
        correlators=correlator,
        sampled_chsh=sampled,
        sampled_std_error=std_err,
    )


def _sample_chsh(noise: float, seed: int | None, samples: int) -> tuple[float, float]:
    """Monte Carlo rounds of the attack; returns (CHSH estimate, standard error).

    Every round is drawn at once from the enumerated distribution of
    (x, y, a, b) under uniform hidden values and settings; its last cell
    holds the rounds in which some detector stays silent.
    """
    rng = np.random.default_rng(seed)
    outcome_pairs = list(itertools.product(OUTCOMES, OUTCOMES))
    cells = {cell: i for i, cell in enumerate(itertools.product(_CHSH_SIGNS, outcome_pairs))}
    probs = np.zeros(len(cells) + 1)
    for x, y, a, b, w in _click_weights():
        probs[cells[((x, y), (a, b))]] += w / 4.0  # uniform settings
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    drawn = rng.choice(probs.size, size=samples, p=probs)
    pair, outs = np.divmod(drawn[drawn < len(cells)], len(outcome_pairs))
    noisy = rng.random(pair.size) < noise
    outs = np.where(noisy, rng.integers(len(outcome_pairs), size=pair.size), outs)
    same = np.array([a == b for a, b in outcome_pairs])
    sums = np.bincount(pair, weights=np.where(same[outs], 1.0, -1.0), minlength=len(_CHSH_SIGNS))
    counts = np.bincount(pair, minlength=len(_CHSH_SIGNS))
    if np.any(counts == 0):
        raise ValueError("no successful rounds for some setting pair; increase samples")
    means = sums / counts
    est = float(np.array(list(_CHSH_SIGNS.values())) @ means)
    return est, float(np.sqrt(np.sum((1.0 - means**2) / counts)))
