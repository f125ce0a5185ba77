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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import _filter, _ideal_device_and_epsilon, check_exact, ideal_device_from
from .device import NOCLICK, LosslessDevice, LossyDevice, ZeroAcceptanceError
from .linalg import (
    COMPLETENESS_TOL, ZERO_ACCEPTANCE, assert_density, read_probability, sqrt_pinv_sqrt, tensor
)

#: Bell coefficients: (settings tuple, outcomes tuple) -> real weight.
BellCoeffs = Mapping[tuple[tuple[str, ...], tuple[str, ...]], float]

#: Joint tables as arrays: settings tuple -> raw or post-selected table.
Tables = Mapping[tuple[str, ...], np.ndarray]

MAX_JOINT_OUTCOMES = 100_000

#: Joins local setting or outcome labels into one joint label; no local label may contain it.
LABEL_SEP = ","


def _reject_separator(devices: Sequence[LossyDevice]) -> None:
    for k, dev in enumerate(devices):
        for label in (*dev.settings, *dev.outcomes):
            if LABEL_SEP in label:
                raise ValueError(f"party {k} label {label!r} contains the joint-label separator {LABEL_SEP!r}")


@dataclass
class BellScenario:
    """Local devices measuring a joint state, one tensor factor per party.

    Each key of ``bell_coeffs`` pairs a settings tuple with a good-outcome
    tuple, one label per party; no-click carries no Bell weight.  The keys
    are checked, and the coefficients compiled, once, when the scenario is
    built: to change the coefficients, build a new scenario.
    """

    devices: Sequence[LossyDevice]
    psi: np.ndarray
    bell_coeffs: BellCoeffs | None = None

    def __post_init__(self):
        self.devices = tuple(self.devices)
        _reject_separator(self.devices)
        self.psi = assert_density(self.psi)
        dims = [dev.dim for dev in self.devices]
        if int(np.prod(dims)) != self.psi.shape[0]:
            raise ValueError(f"local dimensions {dims} do not match state dimension {self.psi.shape[0]}")
        n_out = int(np.prod([len(dev.outcomes) + 1 for dev in self.devices]))
        if n_out > MAX_JOINT_OUTCOMES:
            raise ValueError(f"joint outcome table of size {n_out} exceeds {MAX_JOINT_OUTCOMES}")
        self._functional = None if self.bell_coeffs is None else _compile(self.devices, self.bell_coeffs)

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

    def _contract_step(self, t: np.ndarray, k: int, stack: np.ndarray) -> np.ndarray:
        """Contract party k's element stack, shape (m_k, d_k, d_k), into the partial tensor ``t``.

        ``t`` is ``psi`` reshaped to 2n legs (rows, then columns) with parties
        0..k-1 already contracted, so party k's row leg is axis 0 and its
        column leg axis n - k; the outcome axes collect at the end in party
        order.
        """
        # Tr(E psi) = sum_ij E[i, j] psi[j, i]: E's row index meets psi's column leg.
        return np.tensordot(t, stack, axes=([0, self.n_parties - k], [2, 1]))

    def _raw_arrays(self, tuples: Iterable[Sequence[str]]) -> dict[tuple[str, ...], np.ndarray]:
        """Raw table of each setting tuple in ``tuples``, keyed by the tuple.

        A table is one real array of shape ``(m_0 + 1, ..., m_{n-1} + 1)``
        for m_k good outcomes of party k: axis k runs over party k's good
        outcomes in label order, then no-click.  One walk contracts the
        parties' element stacks into ``psi`` in party order and keeps the
        partial contraction of the current setting prefix, so consecutive
        tuples sharing a prefix share its contractions.  Over all tuples in
        ``setting_tuples()`` order that is S_0 + S_0 S_1 + ... + S_0 ... S_{n-1}
        contraction steps for S_k settings of party k, instead of n per tuple;
        each step has the operands a lone tuple's would, so every table is
        the same to the bit.  A probability below ``-COMPLETENESS_TOL``
        raises, naming its outcomes; smaller negative drift is clamped to 0.
        """
        n = self.n_parties
        index = [{x: i for i, x in enumerate(dev.settings)} for dev in self.devices]
        partial = [self.psi.reshape([dev.dim for dev in self.devices] * 2)] + [None] * n
        prefix: list[str | None] = [None] * n
        alphabets = self._alphabets()
        tables = {}
        for xs in tuples:
            xs = self._check_settings(xs)
            k = 0
            while k < n and prefix[k] == xs[k]:
                k += 1
            for j in range(k, n):
                partial[j + 1] = self._contract_step(partial[j], j, self.devices[j].stack[index[j][xs[j]]])
                prefix[j] = xs[j]
            probs = partial[n].real
            worst = np.unravel_index(int(np.argmin(probs)), probs.shape)
            outs = tuple(alph[i] for alph, i in zip(alphabets, worst))
            read_probability(float(probs[worst]), f"outcomes {outs!r} at settings {xs!r}")
            tables[xs] = np.maximum(probs, 0.0)
        return tables

    def _alphabets(self) -> list[tuple[str, ...]]:
        """Each party's outcome labels in table order: good outcomes, then no-click."""
        return [(*dev.outcomes, NOCLICK) for dev in self.devices]

    def joint_raw_tables(self, tuples: Iterable[Sequence[str]]) -> dict[tuple[str, ...], dict]:
        """``joint_raw`` of each setting tuple in ``tuples``, keyed by the tuple.

        A dict view of the arrays of one prefix-sharing walk over ``tuples``
        (see ``_raw_arrays``), keyed by outcome tuples in table order.
        """
        outcome_tuples = list(itertools.product(*self._alphabets()))
        return {
            xs: dict(zip(outcome_tuples, table.ravel().tolist()))
            for xs, table in self._raw_arrays(tuples).items()
        }

    def joint_raw(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over outcome tuples, no-click included."""
        (table,) = self.joint_raw_tables([xs]).values()
        return table

    def all_click_probability(self, xs: Sequence[str]) -> float:
        (table,) = self._raw_arrays([xs]).values()
        return _acceptance(table)

    def joint_postselected(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over good outcome tuples, conditioned on all parties clicking."""
        ((xs, table),) = self._raw_arrays([xs]).items()
        good = itertools.product(*(dev.outcomes for dev in self.devices))
        return dict(zip(good, _postselected(xs, table).ravel().tolist()))


def _good(table: np.ndarray) -> np.ndarray:
    """The all-click block of a raw table: every axis without its last, no-click, entry."""
    return table[(slice(-1),) * table.ndim]


def _acceptance(raw: np.ndarray) -> float:
    """Probability that every party clicks: the sum of the all-click block of a raw table.

    Python's ``sum`` over the block in table order, left to right, as a loop
    over the outcome tuples would add them.
    """
    return sum(_good(raw).ravel().tolist())


def _postselected(xs: Sequence[str], raw: np.ndarray) -> np.ndarray:
    """The all-click block of ``raw``, the raw table at settings ``xs``, divided by the acceptance."""
    acc = _acceptance(raw)
    if acc <= ZERO_ACCEPTANCE:
        raise ZeroAcceptanceError(
            f"setting tuple {tuple(xs)!r} has acceptance {acc:.3e}; erase it from the allowed settings"
        )
    return _good(raw) / acc


def _postselected_tables(raw: Tables) -> dict[tuple[str, ...], np.ndarray]:
    """Setting tuple -> post-selected table read from its raw table in ``raw``; erased tuples left out."""
    post = {}
    for xs, table in raw.items():
        try:
            post[xs] = _postselected(xs, table)
        except ZeroAcceptanceError:
            pass
    return post


def joint_device(devices: Sequence[LossyDevice]) -> LossyDevice:
    """Collect local devices into one device whose good outcomes are all-click tuples.

    Joint labels join the local ones with ``LABEL_SEP``; every pattern containing
    at least one local no-click is aggregated into the joint no-click
    element, which therefore equals identity minus the tensor of the local
    click elements.
    """
    _reject_separator(devices)
    dims = [dev.dim for dev in devices]
    dim = int(np.prod(dims))
    settings = list(itertools.product(*(dev.settings for dev in devices)))
    outcomes = list(itertools.product(*(dev.outcomes for dev in devices)))
    povm: dict[str, dict[str, np.ndarray]] = {}
    for xs in settings:
        row = {
            LABEL_SEP.join(outs): tensor([dev.element(x, a) for dev, x, a in zip(devices, xs, outs)])
            for outs in outcomes
        }
        row[NOCLICK] = np.eye(dim, dtype=complex) - tensor(
            [dev.click_element(x) for dev, x in zip(devices, xs)]
        )
        povm[LABEL_SEP.join(xs)] = row
    labels = [LABEL_SEP.join(xs) for xs in settings]
    return LossyDevice(dim, labels, [LABEL_SEP.join(o) for o in outcomes], povm)


def filtered_global_state(mqs: Sequence[np.ndarray], psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Filter every party's factor by sqrt of its reference click element.

    Returns the normalized filtered state and the probability that all local
    filters accept simultaneously.
    """
    sq = tensor([sqrt_pinv_sqrt(mq)[0] for mq in mqs])
    return _filter(sq, psi, "global filter acceptance {:.3e} vanishes")


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
    return _ideal_from(sc, [ideal_device_from(dev, mq) for dev, mq in zip(sc.devices, mqs)], mqs)


def _ideal_from(sc: BellScenario, ideal: Sequence[LosslessDevice], mqs: Sequence[np.ndarray]) -> BellScenario:
    """Scenario measuring the filtered state with the per-party ideal devices ``ideal``."""
    psi_click, _ = filtered_global_state(mqs, sc.psi)
    out = BellScenario([dev.to_lossy() for dev in ideal], psi_click)
    # An ideal device keeps its device's outcomes but lacks the settings erased from the
    # verdict, which the coefficients may still name: share the compiled functional as is.
    out.bell_coeffs, out._functional = sc.bell_coeffs, sc._functional
    return out


def _max_deviation(post: Tables, ideal_raw: Tables) -> float:
    """Max |post-selected - ideal raw| probability over the setting tuples of ``post``.

    ``post`` holds post-selected tables and ``ideal_raw`` raw tables, keyed by setting tuple.
    """
    return max(
        (float(np.max(np.abs(ps - _good(ideal_raw[xs])))) for xs, ps in post.items()), default=0.0
    )


def postselected_vs_ideal_deviation(sc: BellScenario, ideal: BellScenario) -> float:
    """Max |post-selected - ideal raw| probability over setting and outcome tuples.

    Setting tuples with vanishing acceptance are erased rather than compared.
    """
    post = _postselected_tables(sc._raw_arrays(sc.setting_tuples()))
    return _max_deviation(post, ideal._raw_arrays(post))


def verify_postselection_equivalence(sc: BellScenario, tol: float = COMPLETENESS_TOL) -> float:
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
    tuples = dict.fromkeys(xs for xs, _ in coeffs)
    settings = [dev.settings for dev in sc.devices]
    for xs in tuples:
        fault = _labels_fault(xs, settings, "setting")
        if fault:
            raise KeyError(f"coefficients reference settings {xs!r}: {fault}")
    outcome_tuples = list(itertools.product(*(dev.outcomes for dev in sc.devices)))
    keys = set(coeffs)
    for xs in tuples:
        if not keys.issuperset((xs, outs) for outs in outcome_tuples):
            outs = next(outs for outs in outcome_tuples if (xs, outs) not in keys)
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


def postselected_bell_value(sc: BellScenario) -> float:
    """Bell functional evaluated on the post-selected distributions."""
    if sc.bell_coeffs is None:
        raise ValueError("scenario declares no Bell coefficients")
    validate_coefficients(sc, sc.bell_coeffs)
    raw = sc._raw_arrays(sc._functional.tuples)
    return sc._functional.value({xs: _postselected(xs, table) for xs, table in raw.items()})


def _postselected_bell_value(sc: BellScenario, post: Tables) -> float:
    """Bell functional of ``sc`` on the post-selected tables ``post``, which lack the erased setting tuples."""
    erased = set(sc._functional.tuples) - post.keys()
    if erased:
        raise ZeroAcceptanceError(
            f"Bell coefficients read setting tuples with vanishing acceptance: {sorted(erased)!r}"
        )
    return sc._functional.value(post)


@dataclass(frozen=True)
class _Functional:
    """Bell coefficients compiled against a scenario's labels, one entry per coefficient in order.

    ``tuples`` lists the setting tuples the coefficients read, in first-use
    order; coefficient i reads the table of ``tuples[position[i]]`` at the
    good-outcome index ``(outcome[0][i], ..., outcome[n-1][i])``.  Good
    outcomes come before no-click on every axis, so the same indices read a
    raw table and a post-selected one.
    """

    tuples: tuple[tuple[str, ...], ...]
    position: np.ndarray
    outcome: tuple[np.ndarray, ...]
    weight: np.ndarray

    def value(self, tables: Tables) -> float:
        """sum(c * Pr) over ``tables``, which must hold every tuple in ``tuples``.

        The terms are added left to right in coefficient order, as
        ``bell_value`` adds them, so the two agree to the bit.
        """
        if not self.tuples:
            return 0.0
        terms = self.weight * np.stack([tables[xs] for xs in self.tuples])[(self.position, *self.outcome)]
        total = 0.0
        for term in terms.tolist():
            total += term
        return total


def _labels_fault(labels, known: Sequence[tuple[str, ...]], kind: str) -> str | None:
    """Why ``labels`` is not a tuple holding one of ``known[k]`` for each party k, or None when it is."""
    if type(labels) is not tuple or len(labels) != len(known):
        return f"expected a tuple of {len(known)} {kind}s, one per party"
    for k, (label, allowed) in enumerate(zip(labels, known)):
        if label not in allowed:
            return f"party {k} has no {kind} {label!r}"
    return None


def _compile(devices: Sequence[LossyDevice], coeffs: BellCoeffs) -> _Functional:
    """Compile ``coeffs`` against ``devices``; a key that does not fit raises ``ValueError`` naming it.

    Keys are checked in bulk: each distinct setting tuple once, and every
    outcome tuple by lookup among the good outcome tuples.  Only when that
    finds a fault are the keys walked in order, to name the first bad one.
    """
    settings = [dev.settings for dev in devices]
    outcomes = [dev.outcomes for dev in devices]
    good = {outs: i for i, outs in enumerate(itertools.product(*outcomes))}
    tuples = dict.fromkeys(xs for xs, _ in coeffs)
    flat = list(map(good.get, (outs for _, outs in coeffs)))
    if None in flat or any(_labels_fault(xs, settings, "setting") for xs in tuples):
        for xs, outs in coeffs:
            fault = _labels_fault(xs, settings, "setting") or _labels_fault(outs, outcomes, "good outcome")
            if fault:
                raise ValueError(f"Bell coefficient for settings {xs!r}, outcomes {outs!r}: {fault}")
    index = {xs: i for i, xs in enumerate(tuples)}
    return _Functional(
        tuple(tuples),
        np.fromiter(map(index.__getitem__, (xs for xs, _ in coeffs)), dtype=np.intp, count=len(coeffs)),
        np.unravel_index(np.array(flat, dtype=np.intp), [len(dev.outcomes) for dev in devices]),
        np.fromiter(coeffs.values(), dtype=float, count=len(coeffs)),
    )


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
    built = [_ideal_device_and_epsilon(dev, mq) for dev, mq in zip(sc.devices, mqs)]
    eps = [e for _, e in built]
    eps_tot = epsilon_total(eps)  # raises for an epsilon >= 1, where no ideal device exists
    post = _postselected_tables(sc._raw_arrays(sc.setting_tuples()))
    ideal = _ideal_from(sc, [dev for dev, _ in built], mqs)
    ideal_raw = ideal._raw_arrays(post)
    beta = bell_deviation = None
    if sc.bell_coeffs is not None:
        validate_coefficients(sc, sc.bell_coeffs)
        beta = beta_max(sc.bell_coeffs)
        post_value = _postselected_bell_value(sc, post)
        bell_deviation = abs(post_value - sc._functional.value(ideal_raw))
    return BoundReport(eps, eps_tot, _max_deviation(post, ideal_raw), beta, bell_deviation)
