"""Multipartite Bell scenarios: joint statistics, post-selection and bounds.

A scenario composes local lossy devices by tensor product against a shared
state.  Post-selection keeps the rounds where every party clicks; the engine
also builds the filtered state and ideal unit-efficiency experiment that
reproduce (or approximate) those statistics, and evaluates linear Bell
functionals together with the deviation bounds implied by per-party
fair-sampling epsilons.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import Reference, _checked_state, _filter, _weak_reference, approximate_epsilon
from .analysis import ideal_device_from, reference
from .device import NOCLICK, LossyDevice, ZeroAcceptanceError, projective_qubit_device
from .linalg import COMPLETENESS_TOL, ZERO_ACCEPTANCE, assert_density, projector, read_probability, tensor

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


@dataclass(frozen=True, eq=False)
class BellScenario:
    """Local devices measuring a joint state, one tensor factor per party.

    Each key of ``bell_coeffs`` pairs a settings tuple with a good-outcome
    tuple, one label per party; no-click carries no Bell weight, and weights
    must be finite.  The scenario keeps a read-only copy of the coefficients,
    compiled against these devices when it is built, and a scenario is frozen:
    build a new one to change it.  A scenario needs at least one party.
    """

    devices: Sequence[LossyDevice]
    psi: np.ndarray
    bell_coeffs: BellCoeffs | None = None

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError("a Bell scenario needs at least one party")
        _reject_separator(self.devices)
        object.__setattr__(self, "psi", assert_density(self.psi))
        dims = [dev.dim for dev in self.devices]
        if int(np.prod(dims)) != self.psi.shape[0]:
            raise ValueError(f"local dimensions {dims} do not match state dimension {self.psi.shape[0]}")
        n_out = int(np.prod([len(dev.outcomes) + 1 for dev in self.devices]))
        if n_out > MAX_JOINT_OUTCOMES:
            raise ValueError(f"joint outcome table of size {n_out} exceeds {MAX_JOINT_OUTCOMES}")
        coeffs = None if self.bell_coeffs is None else MappingProxyType(dict(self.bell_coeffs))
        object.__setattr__(self, "bell_coeffs", coeffs)
        object.__setattr__(self, "_functional", None if coeffs is None else _compile(self.devices, coeffs))

    @property
    def n_parties(self) -> int:
        return len(self.devices)

    def setting_tuples(self):
        return itertools.product(*(dev.settings for dev in self.devices))

    def _contract_step(self, t: np.ndarray, k: int, stack: np.ndarray) -> np.ndarray:
        """Contract party k's element stack, shape (S_k, m_k + 1, d_k, d_k), into ``t`` for every setting prefix.

        Axis 0 of ``t`` runs over the setting prefixes of parties 0..k-1; the rest are ``psi``'s 2n legs
        (rows, then columns) with those parties contracted: party k's row leg is axis 1, its column leg
        axis 1 + n - k, and the outcome axes collect at the end.  Axis 0 of the result runs over
        (prefix, setting) pairs in ``setting_tuples()`` order.
        """
        # Tr(E psi) = sum_ij E[i, j] psi[j, i]: E's row index meets psi's column leg.  Each
        # (prefix, setting) slice of the matmul is np.tensordot(t[p], stack[x], axes=([0, n - k], [2, 1]))
        # without its axis bookkeeping: the same transposes, reshapes and np.dot operands, so the same bits.
        col = 1 + self.n_parties - k
        rest = [ax for ax in range(2, t.ndim) if ax != col]
        s, m, d = stack.shape[0], stack.shape[1], stack.shape[-1]
        at = t.transpose(0, *rest, 1, col).reshape(len(t), 1, -1, d * d)
        bt = stack.transpose(0, 3, 2, 1).reshape(s, d * d, m)
        return np.matmul(at, bt).reshape(len(t) * s, *(t.shape[ax] for ax in rest), m)

    def tables(self, tuples: Iterable[Sequence[str]] | None = None) -> JointTables:
        """The ``JointTables`` of the setting tuples ``tuples``, all of ``setting_tuples()`` by default.

        Every label is resolved first, so a tuple of the wrong length or with an
        unknown setting raises before any contraction, naming the first faulty
        tuple's first faulty party.  Then each party's whole element stack is
        contracted into ``psi`` once, n steps whatever ``tuples`` holds, and the
        tables asked for are picked from the result; each has the operands a
        lone tuple's contraction would, so the same bits.  A probability below
        ``-COMPLETENESS_TOL`` raises, naming the outcomes of the smallest entry
        of the first such tuple asked for; smaller negative drift is clamped to
        0.  The tables are slices of one array, checked and clamped at once.
        """
        n = self.n_parties
        outcomes = tuple((*dev.outcomes, NOCLICK) for dev in self.devices)
        keys, rows = [], []
        for xs in self.setting_tuples() if tuples is None else tuples:
            xs = tuple(xs)
            if len(xs) != n:
                raise ValueError(f"expected {n} settings, got {len(xs)}")
            keys.append(xs)
            rows.append([dev._index(x) for dev, x in zip(self.devices, xs)])
        if not keys:
            return JointTables(outcomes, {})
        t = self.psi.reshape([dev.dim for dev in self.devices] * 2)[None]
        for k, dev in enumerate(self.devices):
            t = self._contract_step(t, k, dev.stack)
        stacked = t.real[np.ravel_multi_index(np.transpose(rows), [len(dev.settings) for dev in self.devices])]
        failing = np.flatnonzero(stacked.reshape(len(keys), -1).min(axis=1) < -COMPLETENESS_TOL).tolist()
        if failing:
            table = stacked[failing[0]]
            worst = np.unravel_index(int(np.argmin(table)), table.shape)
            outs = tuple(alph[i] for alph, i in zip(outcomes, worst))
            read_probability(float(table[worst]), f"outcomes {outs!r} at settings {keys[failing[0]]!r}")
        np.maximum(stacked, 0.0, out=stacked)
        return JointTables(outcomes, dict(zip(keys, stacked)))

    def joint_raw(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over outcome tuples, no-click included, keyed in table order."""
        t = self.tables([xs])
        (table,) = t.raw.values()
        return dict(zip(itertools.product(*t.outcomes), table.ravel().tolist()))

    def all_click_probability(self, xs: Sequence[str]) -> float:
        (acceptance,) = self.tables([xs]).acceptance.values()
        return acceptance

    def joint_postselected(self, xs: Sequence[str]) -> dict[tuple[str, ...], float]:
        """Joint distribution over good outcome tuples, conditioned on all parties clicking."""
        t = self.tables([xs])
        ((xs, acceptance),) = t.acceptance.items()
        if xs not in t.postselected:
            raise ZeroAcceptanceError(
                f"setting tuple {xs!r} has acceptance {acceptance:.3e}; erase it from the allowed settings"
            )
        good = itertools.product(*(dev.outcomes for dev in self.devices))
        return dict(zip(good, t.postselected[xs].ravel().tolist()))

    def bell_value(self, tables: Tables) -> float:
        """The Bell functional sum(c * Pr) on ``tables``: ``JointTables.raw`` or ``JointTables.postselected``.

        Another scenario's tables with these outcomes, as ``ideal_scenario(self)``'s, are read alike.  The
        terms are added as ``bell_value`` adds them, so the two agree to the bit.  Setting tuples the
        coefficients read that ``tables`` lacks, erased for zero acceptance, raise ``ZeroAcceptanceError``.
        """
        return self._compiled().value(tables)

    def _compiled(self) -> _Functional:
        if self._functional is None:
            raise ValueError("scenario declares no Bell coefficients")
        return self._functional


def _good(table: np.ndarray) -> np.ndarray:
    """The all-click block of a raw table: every axis without its last, no-click, entry."""
    return table[(slice(-1),) * table.ndim]


@dataclass(frozen=True, eq=False)
class JointTables:
    """Joint tables of setting tuples (``BellScenario.tables``), keyed by setting tuple in the order asked for.

    ``raw[xs]`` is one real array of shape ``(m_0 + 1, ..., m_{n-1} + 1)`` for
    m_k good outcomes of party k; ``outcomes[k]`` labels axis k: party k's good
    outcomes in label order, then no-click.  Good outcomes come first on every
    axis, so the all-click entries are the block ``raw[xs][:-1, ..., :-1]``.
    ``acceptance``, ``postselected`` and ``erased`` are read from ``raw`` the
    first time they are asked for.
    """

    outcomes: tuple[tuple[str, ...], ...]
    raw: dict[tuple[str, ...], np.ndarray]

    @functools.cached_property
    def acceptance(self) -> dict[tuple[str, ...], float]:
        """Probability that every party clicks: the sum of each raw table's all-click block.

        Python's ``sum`` over the block in table order, left to right, as a loop
        over the outcome tuples would add them.
        """
        return {xs: sum(_good(table).ravel().tolist()) for xs, table in self.raw.items()}

    @functools.cached_property
    def postselected(self) -> dict[tuple[str, ...], np.ndarray]:
        """Each raw table's all-click block divided by its acceptance; erased tuples are left out.

        A setting tuple whose acceptance is at most ZERO_ACCEPTANCE is erased.
        """
        return {
            xs: _good(self.raw[xs]) / acc for xs, acc in self.acceptance.items() if acc > ZERO_ACCEPTANCE
        }

    @property
    def erased(self) -> list[tuple[str, ...]]:
        """The setting tuples left out of ``postselected``, in the order of ``raw``."""
        return [xs for xs in self.raw if xs not in self.postselected]

    def max_deviation(self, ideal: JointTables) -> float:
        """Max |post-selected - ideal raw| probability over the setting tuples of ``postselected``.

        ``ideal`` holds the raw tables of the ideal experiment for those tuples.
        """
        return max(
            (float(np.max(np.abs(ps - _good(ideal.raw[xs])))) for xs, ps in self.postselected.items()),
            default=0.0,
        )


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


def filtered_global_state(mqs: Sequence[np.ndarray | Reference], psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Filter every party's factor by sqrt of its reference click element.

    Returns the normalized filtered state and the probability that all local
    filters accept simultaneously.  A ``Reference`` in ``mqs`` gives its
    ``root``.  References whose dimensions do not multiply to the state's
    raise ``ValueError`` before ``psi`` is checked as a density matrix.
    """
    return _filter(mqs, _checked_state(mqs, psi))


def _references(sc: BellScenario, mqs: Sequence[np.ndarray | Reference]) -> list[Reference]:
    """The ``Reference`` of each party's entry of ``mqs``; a list of the wrong length raises ``ValueError``."""
    if len(mqs) != sc.n_parties:
        raise ValueError(f"expected {sc.n_parties} references, one per party, got {len(mqs)}")
    return [reference(dev, mq) for dev, mq in zip(sc.devices, mqs)]


def ideal_scenario(sc: BellScenario, mqs: Sequence[np.ndarray | Reference] | None = None) -> BellScenario:
    """Unit-efficiency experiment on the filtered state, built party by party.

    With no explicit references, each device must pass the weak test of the
    exact fair-sampling check and its extracted quantum element is used.
    A reference is a matrix or a ``Reference`` (a verdict's, say); each is
    eigendecomposed once, for the ideal device and the filter alike, and each
    device's click stack is normed once.  A list of the wrong length raises
    ``ValueError``.  The ideal scenario has no Bell coefficients; ``sc.bell_value`` reads its tables.
    """
    if mqs is None:
        mqs = []
        for k, dev in enumerate(sc.devices):
            mq = _weak_reference(dev)
            if mq is None:
                raise ValueError(f"party {k} fails the exact fair-sampling check")
            mqs.append(mq)
    refs = _references(sc, mqs)
    ideal = [ideal_device_from(dev, ref) for dev, ref in zip(sc.devices, refs)]
    psi_click, _ = _filter(refs, sc.psi)  # sc.psi is checked and fits the references
    return BellScenario(ideal, psi_click)


def postselected_vs_ideal_deviation(sc: BellScenario, ideal: BellScenario) -> float:
    """Max |post-selected - ideal raw| probability over setting and outcome tuples.

    Setting tuples with vanishing acceptance are erased rather than compared.
    """
    t = sc.tables()
    return t.max_deviation(ideal.tables(t.postselected))


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
    """Require a coefficient for every good outcome tuple of every setting tuple used.

    The compiled functional decides: the scenario's own coefficients are read
    from it, others are compiled against the devices, so a bad key raises what
    building the scenario with it raises.  The first missing entry (tuples in
    first-use order, outcomes in product order) raises ``ValueError``, as
    ``coeffs`` of None does.
    """
    if coeffs is None:
        raise ValueError("no Bell coefficients to validate")
    f = sc._functional if coeffs is sc.bell_coeffs else _compile(sc.devices, coeffs)
    short = np.flatnonzero(np.bincount(f.position, minlength=len(f.tuples)) < math.prod(f.shape))
    if short.size:
        present = np.zeros(f.shape, dtype=bool)
        present[tuple(axis[f.position == short[0]] for axis in f.outcome)] = True
        outs = tuple(dev.outcomes[i] for dev, i in zip(sc.devices, np.argwhere(~present)[0]))
        raise ValueError(f"missing coefficient entry for settings {f.tuples[short[0]]!r}, outcomes {outs!r}")


def beta_max(coeffs: BellCoeffs) -> float:
    """Algebraic bound of a linear Bell functional.

    The maximum over unconstrained conditional distributions is attained at
    deterministic assignments, independently for each setting tuple, so it
    is the larger of |sum of per-setting maxima| and |sum of per-setting
    minima|.  The coefficients must cover the full outcome alphabet.  The
    first weight that is not finite raises ``ValueError`` naming its key.
    A scenario's compiled functional makes the same reduction, to the bit.
    """
    return _algebraic_bound(*_grouped(coeffs))


def _algebraic_bound(tuples: Sequence[tuple[str, ...]], position: np.ndarray, weight: np.ndarray) -> float:
    """``beta_max`` of weights grouped by setting tuple: per-tuple extremes added in first-use order."""
    hi, lo = np.full(len(tuples), -np.inf), np.full(len(tuples), np.inf)
    np.maximum.at(hi, position, weight)
    np.minimum.at(lo, position, weight)
    # A tie of 0.0 and -0.0 may keep either zero; abs erases the difference.
    return max(abs(sum(hi.tolist())), abs(sum(lo.tolist())))


def deviation_bound(eps_tot: float, beta: float) -> float:
    """Bound on |<B>_postselected - <B>_ideal| for a composed deviation eps_tot."""
    return 2.0 * eps_tot * beta


def postselected_bell_value(sc: BellScenario) -> float:
    """Bell functional evaluated on the post-selected distributions.

    Only the tables of the setting tuples the coefficients read are taken; those erased
    for zero acceptance raise ``ZeroAcceptanceError`` naming them.
    """
    functional = sc._compiled()
    validate_coefficients(sc, sc.bell_coeffs)
    return functional.value(sc.tables(functional.tuples).postselected)


def chsh_coefficients(devices: Sequence[LossyDevice]) -> dict:
    """CHSH weights (-1)^(i j) (-1)^(k + l) over two parties' settings i, j and outcomes k, l, by position.

    Every label is read from ``devices``, the pair the weights are compiled
    against: keys run over settings, then outcomes, each party's in label
    order.  Other than two devices, or a party without two settings and two
    outcomes, raises ``ValueError``; the party is named.
    """
    if len(devices) != 2:
        raise ValueError(f"CHSH needs two parties, got {len(devices)}")
    for k, dev in enumerate(devices):
        shape = (len(dev.settings), len(dev.outcomes))
        if shape != (2, 2):
            raise ValueError(f"party {k} has {shape[0]} settings and {shape[1]} outcomes; CHSH needs 2 of each")
    a, b = devices
    return {
        ((x, y), (oa, ob)): (-1.0) ** (i * j + k + l)
        for (i, x), (j, y) in itertools.product(enumerate(a.settings), enumerate(b.settings))
        for (k, oa), (l, ob) in itertools.product(enumerate(a.outcomes), enumerate(b.outcomes))
    }


def singlet_state() -> np.ndarray:
    """The two-qubit singlet (|01> - |10>) / sqrt(2) as a density matrix."""
    return projector(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0))


def chsh_singlet_scenario(efficiency: float = 0.25) -> BellScenario:
    """Singlet measured by flat-efficiency analysers at the Tsirelson angles, with the CHSH functional."""
    devices = [
        projective_qubit_device({"0": 0.0, "1": np.pi / 2.0}, efficiency),
        projective_qubit_device({"0": -3.0 * np.pi / 4.0, "1": 3.0 * np.pi / 4.0}, efficiency),
    ]
    return BellScenario(devices, singlet_state(), chsh_coefficients(devices))


@dataclass(frozen=True)
class _Functional:
    """Bell coefficients compiled against a scenario's labels, one entry per coefficient in order.

    ``tuples`` lists the setting tuples the coefficients read, in first-use
    order; coefficient i reads the table of ``tuples[position[i]]`` at the
    good-outcome index ``(outcome[0][i], ..., outcome[n-1][i])``.  Good
    outcomes come before no-click on every axis, so the same indices read a
    raw table and a post-selected one.  ``shape`` counts each party's good
    outcomes.
    """

    tuples: tuple[tuple[str, ...], ...]
    position: np.ndarray
    weight: np.ndarray
    outcome: tuple[np.ndarray, ...]
    shape: tuple[int, ...]

    def beta_max(self) -> float:
        """``beta_max`` of the coefficients this was compiled from, to the bit, without walking them again."""
        return _algebraic_bound(self.tuples, self.position, self.weight)

    def local_bound(self) -> float:
        """The largest |sum c * P| over deterministic local strategies on good outcomes, as ``beta_max`` takes it.

        A strategy gives each party one good outcome per setting the
        coefficients read.  The weights, laid out by party as (settings x
        outcomes) axes, are contracted with one-hot tables of every strategy
        of all parties but the one with the most strategies, fewest first;
        each strategy's value is then that party's best row maximum (minimum)
        per setting.  A table of more than ``MAX_JOINT_OUTCOMES`` entries
        raises ``ValueError`` before any is built.
        """
        if not self.tuples:
            return 0.0
        reads: list[dict[str, int]] = [{} for _ in self.shape]  # each party's settings read, in first-use order
        setting = np.array([[read.setdefault(x, len(read)) for read, x in zip(reads, xs)] for xs in self.tuples])
        order = sorted(range(len(reads)), key=lambda k: self.shape[k] ** len(reads[k]))
        blocks = [(len(reads[k]), self.shape[k]) for k in order]  # (settings read, outcomes)
        strategies = [m**s for s, m in blocks]
        widths = [s * m for s, m in blocks]
        size = max(math.prod(strategies[: k + 1]) * math.prod(widths[k + 1 :]) for k in range(-1, len(blocks) - 1))
        if size > MAX_JOINT_OUTCOMES:
            raise ValueError(f"local strategy table of size {size} exceeds {MAX_JOINT_OUTCOMES}")
        table = np.zeros(np.ravel(blocks))
        table[tuple(a for k in order for a in (setting[self.position, k], self.outcome[k]))] = self.weight
        table = table.reshape(1, -1)  # one row per strategy of the parties contracted so far
        for (s, m), count in zip(blocks[:-1], strategies):
            choice = np.arange(count)[:, None] // m ** np.arange(s) % m  # each strategy's outcome per setting
            one_hot = (choice[:, :, None] == np.arange(m)).reshape(count, s * m).astype(float)
            rows, width = len(table), table.shape[1] // (s * m)
            table = np.matmul(one_hot, table.reshape(rows, s * m, width)).reshape(rows * count, width)
        table = table.reshape(len(table), *blocks[-1])
        return max(abs(float(table.max(axis=2).sum(axis=1).max())), abs(float(table.min(axis=2).sum(axis=1).min())))

    def value(self, tables: Tables) -> float:
        """sum(c * Pr) over ``tables``; tuples it lacks raise ``ZeroAcceptanceError`` naming them, sorted.

        The terms are added left to right in coefficient order, as
        ``bell_value`` adds them, so the two agree to the bit.
        """
        erased = sorted(set(self.tuples) - tables.keys())
        if erased:
            raise ZeroAcceptanceError(f"Bell coefficients read setting tuples with vanishing acceptance: {erased!r}")
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


def _grouped(coeffs: BellCoeffs) -> tuple[tuple[tuple[str, ...], ...], np.ndarray, np.ndarray]:
    """The setting tuples ``coeffs`` reads in first-use order, each coefficient's position among them, the weights.

    The first weight that is not finite raises ``ValueError`` naming its key.
    """
    index: dict[tuple[str, ...], int] = {}
    position = np.fromiter((index.setdefault(xs, len(index)) for xs, _ in coeffs), dtype=np.intp, count=len(coeffs))
    weight = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
    bad = np.flatnonzero(~np.isfinite(weight))
    if bad.size:
        (xs, outs), c = next(itertools.islice(coeffs.items(), int(bad[0]), None))
        raise ValueError(f"Bell coefficient for settings {xs!r}, outcomes {outs!r}: weight {float(c)!r} is not finite")
    return tuple(index), position, weight


def _compile(devices: Sequence[LossyDevice], coeffs: BellCoeffs) -> _Functional:
    """Compile ``coeffs`` against ``devices``; a key that does not fit, then a weight that is not finite, raises.

    Keys are checked in bulk: each distinct setting tuple once, and every
    outcome tuple by lookup among the good outcome tuples.  Only when that
    finds a fault are the keys walked in order, to name the first bad one.
    """
    settings = [dev.settings for dev in devices]
    outcomes = [dev.outcomes for dev in devices]
    good = {outs: i for i, outs in enumerate(itertools.product(*outcomes))}
    flat = list(map(good.get, (outs for _, outs in coeffs)))
    if None in flat or any(_labels_fault(xs, settings, "setting") for xs in {xs for xs, _ in coeffs}):
        for xs, outs in coeffs:
            fault = _labels_fault(xs, settings, "setting") or _labels_fault(outs, outcomes, "good outcome")
            if fault:
                raise ValueError(f"Bell coefficient for settings {xs!r}, outcomes {outs!r}: {fault}")
    shape = tuple(map(len, outcomes))
    return _Functional(*_grouped(coeffs), np.unravel_index(np.array(flat, dtype=np.intp), shape), shape)


class ScenarioAnalysis:
    """What ``simulate`` and ``bound`` report on a scenario, each piece computed the first time it is read.

    ``mqs`` holds one reference per party, a matrix or a ``Reference``, each
    decomposed once for its epsilon and ideal device alike; a list of the
    wrong length raises at once.  Without references, reading an epsilon or
    the ideal experiment raises ``ValueError``; without coefficients, so does
    a Bell piece.  Read as ``bound`` reads them, epsilons first, the pieces
    raise in this order: incomplete coefficients (before any epsilon, table or
    ideal device), an epsilon >= 1, a Bell functional reading an erased tuple.
    A positive ``certified_margin`` (|post-selected Bell value| minus
    ``bell_deviation_bound`` and ``local_bound``) means the ideal experiment
    on the filtered state, not the measured one, violates the local bound.
    """

    def __init__(self, sc: BellScenario, mqs: Sequence[np.ndarray | Reference] | None = None):
        self.scenario = sc
        self.references = None if mqs is None else _references(sc, mqs)

    def _refs(self) -> list[Reference]:
        if self.references is None:
            raise ValueError("no references given: no epsilon or ideal experiment")
        return self.references

    @functools.cached_property
    def epsilons(self) -> list[float]:
        """Each party's epsilon; Bell coefficients are checked for completeness first, as ``beta_max`` needs."""
        if self.scenario.bell_coeffs is not None:
            self.beta_max  # raises for incomplete coefficients, before any epsilon is computed
        return [approximate_epsilon(dev, ref) for dev, ref in zip(self.scenario.devices, self._refs())]

    @functools.cached_property
    def beta_max(self) -> float:
        """``beta_max`` of the scenario's coefficients, read from its compiled functional; incomplete ones raise."""
        functional = self.scenario._compiled()
        validate_coefficients(self.scenario, self.scenario.bell_coeffs)
        return functional.beta_max()

    tables = functools.cached_property(lambda self: self.scenario.tables())
    # The module's epsilon_total: it raises for an epsilon >= 1, where no ideal device exists.
    epsilon_total = functools.cached_property(lambda self: epsilon_total(self.epsilons))
    #: The raw tables of the ideal experiment for the setting tuples ``tables.postselected`` keeps.
    ideal_tables = functools.cached_property(
        lambda self: ideal_scenario(self.scenario, self._refs()).tables(self.tables.postselected)
    )
    joint_deviation = functools.cached_property(lambda self: self.tables.max_deviation(self.ideal_tables))
    bell_value_raw = functools.cached_property(lambda self: self.scenario.bell_value(self.tables.raw))
    bell_value_postselected = functools.cached_property(lambda self: self.scenario.bell_value(self.tables.postselected))
    bell_value_ideal = functools.cached_property(lambda self: self.scenario.bell_value(self.ideal_tables.raw))
    bell_deviation = functools.cached_property(lambda self: abs(self.bell_value_postselected - self.bell_value_ideal))
    bell_deviation_bound = functools.cached_property(lambda self: deviation_bound(self.epsilon_total, self.beta_max))
    local_bound = functools.cached_property(lambda self: self.scenario._compiled().local_bound())
    certified_margin = functools.cached_property(
        lambda self: abs(self.bell_value_postselected) - self.bell_deviation_bound - self.local_bound
    )
