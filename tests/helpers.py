"""Builders shared between the unit tests and the acceptance suite."""

import dataclasses
import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from fairsamp.analysis import (
    FairSamplingVerdict,
    approximate_epsilon,
    check_exact,
    default_mq,
    ideal_device_from,
)
from fairsamp.bell import (
    BellScenario,
    JointTables,
    bell_value,
    epsilon_total,
    filtered_global_state,
)
from fairsamp.device import NOCLICK, LosslessDevice, LossyDevice
from fairsamp.filters import FilterDecomposition, QuantumFilter
from fairsamp.linalg import (
    COMPLETENESS_TOL,
    PSD_TOL,
    VERDICT_TOL,
    ZERO_ACCEPTANCE,
    as_operator,
    assert_density,
    eigh_psd,
    expect,
    operator_norm,
    operator_norms,
    probability,
    projector,
    read_probability,
    sqrt_pinv_sqrt,
    support_projector,
    tensor,
)
from fairsamp.optics import OUTCOME_BOTH, OUTCOME_D1, OUTCOME_D2, TwoModeFock, _setting_label
from fairsamp.sampling import haar_ket, random_fair_sampling_device, random_povm, verification_states


def perturbed_fair_device(rng, dim=3, n_settings=2, n_outcomes=2, magnitude=0.05):
    """Exact fair-sampling device pushed off the manifold by a random Hermitian nudge.

    The perturbation is blended in at the largest scale that keeps every
    element positive semi-definite (the no-click element adjusts through
    completeness), so the result is a valid device with a small but nonzero
    fair-sampling deviation.
    """
    base = random_fair_sampling_device(dim, n_settings, n_outcomes, rng, eff_range=(0.5, 0.9))
    nudged = {}
    for x in base.settings:
        row = {}
        for a in base.outcomes:
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            row[a] = base.element(x, a) + magnitude * (h + h.conj().T) / (2.0 * dim)
        nudged[x] = row
    scale = 1.0
    while scale > 1e-4:
        try:
            blended = {
                x: {
                    a: (1.0 - scale) * base.element(x, a) + scale * nudged[x][a]
                    for a in base.outcomes
                }
                for x in base.settings
            }
            return LossyDevice(dim, base.settings, base.outcomes, blended)
        except ValueError:
            scale *= 0.5
    return base


def random_unitary(dim, angle, rng):
    """exp(i * angle * H) for a random Hermitian H of unit operator norm."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(g + g.conj().T)
    return (v * np.exp(1j * angle * w / np.max(np.abs(w)))) @ v.conj().T


def rotated_device(dev, angle, rng):
    """``dev`` with its last setting's good elements conjugated by ``random_unitary(dev.dim, angle, rng)``.

    Conjugation keeps every element positive and the click element below the identity, so the result is a
    valid device whose click elements are no longer proportional: it samples unfairly, with a small epsilon.
    """
    u = random_unitary(dev.dim, angle, rng)
    good = dev.stack[:, :-1].copy()
    good[-1] = u @ good[-1] @ u.conj().T
    return LossyDevice(dev.dim, dev.settings, dev.outcomes, good)


def block_structured_state(rng, good_dim, bad_dim, eps_prime, components=3):
    """Mixture of pure states each splitting eps_prime of its weight off the good block."""
    kets = []
    for _ in range(components):
        kg = haar_ket(good_dim, rng)
        kb = haar_ket(bad_dim, rng)
        kets.append(np.concatenate([np.sqrt(1.0 - eps_prime) * kg, np.sqrt(eps_prime) * kb]))
    weights = rng.dirichlet(np.ones(components))
    return sum(w * projector(k) for w, k in zip(weights, kets))


def random_lossy_device(dim, rng, n_outcomes=3, damping=0.85, label="x"):
    """Single-setting device: a random POVM uniformly damped below unit efficiency."""
    elements = random_povm(dim, n_outcomes, rng)
    labels = [f"a{i}" for i in range(n_outcomes)]
    return LossyDevice(
        dim, [label], labels, {label: {lab: damping * m for lab, m in zip(labels, elements)}}
    )


def kron_table(sc, xs, alphabets):
    """Reference joint table: one Kronecker product and trace per outcome tuple."""
    return {
        outs: probability(
            tensor([dev.element(x, a) for dev, x, a in zip(sc.devices, xs, outs)]),
            sc.psi,
            f"outcomes {outs!r} at settings {xs!r}",
        )
        for outs in itertools.product(*alphabets)
    }


def kron_joint_raw(sc, xs):
    return kron_table(sc, xs, [(*dev.outcomes, NOCLICK) for dev in sc.devices])


def kron_all_click_probability(sc, xs):
    op = tensor([dev.click_element(x) for dev, x in zip(sc.devices, xs)])
    return probability(op, sc.psi, f"all-click at settings {xs!r}")


def kron_joint_postselected(sc, xs):
    acc = kron_all_click_probability(sc, xs)
    good = kron_table(sc, xs, [dev.outcomes for dev in sc.devices])
    return {outs: p / acc for outs, p in good.items()}


def random_multisetting_device(rng, dim, n_settings, n_outcomes):
    """Device whose settings each keep all but the last element of a random POVM as good outcomes."""
    outcomes = [f"a{i}" for i in range(n_outcomes)]
    povm = {
        f"x{s}": dict(zip(outcomes, random_povm(dim, n_outcomes + 1, rng)[:n_outcomes]))
        for s in range(n_settings)
    }
    return LossyDevice(dim, list(povm), outcomes, povm)


def legacy_validate(dim, settings, outcomes, povm):
    """Reference validation of a ``LossyDevice`` input: one ``eigh_psd`` per element, in label order.

    For each setting the good elements are checked one at a time, then an
    explicit no-click element's completeness residual, then the no-click
    element itself.  Raises what the check of the first faulty element raises.
    """
    eye = np.eye(dim, dtype=complex)
    for x in settings:
        row = {}
        for a in outcomes:
            m = as_operator(povm[x][a])
            eigh_psd(m, name=f"POVM element ({x!r}, {a!r})")
            row[a] = m
        good_sum = sum(row.values())
        if NOCLICK in povm[x]:
            noclick = as_operator(povm[x][NOCLICK])
            res = float(np.max(np.abs(good_sum + noclick - eye)))
            if res > COMPLETENESS_TOL:
                raise ValueError(f"setting {x!r} violates completeness by {res:.3e}")
        else:
            noclick = eye - good_sum
        eigh_psd(noclick, name=f"POVM element ({x!r}, noclick)")


# Reference reductions over the dict views of joint tables: one Python loop per entry,
# in table order.  The array path in ``fairsamp.bell`` must equal them to the bit; the
# matching reference for the Bell functional is the public dict loop ``bell.bell_value``.


def dict_raw_tables(sc, tuples):
    """Setting tuple -> ``joint_raw`` dict of each tuple in ``tuples``: a dict view of one ``sc.tables`` call."""
    t = sc.tables(tuples)
    outcome_tuples = list(itertools.product(*t.outcomes))
    return {xs: dict(zip(outcome_tuples, table.ravel().tolist())) for xs, table in t.raw.items()}


def dict_acceptance(raw):
    """Probability that every party clicks: the sum of the all-click entries of a raw table."""
    return sum(p for outs, p in raw.items() if NOCLICK not in outs)


def dict_postselected_tables(raw):
    """Setting tuple -> all-click entries divided by the acceptance; zero-acceptance tuples left out."""
    post = {}
    for xs, table in raw.items():
        acc = dict_acceptance(table)
        if acc > ZERO_ACCEPTANCE:
            post[xs] = {outs: p / acc for outs, p in table.items() if NOCLICK not in outs}
    return post


def dict_max_deviation(post, ideal_raw):
    """Max |post-selected - ideal raw| probability over the setting tuples of ``post``."""
    worst = 0.0
    for xs, ps in post.items():
        for outs, p in ps.items():
            worst = max(worst, abs(p - ideal_raw[xs][outs]))
    return worst


def with_dead_setting(dev):
    """``dev`` plus a setting ``"dead"`` whose good elements are all zero: it never clicks."""
    povm = {x: {a: dev.element(x, a) for a in dev.outcomes} for x in dev.settings}
    povm["dead"] = {a: np.zeros((dev.dim, dev.dim)) for a in dev.outcomes}
    return LossyDevice(dev.dim, [*dev.settings, "dead"], dev.outcomes, povm)


def silent_device():
    """Half-efficiency Z measurement at setting "0"; setting "dead" never clicks."""
    return LossyDevice(
        2,
        ["0", "dead"],
        ["+", "-"],
        {
            "0": {"+": 0.5 * np.diag([1.0, 0.0]), "-": 0.5 * np.diag([0.0, 1.0])},
            "dead": {"+": np.zeros((2, 2)), "-": np.zeros((2, 2))},
        },
    )


# Reference ideal experiment: the public steps composed, each eigendecomposing the reference
# operator anew and validating every element from scratch.  ``bell.ideal_scenario`` and
# ``bell.ScenarioAnalysis`` build it in one pass per party and must equal it to the bit.


def oracle_to_lossy(dev):
    """``LosslessDevice.to_lossy`` through ``LossyDevice.__init__``: no-click elements ``1 - support``."""
    eye = np.eye(dev.dim, dtype=complex)
    povm = {
        x: {**{a: dev.element(x, a) for a in dev.outcomes}, NOCLICK: eye - dev.click_element(x)} for x in dev.settings
    }
    return LossyDevice(dev.dim, dev.settings, dev.outcomes, povm)


def oracle_common_support(dev):
    """``LosslessDevice.common_support`` as the loop over a per-setting ``support`` mapping it replaced."""
    support = {x: sum(dev.stack[i, :len(dev.outcomes)]) for i, x in enumerate(dev.settings)}
    first = support[dev.settings[0]]
    for x in dev.settings[1:]:
        if np.max(np.abs(support[x] - first)) > COMPLETENESS_TOL:
            return None
    return first


def oracle_ideal_scenario(sc, mqs=None):
    """``check_exact`` -> ``ideal_device_from`` -> ``filtered_global_state`` -> ``oracle_to_lossy``."""
    if mqs is None:
        mqs = []
        for k, dev in enumerate(sc.devices):
            verdict = check_exact(dev)
            if not verdict.weak:
                raise ValueError(f"party {k} fails the exact fair-sampling check")
            mqs.append(verdict.quantum_elem)
    ideal = [ideal_device_from(dev, mq) for dev, mq in zip(sc.devices, mqs)]
    psi_click, _ = filtered_global_state(mqs, sc.psi)
    return BellScenario([oracle_to_lossy(dev) for dev in ideal], psi_click)


def _oracle_contract_step(sc, t, k, stack):
    """Contract party k's element stack for one setting, shape (m_k, d_k, d_k), into the partial tensor ``t``.

    ``t`` is ``psi`` reshaped to 2n legs (rows, then columns) with parties
    0..k-1 already contracted, so party k's row leg is axis 0 and its
    column leg axis n - k; the outcome axes collect at the end in party
    order.
    """
    # Tr(E psi) = sum_ij E[i, j] psi[j, i]: E's row index meets psi's column leg.  This is
    # np.tensordot(t, stack, axes=([0, n - k], [2, 1])) without its axis bookkeeping: the
    # same transposes, reshapes and np.dot, so the same bits.
    col = sc.n_parties - k
    rest = [ax for ax in range(t.ndim) if ax != 0 and ax != col]
    m, d = stack.shape[0], stack.shape[-1]
    at = t.transpose(*rest, 0, col).reshape(-1, d * d)
    bt = stack.transpose(2, 1, 0).reshape(d * d, m)
    return np.dot(at, bt).reshape(*(t.shape[ax] for ax in rest), m)


def oracle_prefix_walk(sc, tuples=None):
    """``BellScenario.tables`` as the prefix walk it replaced: one contraction per party and setting prefix.

    The walk contracts the parties' element stacks into ``psi`` in party
    order and keeps the partial contraction of the current setting prefix,
    so consecutive tuples sharing a prefix share its contractions.  Over all
    tuples in ``setting_tuples()`` order that is S_0 + S_0 S_1 + ... +
    S_0 ... S_{n-1} contraction steps for S_k settings of party k, instead
    of n per tuple; each step has the operands a lone tuple's would, so
    every table is the same to the bit.  A probability below
    ``-COMPLETENESS_TOL`` raises, naming the outcomes of the smallest
    entry of the first such tuple in walk order; smaller negative drift is
    clamped to 0.
    """
    n = sc.n_parties
    partial = [sc.psi.reshape([dev.dim for dev in sc.devices] * 2)] + [None] * n
    prefix = [object()] * n  # matches no label, None included
    outcomes = tuple((*dev.outcomes, NOCLICK) for dev in sc.devices)
    keys, probs = [], []
    for xs in sc.setting_tuples() if tuples is None else tuples:
        xs = tuple(xs)
        if len(xs) != n:
            raise ValueError(f"expected {n} settings, got {len(xs)}")
        k = 0
        while k < n and prefix[k] == xs[k]:
            k += 1
        for j in range(k, n):
            dev = sc.devices[j]
            partial[j + 1] = _oracle_contract_step(sc, partial[j], j, dev.stack[dev._index(xs[j])])
            prefix[j] = xs[j]
        keys.append(xs)
        probs.append(partial[n].real)
    if not keys:
        return JointTables(outcomes, {})
    stacked = np.stack(probs)
    failing = np.flatnonzero(stacked.reshape(len(keys), -1).min(axis=1) < -COMPLETENESS_TOL).tolist()
    if failing:
        table = stacked[failing[0]]
        worst = np.unravel_index(int(np.argmin(table)), table.shape)
        outs = tuple(alph[i] for alph, i in zip(outcomes, worst))
        read_probability(float(table[worst]), f"outcomes {outs!r} at settings {keys[failing[0]]!r}")
    np.maximum(stacked, 0.0, out=stacked)
    return JointTables(outcomes, dict(zip(keys, stacked)))


def oracle_validate_coefficients(sc, coeffs):
    """The label and key-set walk that ``bell.validate_coefficients`` made before it read the compiled functional.

    A settings tuple that does not fit the devices raises ``KeyError``.  Otherwise the first missing entry,
    setting tuples in first-use order and outcome tuples in product order, raises ``ValueError``.
    """
    tuples = dict.fromkeys(xs for xs, _ in coeffs)
    for xs in tuples:
        if len(xs) != sc.n_parties or any(x not in dev.settings for dev, x in zip(sc.devices, xs)):
            raise KeyError(f"coefficients reference settings {xs!r}")
    outcome_tuples = list(itertools.product(*(dev.outcomes for dev in sc.devices)))
    keys = set(coeffs)
    for xs in tuples:
        for outs in outcome_tuples:
            if (xs, outs) not in keys:
                raise ValueError(f"missing coefficient entry for settings {xs!r}, outcomes {outs!r}")


def oracle_beta_max(coeffs):
    """``bell.beta_max`` as a walk over the coefficient dict: per-setting maxima and minima of lists of weights.

    The first weight that is not finite raises ``ValueError`` naming its key.
    """
    for (xs, outs), c in coeffs.items():
        if not math.isfinite(c):
            fault = f"weight {float(c)!r} is not finite"
            raise ValueError(f"Bell coefficient for settings {xs!r}, outcomes {outs!r}: {fault}")
    by_setting: dict[tuple[str, ...], list[float]] = {}
    for (xs, _), c in coeffs.items():
        by_setting.setdefault(xs, []).append(c)
    hi = sum(max(cs) for cs in by_setting.values())
    lo = sum(min(cs) for cs in by_setting.values())
    return max(abs(hi), abs(lo))


def oracle_bound_report(sc, mqs):
    """What ``bound`` reads from ``bell.ScenarioAnalysis``, from ``oracle_ideal_scenario`` and the dict loops.

    The coefficients are checked for completeness first, before any epsilon.  Returns the fields of
    ``bound_figures``.
    """
    if sc.bell_coeffs is not None:
        oracle_validate_coefficients(sc, sc.bell_coeffs)
    eps = [approximate_epsilon(dev, mq) for dev, mq in zip(sc.devices, mqs)]
    eps_tot = epsilon_total(eps)
    post = dict_postselected_tables(dict_raw_tables(sc, sc.setting_tuples()))
    ideal_raw = dict_raw_tables(oracle_ideal_scenario(sc, mqs), post)
    beta = bell_deviation = None
    if sc.bell_coeffs is not None:
        beta = oracle_beta_max(sc.bell_coeffs)
        bell_deviation = abs(bell_value(post, sc.bell_coeffs) - bell_value(ideal_raw, sc.bell_coeffs))
    return eps, eps_tot, dict_max_deviation(post, ideal_raw), beta, bell_deviation


def bound_figures(analysis):
    """The epsilons, their total, the joint deviation, ``beta_max`` and the Bell deviation, read in ``bound``'s order.

    The Bell fields are None for a scenario without coefficients.
    """
    figures = [analysis.epsilons, analysis.epsilon_total, analysis.joint_deviation]
    if analysis.scenario.bell_coeffs is None:
        return (*figures, None, None)
    return (*figures, analysis.beta_max, analysis.bell_deviation)


def partial_transpose(rho, dims, party=-1):
    """``rho`` on parties of dimensions ``dims`` with the factor ``party`` transposed: one reshape, one axis swap."""
    n = len(dims)
    return np.swapaxes(np.reshape(rho, (*dims, *dims)), party % n, n + party % n).reshape(np.shape(rho))


def oracle_local_bound(sc):
    """``sc``'s functional maximised in absolute value over each product of deterministic local strategies in turn.

    Each party's strategy gives one of its device's good outcomes for each of its settings.
    """
    local = [list(itertools.product(dev.outcomes, repeat=len(dev.settings))) for dev in sc.devices]
    best_hi, best_lo = -math.inf, math.inf
    for strategy in itertools.product(*local):
        chosen = [dict(zip(dev.settings, choice)) for dev, choice in zip(sc.devices, strategy)]
        value = 0.0
        for (xs, outs), c in sc.bell_coeffs.items():
            if all(pick[x] == a for pick, x, a in zip(chosen, xs, outs)):
                value += c
        best_hi, best_lo = max(best_hi, value), min(best_lo, value)
    return max(abs(best_hi), abs(best_lo))


# Reference device passes: each recomputes what the one-pass code in ``fairsamp`` shares,
# one element or outcome at a time.  The one-pass code performs the same floating-point
# operations and must equal these to the bit.

#: Device kinds for the one-pass properties: exact fair sampling, pushed off it, and
#: either with an extra setting that never clicks.
PASS_KINDS = ("fair", "perturbed", "erased-fair", "erased-perturbed")


def pass_device(kind, rng, dim, n_settings, n_outcomes):
    """A device of one of ``PASS_KINDS``."""
    if kind.endswith("perturbed"):
        dev = perturbed_fair_device(rng, dim, n_settings, n_outcomes)
    else:
        dev = random_fair_sampling_device(dim, n_settings, n_outcomes, rng)
    return with_dead_setting(dev) if kind.startswith("erased") else dev


def oracle_check_exact(dev, tol=VERDICT_TOL, mq=None):
    """``check_exact`` from the weak test, ``default_mq``, ``approximate_epsilon`` and ``support_projector``.

    The weak test takes one SVD per pair of live click elements.  With a reference matrix ``mq``, its
    ``quantum_elem``, ``support`` and ``epsilon`` replace the device's own, as ``check --mq`` replaced
    them one public step at a time.
    """
    clicks = dev.click_elements()
    norms = operator_norms(clicks)
    live = np.flatnonzero(norms > ZERO_ACCEPTANCE)
    weak = all(
        operator_norm(clicks[i] * norms[j] - clicks[j] * norms[i]) <= tol * max(norms[i], norms[j])
        for i, j in itertools.combinations(live, 2)
    )
    weak_mq = clicks[live[0]] / norms[live[0]] if weak else None
    if weak:
        epsilon = 0.0
        own = weak_mq
    else:
        own = default_mq(dev)
        epsilon = approximate_epsilon(dev, own)
    verdict = FairSamplingVerdict(
        weak=weak,
        strong=weak and operator_norm(own - np.eye(dev.dim)) <= tol,
        homogeneous=weak and float(norms.max() - norms.min()) <= tol,
        classical_eff=dict(zip(dev.settings, norms.tolist())),
        quantum_elem=own,
        support=support_projector(own),
        epsilon=epsilon,
    )
    if mq is None:
        return verdict
    epsilon = approximate_epsilon(dev, mq)
    return dataclasses.replace(verdict, quantum_elem=mq, support=support_projector(mq), epsilon=epsilon)


def oracle_ideal_device_from(dev, mq):
    """``ideal_device_from`` one live setting and one good element at a time, through the dict constructor."""
    pi, pinv = support_projector(mq), sqrt_pinv_sqrt(mq)[1]
    n = len(dev.outcomes)
    povm = {}
    for x in dev.settings:
        click = dev.click_element(x)
        if operator_norm(click) <= ZERO_ACCEPTANCE:
            continue
        mt = pinv @ click @ pinv
        s = operator_norm(mt)
        gap = pi - mt / s
        povm[x] = {a: pinv @ dev.element(x, a) @ pinv / s + gap / n for a in dev.outcomes}
    return LosslessDevice(dev.dim, list(povm), dev.outcomes, povm)


def oracle_canonical_decomposition(dev):
    """``canonical_decomposition`` from ``click_element`` per setting and one product per good element."""
    filters, povm = {}, {}
    for x in dev.settings:
        sq_click, pinv_click = sqrt_pinv_sqrt(dev.click_element(x))
        sq_noclick, _ = sqrt_pinv_sqrt(dev.noclick_element(x))
        filters[x] = QuantumFilter(sq_click, sq_noclick)
        povm[x] = {a: pinv_click @ dev.element(x, a) @ pinv_click for a in dev.outcomes}
    return FilterDecomposition(filters, LosslessDevice(dev.dim, dev.settings, dev.outcomes, povm))


def oracle_verify_recomposition(dev, decomp, trials=100, seed=0):
    """``verify_recomposition`` one outcome at a time, each through ``FilterDecomposition.probability``."""
    rng = np.random.default_rng(seed)
    labels = (*dev.outcomes, NOCLICK)
    worst = 0.0
    for rho in verification_states(dev.dim, trials, rng):
        for x in dev.settings:
            direct = {a: expect(dev.element(x, a), rho) for a in labels}
            for a in labels:
                worst = max(worst, abs(decomp.probability(x, a, rho) - direct[a]))
    return worst


def oracle_sector_function(fock, theta, values):
    """One operator of ``TwoModeFock.sector_functions`` on its own: one rotation per photon number for it alone."""
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for n in range(fock.n_max + 1):
        u = fock.rotation_sector(theta, n)
        diag = np.array([values(n, k) for k in range(n + 1)], dtype=float)
        block = (u * diag) @ u.T
        sl = fock.sector_slice(n)
        out[sl, sl] = block
    return out


def oracle_analyser_device(spec):
    """``analyser_device`` with one ``oracle_sector_function`` call, and so one set of rotations, per outcome."""
    fock = TwoModeFock(spec.n_max)
    r1, r2 = spec.r1, spec.r2
    povm = {}
    for theta in spec.angles:
        d1 = oracle_sector_function(fock, theta, lambda n, k: (1.0 - r1**k) * r2 ** (n - k))
        d2 = oracle_sector_function(fock, theta, lambda n, k: r1**k * (1.0 - r2 ** (n - k)))
        both = oracle_sector_function(fock, theta, lambda n, k: (1.0 - r1**k) * (1.0 - r2 ** (n - k)))
        if spec.fold_both:
            povm[_setting_label(theta)] = {OUTCOME_D1: d1 + both, OUTCOME_D2: d2}
        else:
            povm[_setting_label(theta)] = {OUTCOME_D1: d1, OUTCOME_D2: d2, OUTCOME_BOTH: both}
    outcomes = [OUTCOME_D1, OUTCOME_D2] if spec.fold_both else [OUTCOME_D1, OUTCOME_D2, OUTCOME_BOTH]
    return LossyDevice(fock.dim, list(povm), outcomes, povm)


def oracle_outcome_distribution(dev, x, rho):
    """``LossyDevice.outcome_distribution`` with one ``probability`` call per outcome."""
    rho = assert_density(rho)
    labels = (*dev.outcomes, NOCLICK)
    probs = {a: probability(dev.element(x, a), rho, f"outcome {a!r} at setting {x!r}") for a in labels}
    total = sum(probs.values())
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise ValueError(f"distribution for setting {x!r} sums to {total!r}")
    return probs


# --- the random samplers one draw and one element at a time.  The stacked samplers in
# ``fairsamp.sampling`` draw the same numbers and must equal these to the bit.


def loop_random_povm(dim, n_outcomes, rng):
    """``random_povm`` drawing and whitening one Ginibre block per outcome."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    _, inv_sqrt = sqrt_pinv_sqrt(sum(blocks))
    return [inv_sqrt @ b @ inv_sqrt for b in blocks]


def loop_random_fair_sampling_device(dim, n_settings, n_outcomes, rng, eff_range=(0.3, 1.0)):
    """``random_fair_sampling_device`` with a random ``mq``, sandwiching one lossless element at a time."""
    w = rng.uniform(0.2, 1.0, size=dim)
    w[rng.integers(dim)] = 1.0
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    sq, _ = sqrt_pinv_sqrt(u @ np.diag(w) @ u.conj().T)
    outcomes = [f"a{j}" for j in range(n_outcomes)]
    povm = {}
    for i in range(n_settings):
        ec = rng.uniform(*eff_range)
        povm[f"x{i}"] = {a: ec * (sq @ n @ sq) for a, n in zip(outcomes, loop_random_povm(dim, n_outcomes, rng))}
    return LossyDevice(dim, list(povm), outcomes, povm)


# --- joint tables written the way ``simulate`` wrote them before tables were rendered in one pass:
# each probability rounded with ``.15g`` and parsed back, then the dict of labelled entries sorted,
# escaped and written with ``float.__repr__``.  ``serialize.table_to_json`` must write the same text.


def legacy_table_to_json(labels, table):
    """The dict of ``labels`` (C order) to ``sig15`` of each entry of ``table``."""
    values = table.ravel().tolist()
    return dict(zip(labels, map(float, ("%.15g " * len(values) % tuple(values)).split())))


def legacy_float_table(dct, level):
    """Text of a dict of str keys and finite float values at indent ``level``, else None."""
    if set(map(type, dct.values())) != {float} or set(map(type, dct)) != {str}:
        return None
    keys = sorted(dct)
    values = list(map(dct.__getitem__, keys))
    if not math.isfinite(sum(values)):
        return None
    inner = "\n" + "  " * (level + 1)
    pairs = map("%s: %s".__mod__, zip(map(encode_basestring_ascii, keys), map(float.__repr__, values)))
    return "{" + inner + ("," + inner).join(pairs) + "\n" + "  " * level + "}"


#: Lowest eigenvalues planted on each side of ``-PSD_TOL``, at the positivity screen's shift and at 0.
PLANTED_LOWEST = (-PSD_TOL * (1 + 1e-3), -PSD_TOL * (1 - 1e-3), -PSD_TOL / 2, 0.0)


def eigvalsh_psd_faults(stack):
    """``linalg.psd_faults`` with no screen: the Hermiticity reduction and one ``eigvalsh`` call, at every size."""
    herm = np.max(np.abs(stack - np.conj(stack).swapaxes(1, 2)), axis=(1, 2))
    return herm, np.linalg.eigvalsh(stack)[:, 0]


def planted_lowest(m, target):
    """Hermitian ``m`` with its lowest eigenvalue moved to ``target``, its eigenvectors kept."""
    w, v = np.linalg.eigh(m)
    return m + (target - w[0]) * projector(v[:, 0])


def record_linalg_calls(monkeypatch, *names) -> list:
    """Patch each ``np.linalg`` function of ``names`` to record every call as ``(name, shape)``."""
    calls = []

    def recorder(name, original):
        return lambda a: calls.append((name, a.shape)) or original(a)

    for name in names:
        monkeypatch.setattr(np.linalg, name, recorder(name, getattr(np.linalg, name)))
    return calls


def record_spectral_calls(monkeypatch) -> list:
    """Patch ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` to record each call as ``(name, shape)``.

    Every ``eigh`` call is recorded, and every ``eigvalsh`` call on a single
    matrix (a state's check); the batched POVM checks, on stacks, are not.
    """
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def record_eigh(a, *args, **kw):
        calls.append(("eigh", a.shape))
        return eigh(a, *args, **kw)

    def record_eigvalsh(a, *args, **kw):
        if a.ndim == 2:
            calls.append(("eigvalsh", a.shape))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", record_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", record_eigvalsh)
    return calls


def oracle_click_table(hv, source):
    """``adversary._click_table`` as a loop over labels: one ``expect`` per branch element and source state.

    Adds each hidden pair's weight ``p / len(source.table)`` to its cell, as
    the per-label generator of the attack's statistics did.
    """
    settings, outcomes = hv.settings, hv.outcomes
    table = np.zeros((len(settings),) * 2 + (len(outcomes),) * 2)
    for (i, x), (j, y) in itertools.product(enumerate(settings), repeat=2):
        for ra, rb in source.table:
            states = source.state(ra, rb)
            if states is None:
                continue
            rho_a, rho_b = states
            for (k, a), (m, b) in itertools.product(enumerate(outcomes), repeat=2):
                p = expect(hv.branches[ra].element(x, a), rho_a) * expect(hv.branches[rb].element(y, b), rho_b)
                table[i, j, k, m] += p / len(source.table)
    return table


def oracle_adversary_device(hv):
    """``HiddenVariableDevice.adversary_device`` as a loop over labels: ``kron(element, |i><i|)`` per branch."""
    r_dim = len(hv.branches)
    povm = {}
    for x in hv.settings:
        povm[x] = {}
        for a in hv.outcomes:
            total = np.zeros((hv.dim * r_dim,) * 2, dtype=complex)
            for i, r in enumerate(sorted(hv.branches)):
                reg = np.zeros((r_dim, r_dim), dtype=complex)
                reg[i, i] = 1.0
                total += tensor([hv.branches[r].element(x, a), reg])
            povm[x][a] = total
    return LossyDevice(hv.dim * r_dim, hv.settings, hv.outcomes, povm)
