"""Builders shared between the unit tests and the acceptance suite."""

import itertools

import numpy as np

from fairsamp.device import NOCLICK, LossyDevice
from fairsamp.linalg import COMPLETENESS_TOL, as_operator, eigh_psd, probability, projector, tensor
from fairsamp.sampling import haar_ket, random_fair_sampling_device, random_povm


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
