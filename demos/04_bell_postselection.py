"""What survives post-selection in a Bell experiment.

Two quarter-efficiency detectors measure a singlet at the Tsirelson angles.
Because their losses are flat (strong fair sampling), discarding no-click
rounds changes nothing: the post-selected CHSH value equals the lossless
one, and the engine certifies the equality by building the ideal filtered
experiment explicitly.  With slightly mismatched detectors the equality
degrades gracefully, within the composed deviation bound.
"""

import numpy as np

from fairsamp import (
    BellScenario,
    LossyDevice,
    approximate_epsilon,
    beta_max,
    check_exact,
    deviation_bound,
    epsilon_total,
    ideal_scenario,
    postselected_vs_ideal_deviation,
    single_photon_analyser,
    tv_bound,
)
from fairsamp.cli import chsh_coefficients, chsh_singlet_scenario, singlet_state

sc = chsh_singlet_scenario()
tables = sc.tables()
print("acceptance probability per setting pair:",
      {",".join(xs): round(acc, 6) for xs, acc in tables.acceptance.items()})
value = sc.bell_value(tables.postselected)
print(f"post-selected CHSH: {value:.12f}  (2*sqrt(2) = {2*np.sqrt(2):.12f})")

verdicts = [check_exact(dev) for dev in sc.devices]
ideal = ideal_scenario(sc, [v.quantum_elem for v in verdicts])
print("max deviation from the ideal filtered experiment:",
      f"{postselected_vs_ideal_deviation(sc, ideal):.2e}")

# Now spoil the detectors slightly: each analyser's two photodiodes differ by
# 5% in miss probability, so fair sampling only holds approximately.
# Polarization angles are half the Bloch angles used above.
delta = 0.05
angles_a = {"0": 0.0, "1": np.pi / 4.0}
angles_b = {"0": -3.0 * np.pi / 8.0, "1": 3.0 * np.pi / 8.0}


def analyser_at(angles):
    raw = single_photon_analyser(0.8, delta, list(angles.values()))
    povm = {lab: {a: raw.element(s, a) for a in raw.outcomes}
            for lab, s in zip(angles, raw.settings)}
    return LossyDevice(2, list(angles), raw.outcomes, povm)


coeffs = {(xs, tuple("D1" if o == "+" else "D2" for o in outs)): c
          for (xs, outs), c in chsh_coefficients().items()}
noisy = BellScenario([analyser_at(angles_a), analyser_at(angles_b)], singlet_state(), coeffs)

mqs = [np.eye(2), np.eye(2)]
eps = [approximate_epsilon(dev, mq) for dev, mq in zip(noisy.devices, mqs)]
eps_tot = epsilon_total(eps)
print(f"\nper-party epsilon: {eps[0]:.6f}, {eps[1]:.6f} -> composed {eps_tot:.6f}")
print(f"joint total-variation bound: {tv_bound(eps_tot):.6f}")

ideal_noisy = ideal_scenario(noisy, mqs)
postselected = noisy.bell_value(noisy.tables().postselected)
measured = abs(postselected - ideal_noisy.bell_value(ideal_noisy.tables().raw))
beta = beta_max(coeffs)
print(f"post-selected CHSH with mismatch: {postselected:.6f}")
print(f"|CHSH_postselected - CHSH_ideal| = {measured:.6f} "
      f"<= {deviation_bound(eps_tot, beta):.6f} (bound, beta_max={beta:g})")
assert measured <= deviation_bound(eps_tot, beta)
