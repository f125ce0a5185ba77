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
    ScenarioAnalysis,
    check_exact,
    ideal_scenario,
    postselected_vs_ideal_deviation,
    single_photon_analyser,
    tv_bound,
)
from fairsamp.bell import LABEL_SEP, chsh_coefficients, chsh_singlet_scenario, singlet_state

sc = chsh_singlet_scenario()
tables = sc.tables()
print("acceptance probability per setting pair:",
      {LABEL_SEP.join(xs): round(acc, 6) for xs, acc in tables.acceptance.items()})
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
analysers = [single_photon_analyser(0.8, delta, [0.0, np.pi / 4.0]),
             single_photon_analyser(0.8, delta, [-3.0 * np.pi / 8.0, 3.0 * np.pi / 8.0])]
noisy = BellScenario(analysers, singlet_state(), chsh_coefficients(analysers))

analysis = ScenarioAnalysis(noisy, [np.eye(2), np.eye(2)])
eps, eps_tot = analysis.epsilons, analysis.epsilon_total
print(f"\nper-party epsilon: {eps[0]:.6f}, {eps[1]:.6f} -> composed {eps_tot:.6f}")
print(f"joint total-variation bound: {tv_bound(eps_tot):.6f}")

measured, bound = analysis.bell_deviation, analysis.bell_deviation_bound
print(f"post-selected CHSH with mismatch: {analysis.bell_value_postselected:.6f}")
print(f"|CHSH_postselected - CHSH_ideal| = {measured:.6f} "
      f"<= {bound:.6f} (bound, beta_max={analysis.beta_max:g})")
assert measured <= bound
