"""Fair-sampling toolkit for lossy quantum measurement devices.

Models finite-efficiency detectors as POVMs with an explicit no-click
outcome, decides exact and approximate fair sampling, constructs the
filter / lossless decomposition and filtered states that reproduce
post-selected statistics, and simulates multipartite Bell experiments
including adversarial counterexamples.
"""

from .analysis import (
    FairSamplingVerdict,
    ImperfectStateReport,
    approximate_epsilon,
    check_exact,
    default_mq,
    filtered_state,
    ideal_device_from,
    imperfect_state_bound,
    necessary_conditions,
    state_dependent_check,
    tv_bound,
)
from .bell import (
    BellScenario,
    BoundReport,
    bell_value,
    beta_max,
    bound_report,
    deviation_bound,
    epsilon_total,
    filtered_global_state,
    ideal_scenario,
    joint_device,
    postselected_bell_value,
    postselected_vs_ideal_deviation,
    validate_coefficients,
    verify_postselection_equivalence,
)
from .device import (
    NOCLICK,
    LossyDevice,
    LosslessDevice,
    ZeroAcceptanceError,
    projective_qubit_device,
    total_variation,
)
from .filters import (
    ClassicalFilter,
    FilterDecomposition,
    QuantumFilter,
    canonical_decomposition,
    classical_normal_form,
    verify_recomposition,
)
from .linalg import (
    operator_norm,
    partial_trace,
    projector,
    sqrt_pinv_sqrt,
    support_projector,
    tensor,
    trace_norm,
)
from .optics import (
    AnalyserSpec,
    TwoModeFock,
    analyser_device,
    analyser_epsilon_closed_form,
    analyser_mq,
    single_photon_analyser,
)
from .adversary import (
    FakingSource,
    HiddenVariableDevice,
    makarov_branches,
    makarov_traced,
    run_faked_chsh,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyserSpec",
    "BellScenario",
    "BoundReport",
    "ClassicalFilter",
    "FairSamplingVerdict",
    "FakingSource",
    "FilterDecomposition",
    "HiddenVariableDevice",
    "ImperfectStateReport",
    "LosslessDevice",
    "LossyDevice",
    "NOCLICK",
    "QuantumFilter",
    "TwoModeFock",
    "ZeroAcceptanceError",
    "analyser_device",
    "analyser_epsilon_closed_form",
    "analyser_mq",
    "approximate_epsilon",
    "bell_value",
    "beta_max",
    "bound_report",
    "canonical_decomposition",
    "check_exact",
    "classical_normal_form",
    "default_mq",
    "deviation_bound",
    "epsilon_total",
    "filtered_global_state",
    "filtered_state",
    "ideal_device_from",
    "ideal_scenario",
    "imperfect_state_bound",
    "joint_device",
    "makarov_branches",
    "makarov_traced",
    "necessary_conditions",
    "operator_norm",
    "partial_trace",
    "postselected_bell_value",
    "postselected_vs_ideal_deviation",
    "projective_qubit_device",
    "projector",
    "run_faked_chsh",
    "single_photon_analyser",
    "sqrt_pinv_sqrt",
    "state_dependent_check",
    "support_projector",
    "tensor",
    "total_variation",
    "trace_norm",
    "tv_bound",
    "validate_coefficients",
    "verify_postselection_equivalence",
    "verify_recomposition",
]
