"""Exact (perfect) sampling for discrete chains with unbounded memory.

Two backward couplings drive everything: a spontaneous-symbol scheme that
regenerates from context-free mass, and a windowed coupled-trajectory
scheme for kernels whose finite-order skeleton has a unique aperiodic
closed class.  The rest of the package is kernels to run them on, exact
enumeration oracles, and statistical diagnostics.
"""

from .streams import StreamKey, keyed_uniforms, uniform_at
from .kernels import (
    STAR,
    KernelContractViolation,
    KernelSpec,
    ValidationReport,
    Window,
    canon,
    sample_symbol,
    sample_symbol_increment,
    validate_kernel,
)
from .backward import (
    BackwardPlan,
    BetaZeroForAlgo1,
    MaxRoundsExceeded,
    SimulationTableau,
    StoppingRecord,
    prepare_backward,
    run_algorithm1,
    run_auxiliary_chain,
    run_joint_tableau,
)
from .coalescence import (
    AssumptionViolated,
    BetaNZero,
    CoalescencePlan,
    MarkovAnalysis,
    NotFound,
    NotFoundWithin,
    build_markov_analysis,
    compute_n0,
    find_nhat,
    prepare_coalescence,
    run_algorithm2,
)
from .diagnostics import (
    ConditionReport,
    ExplosionGuard,
    RenewalReport,
    check_theorem_conditions,
    concentration_bound,
    exact_T0_tail,
    renewal_diagnostic,
    rho_exact,
    rho_tilde_exact,
)
from .gallery import (
    GALLERY,
    build_kernel,
    make_autoregressive,
    make_cyclic4,
    make_flipflop,
    make_graph_walk,
    make_imitation,
    make_imitation_general,
    make_ladder,
    make_three_letter_alternating,
)

__all__ = [
    "STAR",
    "AssumptionViolated",
    "BackwardPlan",
    "BetaNZero",
    "BetaZeroForAlgo1",
    "CoalescencePlan",
    "ConditionReport",
    "ExplosionGuard",
    "GALLERY",
    "KernelContractViolation",
    "KernelSpec",
    "MarkovAnalysis",
    "MaxRoundsExceeded",
    "NotFound",
    "NotFoundWithin",
    "RenewalReport",
    "SimulationTableau",
    "StoppingRecord",
    "StreamKey",
    "ValidationReport",
    "Window",
    "build_kernel",
    "build_markov_analysis",
    "canon",
    "check_theorem_conditions",
    "compute_n0",
    "concentration_bound",
    "exact_T0_tail",
    "find_nhat",
    "keyed_uniforms",
    "make_autoregressive",
    "make_cyclic4",
    "make_flipflop",
    "make_graph_walk",
    "make_imitation",
    "make_imitation_general",
    "make_ladder",
    "make_three_letter_alternating",
    "prepare_backward",
    "prepare_coalescence",
    "renewal_diagnostic",
    "rho_exact",
    "rho_tilde_exact",
    "run_algorithm1",
    "run_algorithm2",
    "run_auxiliary_chain",
    "run_joint_tableau",
    "sample_symbol",
    "sample_symbol_increment",
    "uniform_at",
    "validate_kernel",
]

__version__ = "0.1.0"
