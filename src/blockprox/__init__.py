"""Proximal block descent with interchangeable block-selection rules,
per-iterate optimality certificates, and iteration-complexity predictors.
"""

from .linalg import (
    CoordSet,
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationTooLargeError,
    InvalidSetError,
    NotPositiveDefiniteError,
    enumerate_subsets,
    subset_count,
)
from .objectives import (
    CompositeProblem,
    IterateState,
    L1Regularizer,
    LsqCosObjective,
    Objective,
    SeparableRegularizer,
    ZeroRegularizer,
    flat_inflection_coefficient,
    gen_instance,
    load_instance,
    make_huber_product,
    make_l1,
    make_lsq_cos,
    make_plateau_1d,
    make_product_square,
    make_quadratic,
    save_instance,
)
from .engine import (
    AtOptimumError,
    BlockStep,
    Certificate,
    block_step,
    certificate,
    evaluate_block_model,
    forcing,
    lambda_i,
    proportion,
)
from .selection import (
    BlockRule,
    SelectionContext,
    exact_expected_theta,
    importance_probabilities,
    parse_rule,
    select,
)
from .rates import (
    FunctionClass,
    NoGuaranteeError,
    NoParameterError,
    RateBound,
    L_tau,
    eso_v,
    expected_inverse_matrix,
    general_nonconvex_epsilon,
    gradient_dominated_K,
    level_set_radius,
    predict_K,
    quadratic_level_radius,
    rule_constant,
    strongly_convex_mu,
    weakly_convex_rho,
)
from .descent import (
    IterationRecord,
    NumericFailureError,
    RunConfig,
    RunResult,
    TraceReport,
    UnverifiableError,
    empirical_optimum,
    run,
    sequence_bound_check,
    verify_trace,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
