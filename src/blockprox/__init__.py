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
    forcing,
    proportion,
)
from .selection import (
    BlockRule,
    exact_expected_theta,
    parse_rule,
    select,
)
from .rates import (
    FunctionClass,
    NoGuaranteeError,
    NoParameterError,
    RateBound,
    L_tau,
    expected_inverse_matrix,
    function_classes,
    general_nonconvex_epsilon,
    gradient_dominated_K,
    predict_K,
    rule_constant,
    strongly_convex_mu,
    weakly_convex_rho,
)
from .descent import (
    IterationRecord,
    NumericFailureError,
    RunConfig,
    RunResult,
    Trace,
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
