"""Two-operator means on symmetric positive-definite matrices, with seeded
numerical verification of refined Young-type inequalities at desk scale."""

__version__ = "0.1.0"

from .scalar import (
    WeightedTuple,
    baseline_diff_bound,
    baseline_ratio_margin,
    critical_nu_diff,
    critical_nu_ratio,
    log_mean,
    refined_weighted_amgm_margin,
    refined_young_margin,
    reverse_diff_margin,
    reverse_ratio_margin,
    specht_ratio,
    young_gap,
)
from .matrices import (
    ConvergenceError,
    EigenDecomp,
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    frobenius_norm,
    jacobi_eigen,
    load_matrix,
    matrix_inverse,
    operator_norm,
    save_matrix,
    spectral_bounds,
)
from .means import (
    SpdPair,
    refinement_bridge,
    resolvent_identity_residual,
    weighted_arithmetic,
    weighted_geometric,
    weighted_harmonic,
)
from .verify import (
    CheckResult,
    SuiteConfig,
    SuiteReport,
    UnitVector,
    check_baseline_reverses,
    check_hm_refined,
    check_refined_chain,
    check_reverse_difference,
    check_reverse_ratio,
    gen_spd_pair,
    gen_unit_vector,
    run_suite,
)
from .explore import (
    ExplorationReport,
    ExtremizerReport,
    GridSpec,
    ReferenceComparison,
    conjecture_scan,
    no_ordering_scan,
    reference_comparison,
    verify_extremizers,
)
