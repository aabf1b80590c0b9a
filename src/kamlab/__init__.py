"""kamlab: small-divisor arithmetic, one-step normal forms, invariant torus
continuation, and measure scaling scans for nearly integrable Hamiltonians."""

__version__ = "0.1.0"

from .errors import (
    KamlabError,
    ResonanceDetected,
    BelowThreshold,
    ConstructionFailed,
    KolmogorovDegenerate,
    StateMismatch,
    NonConvergentStep,
    MuTooLarge,
    TailNotConverged,
    NonConvergence,
    SmallDivisorBreakdown,
    OutsideImage,
    GateFailed,
    InsufficientSpan,
    WorkerDied,
)
from .freq_arith import (
    FrequencyVector,
    DivisorRecord,
    ArithmeticProfile,
    DiophReport,
    psi,
    psi_table,
    delta,
    check_delta_invariant,
    mu_nu,
    diophantine_check,
    make_test_frequency,
)
from .fourier_taylor import (
    FourierTaylorSeries,
    CompiledSeries,
    HamiltonianSpec,
    FlowResult,
    quadratic_from_matrices,
    integrate_flow,
)
from .normal_form import (
    NormalFormResult,
    solve_homological,
    lie_transform,
    one_step_normal_form,
    verify_homological,
    verify_estimates,
    prepare_time_scaled,
)
from .torus_solver import (
    TargetFrequency,
    TorusEmbedding,
    certify_target,
    solve_torus,
    invariance_defect,
    lagrangian_defect,
    verify_by_integration,
    pull_back,
)
from .measure_scan import (
    MeasureReport,
    ScanPlan,
    FitResult,
    ball_samples,
    scan_epsilon,
    run_plan,
    fit_scaling,
    gevrey_forecast,
)

__all__ = [
    "__version__",
    "KamlabError", "ResonanceDetected", "BelowThreshold", "ConstructionFailed",
    "KolmogorovDegenerate", "StateMismatch", "NonConvergentStep",
    "MuTooLarge", "TailNotConverged", "NonConvergence", "SmallDivisorBreakdown",
    "OutsideImage", "GateFailed", "InsufficientSpan", "WorkerDied",
    "FrequencyVector", "DivisorRecord", "ArithmeticProfile", "DiophReport",
    "psi", "psi_table", "delta", "check_delta_invariant", "mu_nu",
    "diophantine_check", "make_test_frequency",
    "FourierTaylorSeries", "CompiledSeries", "HamiltonianSpec",
    "FlowResult", "quadratic_from_matrices", "integrate_flow",
    "NormalFormResult", "solve_homological", "lie_transform",
    "one_step_normal_form", "verify_homological", "verify_estimates",
    "prepare_time_scaled",
    "TargetFrequency", "TorusEmbedding", "certify_target", "solve_torus",
    "invariance_defect", "lagrangian_defect", "verify_by_integration",
    "pull_back",
    "MeasureReport", "ScanPlan", "FitResult", "ball_samples", "scan_epsilon",
    "run_plan", "fit_scaling", "gevrey_forecast",
]
