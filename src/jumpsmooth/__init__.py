"""Numerical toolkit for one-dimensional jumping dynamics with
state-dependent jump rates: pathwise simulation by thinning, density
evolution under the adjoint generator, regularizing decompositions of the
jump kernel, and Fourier-decay smoothness certificates."""

from types import ModuleType as _ModuleType

from .errors import (
    BlowUpError,
    ConfigError,
    ContractError,
    DegenerateKernelError,
    DivergenceError,
    DomainEscapeError,
    InvalidModelError,
    JumpsmoothError,
    MassBracketError,
    MassConservationError,
    NearSingularError,
    NumericalError,
    ResolutionError,
    StabilityError,
    WindowTooSmallError,
)
from .calculus import (
    DerivativeStack,
    TransferCoefficients,
    composition_terms,
    faa_di_bruno,
    inverse_derivatives,
    leibniz_product,
    solve_tau,
    solve_tau_grid,
    solve_tau_i,
    solve_tau_i_grid,
    tau_i_stack_grid,
    tau_stack_grid,
    transfer_alpha,
    transfer_alpha_grid,
    transfer_beta,
    transfer_beta_grid,
)
from .presets import (
    Affine,
    ExpDecay,
    Function1D,
    FunctionProduct,
    FunctionSum,
    GaussBump,
    Indicator,
    InversePower,
    IsoPower,
    JumpAmplitude,
    Sinusoidal,
    SmoothstepBump,
    StretchedExp,
    Tabulated,
    TanhSigmoid,
    constant,
    smoothstep_coefficients,
)
from .model import (
    AssumptionReport,
    CoefficientSet,
    JumpMeasureSpec,
    QuadratureSpec,
    check_A,
    check_B,
    check_S,
    gauss_panels,
)
from .fokker_planck import (
    AdjointOperator,
    EvolutionConfig,
    EvolutionResult,
    GridDensity,
    apply_generator,
    duality_residual,
    evolve,
    gaussian_density,
    norm_growth_audit,
    picard_validate,
    sobolev_norm,
)
from .kernels import (
    KernelDecomposition,
    conditional_jump_density,
    cutoff_window_mass,
    kernel_mass,
    kernel_sobolev_audit,
    make_cutoff,
    make_kernels,
    mu_density,
)
from .simulate import (
    CFEstimate,
    JumpEvent,
    MarkSampler,
    RegularizingJumpRecord,
    RngSpec,
    Trajectory,
    empirical_cf,
    estimate_density,
    histogram_density,
    sample_tau_n,
    simulate_batch,
    simulate_exact,
    simulate_poissonized,
)
from .diagnostics import (
    DecayReport,
    PipelineConfig,
    compare_densities,
    decay_fit,
    frequency_grid,
    smoothness_pipeline,
)
from .config import ExperimentConfig, build_function, build_model, load_config

__version__ = "0.1.0"

# every public name imported above, so a star import binds each name the
# package offers and the list cannot drift from the imports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
