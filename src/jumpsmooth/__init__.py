"""Numerical toolkit for one-dimensional jumping dynamics with
state-dependent jump rates: pathwise simulation by thinning, density
evolution under the adjoint generator, regularizing decompositions of the
jump kernel, and Fourier-decay smoothness certificates.

Each public name loads its module on first use (PEP 562), so a process
imports only the engines it runs: `import jumpsmooth` plus `load_config`
loads no simulator, evolution, kernel or diagnostics module.
"""

import importlib as _importlib

# module -> the public names it exports: the one declaration of the package's
# namespace, from which __all__ and the lazy lookup below are both read
_EXPORTS = {
    "errors": (
        "BlowUpError", "ConfigError", "ContractError", "DegenerateKernelError",
        "DivergenceError", "DomainEscapeError", "InvalidModelError", "JumpsmoothError",
        "MassBracketError", "MassConservationError", "NearSingularError", "NumericalError",
        "ResolutionError", "StabilityError", "WindowTooSmallError",
    ),
    "calculus": (
        "DerivativeStack", "TransferCoefficients", "composition_terms", "faa_di_bruno",
        "inverse_derivatives", "leibniz_product", "solve_tau", "solve_tau_grid", "solve_tau_i",
        "solve_tau_i_grid", "tau_i_stack_grid", "tau_stack_grid", "transfer_alpha",
        "transfer_alpha_grid", "transfer_beta", "transfer_beta_grid",
    ),
    "presets": (
        "Affine", "ExpDecay", "Function1D", "FunctionProduct", "FunctionSum", "GaussBump",
        "Indicator", "InversePower", "IsoPower", "JumpAmplitude", "Sinusoidal",
        "SmoothstepBump", "StretchedExp", "Tabulated", "TanhSigmoid", "constant",
        "smoothstep_coefficients",
    ),
    "model": (
        "AssumptionReport", "CoefficientSet", "JumpMeasureSpec", "check_A", "check_B", "check_S",
        "gauss_panels",
    ),
    "fokker_planck": (
        "AdjointOperator", "EvolutionConfig", "EvolutionResult", "GridDensity",
        "apply_generator", "duality_residual", "evolve", "gaussian_density",
        "norm_growth_audit", "picard_validate", "sobolev_norm",
    ),
    "kernels": (
        "KernelDecomposition", "conditional_jump_density", "cutoff_window_mass", "kernel_mass",
        "kernel_sobolev_audit", "make_cutoff", "make_kernels", "mu_density",
    ),
    "simulate": (
        "CFEstimate", "JumpEvent", "MarkSampler", "RegularizingJumpRecord", "RngSpec",
        "Trajectory", "empirical_cf", "estimate_density", "histogram_density", "sample_tau_n",
        "simulate_batch", "simulate_exact", "simulate_poissonized",
    ),
    "diagnostics": (
        "DecayReport", "PipelineConfig", "compare_densities", "decay_fit", "frequency_grid",
        "smoothness_pipeline",
    ),
    "config": ("ExperimentConfig", "build_function", "build_model", "load_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.2.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    """A public name, or one of the modules in `_EXPORTS`, loaded on first use
    and then bound here, so the lookup runs once per name.  An ImportError
    inside the module propagates as it is."""
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
