"""Spectral split-step laboratory for stochastic nonlinear Schrodinger
equations driven by multiplicative martingale noise."""

from .diagnostics import (
    DecayReport,
    ResidualSeries,
    decay_fit,
    energy_identity_residual,
    fit_log_slope,
    gronwall_check,
    mass_identity_residual,
    omega,
    residual_order,
)
from .errors import AssumptionVeto, ConfigError, NumericalAbort
from .harness import (
    EnsembleReport,
    RunConfig,
    run,
    run_convergence,
    run_ensemble,
    run_picard,
    run_simulation,
    run_validate,
)
from .integrator import SimParams, SolutionRecord, simulate
from .mild_picard import (
    NodeTrajectory,
    PicardConfig,
    PicardReport,
    apply_map,
    duhamel_apply,
    mixed_norm,
    picard_iterate,
    strichartz_exponent,
)
from .noise_process import (
    AssumptionReport,
    DensitySpec,
    MartingalePath,
    NoiseModel,
    SpatialProfile,
    lln_ratio,
    noise_field,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from .rescaling import RescaledPotential, from_rescaled, potential_fields, to_rescaled
from .spectral_grid import (
    ComplexField,
    GridSpec,
    constant_field,
    free_propagator_apply,
    gaussian_field,
    laplacian_symbol,
    make_grid,
    norm_L2,
    norm_Lp,
    plane_wave,
    spectral_tail_fraction,
)

__version__ = "0.1.0"
