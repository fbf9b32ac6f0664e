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
    PicardConfig,
    PicardReport,
    picard_iterate,
    strichartz_exponent,
)
from .noise_process import (
    AssumptionReport,
    DensitySpec,
    MartingalePath,
    NoiseModel,
    SpatialProfile,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from .spectral_grid import (
    ComplexField,
    GridSpec,
    constant_field,
    gaussian_field,
    make_grid,
    norm_L2,
    plane_wave,
    spectral_tail_fraction,
)

__version__ = "0.1.0"
