"""Numerical laboratory for the regularized barotropic Euler system and the
generalized two-component Hunter-Saxton system: equations of state, the
smoothing Sturm-Liouville operator, energy-conserving integrators, steady
profile analysis and dispersion checks, plus a batch experiment CLI."""

from .analysis import (
    SingularityFit,
    SteadyFluxes,
    cusp_amplitude_prediction,
    cusp_profile,
    equilibrium_fluxes,
    fit_singularity_exponent,
    integrate_steady_profile,
    measured_phase_speed,
    phase_speed,
    steady_ode_rhs,
)
from .eos import EquationOfState
from .errors import (
    BarolabError,
    BoundaryContaminationWarning,
    ConfigError,
    DomainError,
    FitUnreliableError,
    IntegrationError,
    MeasurementInvalidError,
    NumericalBreakdownError,
    VacuumError,
)
from .euler import (
    Diagnostics,
    GhsState,
    RunResult,
    SolverConfig,
    State,
    cfl_dt,
    diagnostics,
    ghs_energy,
    ghs_rhs,
    ghs_run,
    ghs_source,
    ghs_step,
    momentum_field,
    reg_source,
    rhs,
    run,
    rusanov_run,
    step,
)
from .grid import Grid
from .regularizer import Regularizer, composite_coefficients
from .sturm_liouville import SLSystem, exp_kernel, inverse_family_flux

__version__ = "0.1.0"
