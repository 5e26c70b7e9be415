"""Linear dispersion checks, steady-profile machinery and singularity fitting.

The linearized system is dispersionless by construction (the same smoothing
function multiplies both gradient terms of the quadratic energy), so the
theoretical phase speed is ``sqrt(rho_bar * V''(rho_bar))`` for every
wavenumber and every regularization strength.  ``measured_phase_speed`` checks
that against the full nonlinear solver by propagating a small travelling wave
for one predicted period and correlating the fundamental mode against its
initial phase.

Steady motions reduce to a first-order ODE for the density,

    (2 eps A'/rho^2) (d rho/dx)^2 = N(rho) / D(rho),
    N = I^2 - 2 S rho + 2 (F/I) rho^2 - 2 rho V(rho),
    D = I^2 - rho^3 V''(rho),

driven by the constant mass/momentum/energy fluxes ``(I, S, F)``.  Where the
denominator vanishes (the sonic density) weak profiles develop the universal
two-thirds cusp ``rho = rho_s + amp * |x - x0|^(2/3)``; the exponent fitter
recovers the exponent and one-sided amplitudes by log-log regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eos import _check_density
from .errors import DomainError, FitUnreliableError, MeasurementInvalidError, _require
from .euler import SolverConfig, State, run
from .grid import Grid

SONIC_PROXIMITY = 1e-6  # stop the profile integration at |D| below this fraction of D(start)
R2_MIN = 0.99           # least r^2 on either side of an accepted singularity fit
MIN_POINTS = 8          # least number of points on either side of the fit window


# -- dispersion ---------------------------------------------------------------

def phase_speed(eos):
    """Theoretical phase speed, the sound speed ``sqrt(P') = sqrt(rho V'')`` at ``rho_bar``.

    Independent of both the wavenumber and the regularization.
    """
    return float(eos.sound_speed(eos.rho_bar))


def measured_phase_speed(eos, reg, k, amplitude, harmonic_tol=0.01):
    """Phase speed of a small travelling wave measured from the solver.

    Propagates ``rho = rho_bar + a cos(k x)`` with the matched velocity
    eigenvector on a periodic ``[0, 2 pi)`` domain of ``max(256, 64 k)`` nodes
    at CFL 0.3 for one predicted period and extracts the phase advance of the
    fundamental Fourier mode (the discrete cross-correlation phase).  Raises
    :class:`MeasurementInvalidError` when content outside the fundamental
    exceeds ``harmonic_tol`` of it, which signals nonlinear contamination.
    """
    k = int(k)
    if k <= 0:
        raise DomainError("mode number must be a positive integer")
    grid = Grid.periodic(2.0 * np.pi, max(256, 64 * k))  # >= 32 points per wavelength, with margin
    c0 = phase_speed(eos)
    a = float(amplitude)
    rho0 = eos.rho_bar + a * np.cos(k * grid.x)
    u0 = (c0 / eos.rho_bar) * a * np.cos(k * grid.x)
    period = 2.0 * np.pi / (k * c0)
    result = run(State(0.0, rho0, u0, grid), SolverConfig(t_end=period, cfl=0.3), reg, eos)

    def mode(state):
        return np.fft.rfft(state.rho - eos.rho_bar)

    spec0 = mode(result.snapshots[0])
    spec1 = mode(result.final)
    amp_fund = np.abs(spec1[k])
    others = np.abs(spec1).copy()
    others[0] = others[k] = 0.0
    if np.max(others) > harmonic_tol * amp_fund:
        raise MeasurementInvalidError(
            f"harmonic content {np.max(others) / amp_fund:.3e} of the fundamental "
            f"exceeds {harmonic_tol:.1e}; the wave left the linear regime"
        )
    dphi = np.angle(spec1[k]) - np.angle(spec0[k])  # true advance is -omega*T, wrapped
    wraps = round((k * c0 * period + dphi) / (2.0 * np.pi))
    omega = (2.0 * np.pi * wraps - dphi) / period
    return omega / k


# -- steady motions -----------------------------------------------------------

def equilibrium_fluxes(rho, u, eos):
    """Mass, momentum and energy fluxes ``(I, S, F)`` of a constant state."""
    v = float(eos.potential(rho))
    v1 = float(eos.enthalpy(rho))
    mass = rho * u
    momentum = rho * u**2 + rho * v1 - v
    energy = 0.5 * rho * u**3 + rho * v1 * u
    return mass, momentum, energy


@dataclass(frozen=True)
class SteadyFluxes:
    """The constant fluxes ``(I, S, F)`` of a steady motion: mass ``I = rho u``,
    momentum ``S = rho u^2 + P`` and energy ``F = rho u^3/2 + rho u V'``."""

    mass: float
    momentum: float
    energy: float


# Each public function of the steady relation applies the density rule once and
# takes V, V'', V''' and A' from the unchecked kernels, as the solvers do.  The
# kernels take the checked array and the powers of the density take it as given:
# numpy's powers of a 0-d array can differ from Python's float powers in the last
# bit, which would move every profile.

def steady_numer_denom(rho, fluxes, eos):
    """Numerator and denominator of the steady squared-slope relation."""
    return _numer_denom(rho, _check_density(rho), fluxes, eos)


def _numer_denom(rho, checked, fluxes, eos):
    """``(N, D)`` at ``rho``, whose density rule has passed as ``checked``."""
    denom = fluxes.mass**2 - rho**3 * eos._curvature(checked)[0]
    return sum(_numer_terms(rho, checked, fluxes, eos)), denom


def _numer_terms(rho, checked, fluxes, eos):
    """The terms ``I^2``, ``-2 S rho``, ``2 (F/I) rho^2`` and ``-2 rho V`` of ``N``."""
    i, s, f = fluxes.mass, fluxes.momentum, fluxes.energy
    return i**2, -2.0 * s * rho, 2.0 * (f / i) * rho**2, -2.0 * rho * eos._potential(checked)


def steady_ode_rhs(rho, fluxes, eos, reg):
    """Squared slope ``(d rho/dx)^2`` of a steady profile at density ``rho``.

    Negative values mark inadmissible regions; the result diverges at the
    sonic density where the denominator vanishes.
    """
    if reg.epsilon <= 0.0:
        raise DomainError("steady profiles need epsilon > 0")
    if fluxes.mass == 0.0:
        raise DomainError("steady profiles need a nonzero mass flux")
    checked = _check_density(rho)
    numer, denom = _numer_denom(rho, checked, fluxes, eos)
    return float(rho**2 * numer / (2.0 * reg.epsilon * reg._slopes(checked)[0] * denom))


def check_steady_start(fluxes, eos, reg, rho_start):
    """The start rule of a steady profile; returns whether ``rho_start`` is an equilibrium.

    ``rho_start`` must pass the density rule, and the squared slope there must
    be finite (it diverges at the sonic density) and not negative
    (:class:`DomainError` otherwise).  It is an equilibrium when the numerator
    ``N`` of the squared slope vanishes next to its own terms:
    ``|N| <= 1e-12 * (I^2 + |2 S rho| + |2 (F/I) rho^2| + |2 rho V|)``.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            v0 = steady_ode_rhs(rho_start, fluxes, eos, reg)
            terms = _numer_terms(rho_start, _check_density(rho_start), fluxes, eos)
        except OverflowError:  # a float power of a huge density
            v0 = np.inf
    if not np.isfinite(v0):
        raise DomainError("squared slope is not finite at rho_start; no profile there")
    if abs(sum(terms)) <= 1e-12 * sum(map(abs, terms)):
        return True
    if v0 < 0.0:
        raise DomainError("squared slope is negative at rho_start; no profile there")
    return False


@dataclass
class ProfileResult:
    x: np.ndarray
    rho: np.ndarray
    stop: str            # "sonic", "turning", "end" or "equilibrium"
    x_stop: float
    sol: object = None   # dense-output interpolant; None for an equilibrium


def integrate_steady_profile(fluxes, eos, reg, rho_start, x_max=10.0):
    """Integrate ``d rho/dx = +-sqrt(squared slope)`` from ``x = 0`` toward the sonic density.

    The density rises when ``rho_start`` lies below the sonic density and falls
    when it lies above: below it the denominator ``D`` is positive, since
    ``rho^3 V''`` increases with ``rho``.  Adaptive RK with terminal events at
    slope-zero points (the numerator crossing zero) and at sonic proximity (the
    denominator shrunk to ``SONIC_PROXIMITY`` of its starting magnitude).
    Branch switching at turning points is the caller's composition task.
    """
    from scipy.integrate import solve_ivp  # imported here: only steady profiles need it

    _require((0.0 < x_max, "x_max must be > 0"))  # a NaN x_max fails too
    if check_steady_start(fluxes, eos, reg, rho_start):
        # starting from an equilibrium: the constant state is the profile
        xs = np.linspace(0.0, x_max, 256)
        return ProfileResult(xs, np.full_like(xs, float(rho_start)), "equilibrium", x_max)
    _, d0 = steady_numer_denom(rho_start, fluxes, eos)
    direction = 1 if d0 > 0.0 else -1  # the start rule has rejected D = 0

    def drho_dx(x, y):
        if not y[0] > 0.0:  # a trial stage below vacuum: NaN makes RK45 reject the step
            return [np.nan]
        val = steady_ode_rhs(float(y[0]), fluxes, eos, reg)
        return [direction * np.sqrt(max(val, 0.0))]

    def ev_turning(x, y):
        n, _ = steady_numer_denom(float(y[0]), fluxes, eos)
        return n

    def ev_sonic(x, y):
        _, d = steady_numer_denom(float(y[0]), fluxes, eos)
        return abs(d) - SONIC_PROXIMITY * abs(d0)

    ev_turning.terminal = True
    ev_sonic.terminal = True
    sol = solve_ivp(drho_dx, (0.0, x_max), [float(rho_start)], rtol=1e-10, atol=1e-13,
                    events=[ev_turning, ev_sonic], dense_output=True, max_step=x_max / 50.0)
    if sol.t_events[1].size:
        stop, x_stop = "sonic", float(sol.t_events[1][0])
    elif sol.t_events[0].size:
        stop, x_stop = "turning", float(sol.t_events[0][0])
    else:
        stop, x_stop = "end", float(sol.t[-1])
    xs = np.linspace(0.0, x_stop, max(len(sol.t) * 8, 256))
    return ProfileResult(xs, sol.sol(xs)[0], stop, x_stop, sol=sol.sol)


def cusp_profile(profile, fluxes, eos, reg, n=4097):
    """Two-sided steady profile around the sonic point where ``profile`` stopped.

    The branch may reach the sonic density from above or from below.  Locates
    the cusp position by the local two-thirds model, mirrors the branch and
    resamples it uniformly with the cusp exactly on the middle node: ``n``
    samples for an odd ``n``, ``n - 1`` for an even one.  Returns
    ``(x, rho, x_center, rho_center)``.  ``profile`` is an
    :func:`integrate_steady_profile` result; one that did not stop at a sonic
    point raises :class:`DomainError`.
    """
    if profile.stop != "sonic":
        raise DomainError(f"profile stopped at {profile.stop!r}, not at a sonic point")
    rho_s = eos.sonic_density(fluxes.mass)
    sol, x_stop = profile.sol, profile.x_stop
    rho_c = float(sol(x_stop)[0])
    v_c = steady_ode_rhs(rho_c, fluxes, eos, reg)
    # local model rho - rho_s ~ a (x0 - x)^(2/3)  =>  x0 - x = (2/3)|rho - rho_s|/|rho'|
    x0 = x_stop + (2.0 / 3.0) * abs(rho_c - rho_s) / np.sqrt(v_c)
    half = np.linspace(0.0, x0, (n + 1) // 2)
    branch = np.where(half <= x_stop, sol(np.minimum(half, x_stop))[0],
                      rho_s + (rho_c - rho_s) * ((x0 - half) / (x0 - x_stop)) ** (2.0 / 3.0))
    branch[-1] = rho_s
    x = np.concatenate([half, x0 + (x0 - half[-2::-1])])
    rho = np.concatenate([branch, branch[-2::-1]])
    return x, rho, x0, rho_s


def cusp_amplitude_prediction(fluxes, eos, reg, rho_sonic):
    """Signed cusp amplitude ``a`` of ``rho - rho_s = a |x - x0|^(2/3)`` from the local analysis.

    Matching the ``|x - x0|^(-2/3)`` coefficients of the squared-slope relation
    at the sonic density gives a relation cubic in the amplitude,

        a^3 = (9 rho_s^3 / 8 eps A'(rho_s)) * (-N(rho_s) / (3 I^2 + rho_s^4 V'''(rho_s))),

    since the expanded denominator itself carries one factor of the amplitude.
    ``a`` is negative for a profile that reaches the sonic density from below.
    A cube that is 0 or not finite raises :class:`DomainError`.
    """
    checked = _check_density(rho_sonic)
    numer, _ = _numer_denom(rho_sonic, checked, fluxes, eos)
    da = float(reg._slopes(checked)[0])
    amp3 = (9.0 * rho_sonic**3 / (8.0 * reg.epsilon * da)) * (
        -numer / (3.0 * fluxes.mass**2 + rho_sonic**4 * eos._curvature(checked)[1]))
    if amp3 == 0.0 or not np.isfinite(amp3):
        raise DomainError("the local analysis admits no finite nonzero cusp amplitude here")
    return float(np.cbrt(amp3))


# -- singularity-exponent fitting ---------------------------------------------

@dataclass(frozen=True)
class SingularityFit:
    alpha_left: float
    alpha_right: float
    rho_amp_left: float
    rho_amp_right: float
    r2_left: float
    r2_right: float
    window: tuple[float, float]

    @property
    def alpha(self):
        return 0.5 * (self.alpha_left + self.alpha_right)


def _side_fit(t, y):
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(np.exp(intercept)), r2


def fit_singularity_exponent(x, rho, center, rho_ref, inner=None, outer=None):
    """Fit ``|rho - rho_ref| ~ amp * |x - center|**alpha`` on each side of ``center``.

    The window excludes ``|x - center| < 3 dx`` (the scale on which any cusp
    is smeared) and everything beyond 10% of the data extent by default.
    Raises :class:`FitUnreliableError`, with the fit attached, when either
    side falls below ``R2_MIN``, and without one when the profile is too short.
    """
    x = np.asarray(x, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if x.size < 2:  # no spacing to take the median of
        raise FitUnreliableError("profile has fewer than 2 points, too short to fit")
    dx = float(np.median(np.diff(x)))
    if inner is None:
        inner = 3.0 * dx
    if outer is None:
        outer = 0.1 * (x[-1] - x[0])
    if outer <= inner:
        raise FitUnreliableError("fit window is empty; profile too short for the requested window")
    s = x - center
    dev = np.abs(rho - rho_ref)
    results = []
    for sign in (-1.0, 1.0):
        mask = (np.sign(s) == sign) & (np.abs(s) >= inner) & (np.abs(s) <= outer) & (dev > 0.0)
        if np.count_nonzero(mask) < MIN_POINTS:
            raise FitUnreliableError(
                f"only {np.count_nonzero(mask)} usable points on one side of the window")
        results.append(_side_fit(np.log(np.abs(s[mask])), np.log(dev[mask])))
    fit = SingularityFit(
        alpha_left=results[0][0], alpha_right=results[1][0],
        rho_amp_left=results[0][1], rho_amp_right=results[1][1],
        r2_left=results[0][2], r2_right=results[1][2],
        window=(inner, outer),
    )
    if fit.r2_left < R2_MIN or fit.r2_right < R2_MIN:
        raise FitUnreliableError(
            f"fit quality r^2 = ({fit.r2_left:.4f}, {fit.r2_right:.4f}) below {R2_MIN}",
            diagnostics=fit,
        )
    return fit
