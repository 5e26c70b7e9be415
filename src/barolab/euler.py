"""Method-of-lines integrator for the regularized barotropic Euler system.

The integrated form is the velocity equation with the smoothed source,

    rho_t + (rho u)_x = 0
    u_t + u u_x + P_x/rho = -eps * L^{-1} d/dx { c_u u_x^2 + c_rho rho_x^2 }

with ``L`` the Sturm-Liouville operator and ``(c_u, c_rho)`` the composite
coefficients of :mod:`barolab.regularizer`.  Spatial derivatives are centred
second order, time stepping is classical RK4 with a CFL-limited step based on
the characteristic speed ``|u| + c_s`` (the smoothed source adds no
stiffness).  The pressure gradient is discretized as ``ddx(P)/rho`` -- in the
continuum this equals the enthalpy gradient, and on a periodic grid it makes
the discrete momentum sum telescope exactly instead of drifting at O(dx^2).

Smooth solutions conserve mass, total momentum and the energy

    integral( rho u^2/2 + eps rho A' u_x^2 + V + eps A' V'' rho_x^2 ) dx,

all of which (plus the gradient sup-norm used by the blow-up detector) are
reported by :func:`diagnostics`.

For the vanishing-regularization study a first-order local Lax-Friedrichs
(Rusanov) scheme on the conservative variables is included as the classical
entropy-solution reference; centred stencils are unstable at ``eps = 0`` near
shocks, so the monotone scheme is the meaningful baseline there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np

from .eos import _check_density
from .errors import DomainError, IntegrationError, NumericalBreakdownError, _require
from .grid import require_finite
from .regularizer import composite_coefficients
from .sturm_liouville import SLSystem


@dataclass(frozen=True)
class State:
    """Density and velocity fields at one instant."""

    t: float
    rho: np.ndarray
    u: np.ndarray
    grid: object

    def validate(self):
        rho = _check_density(self.rho)
        u = require_finite(self.u, "velocity")
        if rho.shape != (self.grid.n,) or u.shape != (self.grid.n,):
            raise DomainError("field shapes do not match the grid")
        return self


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.5
    blowup_factor: float = 1e3
    blowup_threshold: float | None = None   # absolute override of the factor rule
    snapshot_every: int = 0                 # steps between snapshots; 0 = ends only

    def __post_init__(self):
        _require(
            (0.0 < self.t_end < math.inf, "t_end must be > 0 and finite"),
            (0.0 < self.cfl <= 1.0, "cfl must lie in (0, 1]"),
            (self.blowup_factor > 0.0, "blowup_factor must be > 0"),
            (self.blowup_threshold is None or self.blowup_threshold > 0.0,
             "blowup_threshold must be > 0 when given"),
            (self.snapshot_every >= 0, "snapshot_every must be >= 0"),
        )


@dataclass(frozen=True)
class Diagnostics:
    energy: float
    mass: float
    momentum: float
    sup_wx: float


@dataclass
class RunResult:
    final: State
    series: list = field(default_factory=list)     # rows (t, dt, mass, momentum, energy, sup_wx)
    snapshots: list = field(default_factory=list)  # (t, state) pairs at the configured cadence
    blowup: bool = False
    blowup_time: float | None = None
    steps: int = 0


def _gradients(state):
    """``(u_x, rho_x)``, each continued past the edges by its far-field values."""
    grid = state.grid
    return grid.ddx(state.u, far=grid.u_far), grid.ddx(state.rho, far=grid.rho_far)


def reg_source(state, reg, eos):
    """The squared-gradient source ``psi = c_u u_x^2 + c_rho rho_x^2``."""
    ux, rx = _gradients(state)
    c_u, c_rho = composite_coefficients(reg, eos, state.rho)
    return c_u * ux**2 + c_rho * rx**2


def rhs(state, reg, eos):
    """Semi-discrete right-hand side ``(d rho/dt, d u/dt)``."""
    grid = state.grid
    rho, u = state.rho, state.u
    drho = -grid.ddx(rho * u, far=grid._far(mul))
    p_far = grid._far(lambda r, _: eos.pressure(r))
    du = -u * grid.ddx(u, far=grid.u_far) - grid.ddx(eos.pressure(rho), far=p_far) / rho
    if reg.epsilon > 0.0:
        psi = reg_source(state, reg, eos)
        du = du - reg.epsilon * SLSystem(grid, rho, reg).solve_dx(psi)
    return drho, du


def cfl_dt(state, eos, cfl):
    """CFL step from the characteristic speed, capped at ``dx``."""
    speed = np.max(np.abs(state.u) + eos.sound_speed(state.rho))
    if speed == 0.0:
        return state.grid.dx
    return min(cfl * state.grid.dx / speed, state.grid.dx)


def _rk4(state, dt, f, reg, eos):
    """One classical RK4 step of ``f(state, reg, eos)``; re-validates the result.

    Stage states carry the stage times ``t``, ``t + dt/2`` and ``t + dt``.  An
    invalid state or a failed operator solve becomes an :class:`IntegrationError`.
    """
    try:
        k1r, k1u = f(state, reg, eos)
        s2 = replace(state, t=state.t + 0.5 * dt,
                     rho=state.rho + 0.5 * dt * k1r, u=state.u + 0.5 * dt * k1u)
        k2r, k2u = f(s2, reg, eos)
        s3 = replace(s2, rho=state.rho + 0.5 * dt * k2r, u=state.u + 0.5 * dt * k2u)
        k3r, k3u = f(s3, reg, eos)
        s4 = replace(state, t=state.t + dt, rho=state.rho + dt * k3r, u=state.u + dt * k3u)
        k4r, k4u = f(s4, reg, eos)
        out = replace(
            s4,
            rho=state.rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            u=state.u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        )
        return out.validate()
    except (DomainError, NumericalBreakdownError) as exc:
        raise IntegrationError(str(exc), state.t) from exc


def step(state, dt, reg, eos, _rhs=None):
    """One classical RK4 step; re-validates positivity and finiteness."""
    return _rk4(state, dt, _rhs or rhs, reg, eos)


def momentum_field(state, reg):
    """Nonlocal momentum density ``m = rho u - 2 eps (rho A' u_x)_x``.

    This is exactly the assembled operator applied to the velocity.
    """
    return SLSystem(state.grid, state.rho, reg).apply(state.u, far=state.grid.u_far)


def sup_gradient(ux, rx):
    """The blow-up detector's gradient sup-norm ``max(|rho_x|, |u_x|)``."""
    return max(np.max(np.abs(rx)), np.max(np.abs(ux)))


def diagnostics(state, reg, eos):
    """Energy, mass, total momentum and gradient sup-norm of a state."""
    grid = state.grid
    ux, rx = _gradients(state)
    da = reg.slope(state.rho)
    _, v2, _ = eos.potential_derivatives(state.rho)
    eps = reg.epsilon
    e = (0.5 * state.rho * state.u**2 + eps * state.rho * da * ux**2
         + eos.potential(state.rho) + eps * da * v2 * rx**2)
    e_far = grid._far(lambda r, v: 0.5 * r * v**2 + eos.potential(r))
    return Diagnostics(
        energy=grid.integrate(e, far=e_far),
        mass=grid.integrate(state.rho, far=grid.rho_far),
        momentum=grid.integrate(state.rho * state.u, far=grid._far(mul)),
        sup_wx=sup_gradient(ux, rx),
    )


def _before_end(t, t_end):
    """Whether a run at time ``t`` has not yet reached ``t_end`` (up to roundoff)."""
    return t < t_end - 1e-14 * max(1.0, abs(t_end))


def _drive(initial, config, eos, advance, row):
    """The run loop shared by both systems.

    ``advance(state, dt)`` takes one step and ``row(state, dt)`` gives the
    series row ``(t, dt, mass, momentum, energy, sup_wx)``.
    """
    state = initial.validate()
    result = RunResult(final=state)
    result.series.append(row(state, 0.0))
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = config.blowup_factor * (result.series[0][-1] + 1.0)
    result.snapshots.append((state.t, state))
    t_end = initial.t + config.t_end
    boundary_warned = False
    while _before_end(state.t, t_end):
        dt = min(cfl_dt(state, eos, config.cfl), t_end - state.t)
        state = advance(state, dt)
        result.steps += 1
        r = row(state, dt)
        result.series.append(r)
        if config.snapshot_every and result.steps % config.snapshot_every == 0:
            result.snapshots.append((state.t, state))
        if r[-1] > threshold:
            result.blowup = True
            result.blowup_time = state.t
            break
        if not boundary_warned:
            boundary_warned = state.grid.check_boundary(
                state.rho, state.grid.rho_far, "density")
    if result.snapshots[-1][0] != state.t:
        result.snapshots.append((state.t, state))
    result.final = state
    return result


def run(initial, config, reg, eos, _rhs=None):
    """Advance to ``t_end`` or until the gradient sup-norm crosses the blow-up bar.

    Blow-up is a reported outcome (``result.blowup``), not an error; invalid
    states raise :class:`IntegrationError`.  ``dt`` is recomputed every step.
    """
    def row(state, dt):
        d = diagnostics(state, reg, eos)
        return (state.t, dt, d.mass, d.momentum, d.energy, d.sup_wx)

    return _drive(initial, config, eos,
                  lambda state, dt: step(state, dt, reg, eos, _rhs=_rhs), row)


# -- first-order classical reference ----------------------------------------

def rusanov_rhs(state, eos):
    """Local Lax-Friedrichs flux divergence for the classical Euler system.

    Works on the conservative pair ``(rho, q = rho u)``; periodic grids only.
    """
    pad = state.grid._pad
    rho, u = state.rho, state.u
    q = rho * u
    f_q = q * u + eos.pressure(rho)
    a = pad(np.abs(u) + eos.sound_speed(rho))
    rho_p, q_p, fq_p = pad(rho), pad(q), pad(f_q)
    # face j lies between cells j-1 and j
    a_face = np.maximum(a[:-1], a[1:])
    flux_rho = 0.5 * (q_p[:-1] + q_p[1:]) - 0.5 * a_face * (rho_p[1:] - rho_p[:-1])
    flux_q = 0.5 * (fq_p[:-1] + fq_p[1:]) - 0.5 * a_face * (q_p[1:] - q_p[:-1])
    drho = -(flux_rho[1:] - flux_rho[:-1]) / state.grid.dx
    dq = -(flux_q[1:] - flux_q[:-1]) / state.grid.dx
    return drho, dq


def rusanov_run(initial, t_end_rel, eos, cfl=0.4):
    """Forward-Euler Rusanov run; returns the final state (``q = rho u`` is carried)."""
    state = initial.validate()
    if not state.grid.is_periodic:
        raise DomainError("the classical reference runs on periodic grids")
    t_end = state.t + t_end_rel
    rho, q, t = state.rho, state.rho * state.u, state.t
    cur = State(t, rho, q / rho, state.grid)
    while _before_end(t, t_end):
        dt = min(cfl_dt(cur, eos, cfl), t_end - t)
        drho, dq = rusanov_rhs(cur, eos)
        rho = rho + dt * drho
        q = q + dt * dq
        t += dt
        try:
            cur = State(t, rho, q / rho, state.grid).validate()
        except DomainError as exc:
            raise IntegrationError(str(exc), t) from exc
    return cur
