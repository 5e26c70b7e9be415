"""Periodic integrator for the generalized two-component Hunter-Saxton system.

This is the high-frequency companion of the regularized Euler system.  At
high frequency the Sturm-Liouville operator reduces to its leading symbol,
``L ~ -2 eps d/dx (kappa d/dx .)`` with ``kappa = rho A'``, so the smoothed
source ``-eps L^{-1} d/dx psi`` of the Euler velocity equation becomes
``D^{-1}(psi / 2 kappa)``: the source here is the Euler source
``psi = c_u u_x^2 + c_rho rho_x^2`` over ``2 rho A'``,

    rho_t + (rho u)_x = 0
    u_t + u u_x + enthalpy_x = D^{-1}{ (c_u u_x^2 + c_rho rho_x^2) / (2 rho A') } + g(t)

with ``D^{-1}`` the antiderivative anchored at x = 0 and ``g`` a given scalar
forcing (zero by default).  The coefficients ``(c_u, c_rho)`` and ``A'`` come
from :func:`barolab.euler._source`, their one home for both systems.  Exact
periodic solutions have a zero-mean source -- the source equals an exact
x-derivative of a periodic quantity -- so the discrete source is projected to
zero mean before integrating; without the projection the discretization error
would feed a secular, periodicity-breaking ramp into the velocity.

Replacing ``A`` by ``-A`` leaves the right-hand side bitwise unchanged:
``c_u``, ``c_rho`` and ``2 rho A'`` are each linear in ``(A', A'')``, so each
changes sign exactly and the quotient does not move.

As in :func:`barolab.euler.rhs`, :func:`ghs_rhs` applies the density rule once
per stage and differentiates ``u`` once for the advection and the source;
past that check every coefficient comes from the unchecked kernels.

Smooth solutions conserve the gradient energy ``integral( rho A' u_x^2 +
A' V'' rho_x^2 ) dx``, which :func:`barolab.euler.diagnostics` reports.

The module also carries the variational wave equation obtained from the
inverse regularizer family in mass-Lagrangian coordinates,
``v_tt = c(v)^2 v_xx + c(v) c'(v) v_x^2`` with ``c(v)^2 = d^2(v V(1/v))/dv^2``,
plus a minimal leapfrog driver for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eos import _check_density
from .errors import DomainError
from .euler import State, _drive, _gradients, _rk4, _source
from .grid import require_finite


@dataclass(frozen=True)
class GhsState(State):
    """Periodic density/velocity pair plus the scalar forcing ``g(t)``.

    ``forcing`` may be a number or any callable of ``t``.
    """

    forcing: object = 0.0

    def validate(self):
        if not self.grid.is_periodic:
            raise DomainError("the Hunter-Saxton system is integrated on periodic grids")
        return super().validate()

    def _energy(self, ux, rx, reg, eos):
        """The gradient energy ``integral( rho A' u_x^2 + A' V'' rho_x^2 )``; the density
        is checked by the caller."""
        da = reg._slopes(self.rho)[0]
        v2 = eos._curvature(self.rho)[0]
        return self.grid.integrate(self.rho * da * ux**2 + da * v2 * rx**2)

    def g(self, t):
        if callable(self.forcing):
            return float(self.forcing(t))
        return float(self.forcing)


def ghs_source(state, reg, eos):
    """The squared-gradient source of the velocity equation."""
    return _ghs_source(_check_density(state.rho), *_gradients(state), reg, eos)


def _ghs_source(rho, ux, rx, reg, eos):
    """The Euler source ``psi`` over ``2 rho A'`` for a checked density."""
    psi, da = _source(rho, ux, rx, reg, eos)
    return psi / (2.0 * rho * da)


def ghs_rhs(state, reg, eos):
    """Right-hand side ``(d rho/dt, d u/dt)`` with the mean-free antiderivative."""
    grid = state.grid
    rho, u = _check_density(state.rho), state.u
    ux = grid.ddx(u)
    source = _ghs_source(rho, ux, grid.ddx(rho), reg, eos)
    source = source - source.sum() / grid.n
    du = (-u * ux - grid.ddx(eos._enthalpy(rho))
          + grid.antiderivative(source) + state.g(state.t))
    return -grid.ddx(rho * u), du


def ghs_energy(state, reg, eos):
    """Gradient energy ``integral( rho A' u_x^2 + A' V'' rho_x^2 )``."""
    _check_density(state.rho)
    return GhsState._energy(state, *_gradients(state), reg, eos)


def ghs_step(state, dt, reg, eos):
    """One RK4 step with positivity/finiteness re-validation."""
    return _rk4(state, dt, ghs_rhs, reg, eos)


def ghs_run(initial, config, reg, eos):
    """Advance to ``t_end`` with blow-up detection on the gradient sup-norm."""
    return _drive(initial, config, reg, eos, lambda s, dt: ghs_step(s, dt, reg, eos))


# -- variational wave equation (mass-Lagrangian form, inverse family) --------

def lagrangian_speed(upsilon, eos):
    """``(c, c*c')`` for the wave equation in the specific volume ``upsilon``.

    ``c^2 = d^2(upsilon V(1/upsilon))/d upsilon^2 = rho^3 V''(rho)`` and
    ``c c' = -rho^4 (3 V'' + rho V''')/2`` with ``rho = 1/upsilon``.
    """
    upsilon = np.asarray(upsilon, dtype=float)
    if np.any(upsilon <= 0.0):
        raise DomainError("specific volume must be positive")
    rho = 1.0 / upsilon
    _, v2, v3 = eos.potential_derivatives(rho)
    c2 = rho**3 * v2
    if np.any(c2 <= 0.0):
        raise DomainError("loss of hyperbolicity: d^2(vV)/dv^2 <= 0 on the profile")
    ccp = -0.5 * rho**4 * (3.0 * v2 + rho * v3)
    return np.sqrt(c2), ccp


def vwe_rhs(upsilon, grid, eos):
    """Second time derivative ``c^2 v_xx + c c' v_x^2`` on a periodic grid."""
    upsilon = require_finite(upsilon, "specific volume")
    c, ccp = lagrangian_speed(upsilon, eos)
    padded = grid._pad(upsilon)
    vxx = (padded[2:] - 2.0 * upsilon + padded[:-2]) / grid.dx**2
    vx = grid.ddx(upsilon)
    return c**2 * vxx + ccp * vx**2


def vwe_leapfrog(upsilon0, velocity0, grid, eos, dt, steps):
    """Symmetric second-order driver for the wave equation; returns final ``upsilon``."""
    prev = np.asarray(upsilon0, dtype=float)
    cur = prev + dt * np.asarray(velocity0, dtype=float) + 0.5 * dt**2 * vwe_rhs(prev, grid, eos)
    for _ in range(steps - 1):
        prev, cur = cur, 2.0 * cur - prev + dt**2 * vwe_rhs(cur, grid, eos)
    return cur
