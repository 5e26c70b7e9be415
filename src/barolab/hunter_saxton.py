"""Periodic integrator for the generalized two-component Hunter-Saxton system.

This is the high-frequency companion of the regularized Euler system.  At
high frequency the Sturm-Liouville operator reduces to its leading symbol,
``L ~ -2 eps d/dx (kappa d/dx .)`` with ``kappa = rho A'``, so the smoothed
source ``-eps L^{-1} d/dx psi`` of the Euler velocity equation becomes
``D^{-1}(psi / 2 kappa)``: the source here is the Euler source
``psi = c_u u_x^2 + c_rho rho_x^2`` over ``2 rho A'``,

    rho_t + (rho u)_x = 0
    u_t + u u_x + enthalpy_x = D^{-1}{ (c_u u_x^2 + c_rho rho_x^2) / (2 rho A') }

with ``D^{-1}`` the antiderivative anchored at x = 0.  The coefficients
``(c_u, c_rho)`` and ``A'`` are computed in :func:`barolab.regularizer._composite`,
their one home for both systems, and reached through
:func:`barolab.euler._source`.  Exact periodic solutions have a zero-mean source --
the source equals an exact x-derivative of a periodic quantity -- so the
discrete source is projected to zero mean before integrating; without the
projection the discretization error would feed a secular,
periodicity-breaking ramp into the velocity.

Replacing ``A`` by ``-A`` leaves the right-hand side bitwise unchanged:
``c_u``, ``c_rho`` and ``2 rho A'`` are each linear in ``(A', A'')``, so each
changes sign exactly and the quotient does not move.

A :class:`GhsState` is checked when built (periodic grid, then the field rule
of ``State``), so :func:`ghs_rhs` takes every coefficient from the unchecked
kernels and differentiates ``u`` once for the advection and the source.

Smooth solutions conserve the gradient energy ``integral( rho A' u_x^2 +
A' V'' rho_x^2 ) dx``, which :func:`barolab.euler.diagnostics` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .euler import State, _drive, _gradients, _rk4, _source


@dataclass(frozen=True, eq=False)
class GhsState(State):
    """Periodic density/velocity pair of the Hunter-Saxton system, checked when built."""

    def __post_init__(self):
        if not self.grid.is_periodic:
            raise DomainError("the Hunter-Saxton system is integrated on periodic grids")
        super().__post_init__()

    def _energy(self, ux, rx, reg, eos):
        """The gradient energy ``integral( rho A' u_x^2 + A' V'' rho_x^2 )``."""
        da = reg._slopes(self.rho)[0]
        v2 = eos._curvature(self.rho)[0]
        return self.grid.integrate(self.rho * da * ux**2 + da * v2 * rx**2)


def ghs_source(state, reg, eos):
    """The squared-gradient source of the velocity equation."""
    return _ghs_source(state.rho, *_gradients(state), reg, eos)


def _ghs_source(rho, ux, rx, reg, eos):
    """The Euler source ``psi`` over ``2 rho A'`` for a checked density."""
    psi, da = _source(rho, ux, rx, reg, eos)
    return psi / (2.0 * rho * da)


def ghs_rhs(state, reg, eos):
    """Right-hand side ``(d rho/dt, d u/dt)`` with the mean-free antiderivative."""
    grid = state.grid
    rho, u = state.rho, state.u
    ux = grid.ddx(u)
    source = _ghs_source(rho, ux, grid.ddx(rho), reg, eos)
    source = source - source.sum() / grid.n
    du = -u * ux - grid.ddx(eos._enthalpy(rho)) + grid.antiderivative(source)
    return -grid.ddx(rho * u), du


def ghs_energy(state, reg, eos):
    """Gradient energy ``integral( rho A' u_x^2 + A' V'' rho_x^2 )``."""
    return GhsState._energy(state, *_gradients(state), reg, eos)


def ghs_step(state, dt, reg, eos):
    """One RK4 step; every stage state and the result are checked states."""
    return _rk4(state, dt, ghs_rhs, reg, eos)


def ghs_run(initial, config, reg, eos):
    """Advance to ``t_end`` with blow-up detection on the gradient sup-norm."""
    return _drive(initial, config, reg, eos, lambda s, dt: ghs_step(s, dt, reg, eos))

