"""Method-of-lines integrators for the regularized barotropic Euler system and for
its high-frequency companion, the generalized two-component Hunter-Saxton system.

The integrated form of the Euler system is the velocity equation with the smoothed
source,

    rho_t + (rho u)_x = 0
    u_t + u u_x + P_x/rho = -eps * L^{-1} d/dx { c_u u_x^2 + c_rho rho_x^2 }

with ``L`` the Sturm-Liouville operator and ``(c_u, c_rho)`` the composite
coefficients of :mod:`barolab.regularizer`.  Spatial derivatives are centred
second order, time stepping is classical RK4, and every integrator here steps
by the one CFL rule ``dt = cfl dx / max(|u| + c_s)`` (:func:`cfl_dt`): the
regularization is linearly non-dispersive, so every linear mode travels at
``c0``, and the smoothed source adds no stiffness.  The pressure gradient is
discretized as ``ddx(P)/rho`` -- in the continuum this equals the enthalpy
gradient, and on a periodic grid it makes the discrete momentum sum telescope
exactly instead of drifting at O(dx^2).

Smooth solutions conserve mass, total momentum and the energy

    integral( rho u^2/2 + eps rho A' u_x^2 + V + eps A' V'' rho_x^2 ) dx,

all of which (plus the gradient sup-norm used by the blow-up detector) are
reported by :func:`diagnostics`, the source of every series row of both
systems; each state class supplies the energy its system conserves.

A :class:`State` is checked when built: the density rule (finite and
positive), a finite velocity and fields of the grid's shape.  RK4 stage states
and ``dataclasses.replace`` results are built too, so no solver function
repeats the check, and a run-loop step of either system applies it four times.
Every coefficient comes from the unchecked kernels of the equation of state
and the regularizer; :func:`_source` is the one home of the source
coefficients of both systems.  :func:`rhs` derives the pressure, the source
coefficients and ``kappa = rho A'`` once per stage and assembles the operator
from that ``kappa`` through the private assembly that ``SLSystem(...)`` runs.

A stage allocates only its two outputs, ``drho`` and ``du``.  Every other
n-sized array of it (the gradients, the pressure, the coefficients, ``psi``,
``kappa``, the operator and its solve) is written, with ``out=`` or in place and
in the order of the plain formulas, into the stage workspace (:func:`_workspace`):
the operator's buffers and three rows of the stage's own, which every grid of the
same size shares, made on the first stage of that size.  No buffer escapes the
call, so ``drho`` and ``du`` are fresh arrays owned by the caller.  A stage, and
so ``step`` and ``run``, is the one code that shares buffers: ``Grid.ddx(out=)``
and a public ``SLSystem`` share none.  A stage is therefore not thread-safe;
barolab runs no stage on a thread: the worker processes of ``barolab sweep`` each
have their own workspace, and the pool's helper threads run no barolab code.

At high frequency the Sturm-Liouville operator reduces to its leading symbol,
``L ~ -2 eps d/dx (kappa d/dx .)`` with ``kappa = rho A'``, so the smoothed
source ``-eps L^{-1} d/dx psi`` of the Euler velocity equation becomes
``D^{-1}(psi / 2 kappa)``.  The Hunter-Saxton source is the Euler source
``psi = c_u u_x^2 + c_rho rho_x^2`` over ``2 rho A'``,

    rho_t + (rho u)_x = 0
    u_t + u u_x + enthalpy_x = D^{-1}{ (c_u u_x^2 + c_rho rho_x^2) / (2 rho A') }

with ``D^{-1}`` the antiderivative from 0 at the first node, which is x = 0 on a
periodic grid, integrated on periodic grids by the same RK4 step and run loop.
Exact periodic solutions have a zero-mean source -- the source equals an exact
x-derivative of a periodic quantity -- so the discrete source is projected to zero
mean before integrating; without the projection the discretization error would
feed a secular, periodicity-breaking ramp into the velocity.

Replacing ``A`` by ``-A`` leaves the Hunter-Saxton right-hand side bitwise
unchanged: ``c_u``, ``c_rho`` and ``2 rho A'`` are each linear in ``(A', A'')``,
so each changes sign exactly and the quotient does not move.  Smooth solutions
conserve the gradient energy ``integral( rho A' u_x^2 + A' V'' rho_x^2 ) dx``,
which :func:`diagnostics` reports for a :class:`GhsState`.

For the vanishing-regularization study a first-order local Lax-Friedrichs
(Rusanov) scheme on the conservative variables is included as the classical
entropy-solution reference; centred stencils are unstable at ``eps = 0`` near
shocks, so the monotone scheme is the meaningful baseline there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np

from .eos import _check_density
from .errors import DomainError, IntegrationError, NumericalBreakdownError, _require
from .grid import require_finite
from .regularizer import _composite
from .sturm_liouville import SLSystem, _buffers


@dataclass(frozen=True, eq=False)
class State:
    """Density and velocity fields at one instant; checked, as float arrays, when built."""

    t: float
    rho: np.ndarray
    u: np.ndarray
    grid: object

    def __post_init__(self):
        rho = _check_density(self.rho)
        u = require_finite(self.u, "velocity")
        if rho.shape != (self.grid.n,) or u.shape != (self.grid.n,):
            raise DomainError("field shapes do not match the grid")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "u", u)

    def validate(self):
        """``self``: the constructor has checked it.  Kept for the benchmark workloads' calls."""
        return self

    def _energy(self, ux, rx, reg, eos):
        """The energy this system conserves, given the state's gradients ``ux``, ``rx``."""
        grid = self.grid
        da = reg._slopes(self.rho)[0]
        v2 = eos._curvature(self.rho)[0]
        eps = reg.epsilon
        e = (0.5 * self.rho * self.u**2 + eps * self.rho * da * ux**2
             + eos._potential(self.rho) + eps * da * v2 * rx**2)
        e_far = grid._far(lambda r, v: 0.5 * r * v**2 + eos._potential(np.asarray(r)))
        return grid.integrate(e, far=e_far)


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.5
    blowup_factor: float = 1e3
    blowup_threshold: float | None = None   # absolute override of the factor rule
    snapshot_every: int = 0                 # steps between snapshots; 0 = ends only
    on_blowup: str = "report"               # "fail": barolab run exits 3 on a blow-up

    def __post_init__(self):
        _require(
            (0.0 < self.t_end < math.inf, "t_end must be > 0 and finite"),
            (0.0 < self.cfl <= 1.0, "cfl must lie in (0, 1]"),
            (self.blowup_factor > 0.0, "blowup_factor must be > 0"),
            (self.blowup_threshold is None or self.blowup_threshold > 0.0,
             "blowup_threshold must be > 0 when given"),
            (self.snapshot_every >= 0, "snapshot_every must be >= 0"),
            (self.on_blowup in ("report", "fail"), "on_blowup must be report or fail"),
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
    series: list = field(default_factory=list)     # rows of DIAGNOSTICS_HEADER's columns
    snapshots: list = field(default_factory=list)  # states at the configured cadence
    blowup: bool = False
    blowup_time: float | None = None
    steps: int = 0


def _gradients(state):
    """``(u_x, rho_x)``, each continued past the edges by its far-field values."""
    grid = state.grid
    return grid.ddx(state.u, far=grid.u_far), grid.ddx(state.rho, far=grid.rho_far)


def reg_source(state, reg, eos):
    """The squared-gradient source ``psi = c_u u_x^2 + c_rho rho_x^2``."""
    return _source(state.rho, *_gradients(state), reg, eos)[0]


def _source(rho, ux, rx, reg, eos, *work):
    """``(psi, A')`` of a checked density with gradients ``ux``, ``rx``; formed in the
    five buffers ``work`` of :func:`~barolab.regularizer._composite` when given, ``psi``
    in the first and ``A'`` in the second."""
    c_u, c_rho, da = _composite(reg, eos, rho, *work)
    square = work[4] if work else None
    c_u *= np.square(ux, out=square)
    c_rho *= np.square(rx, out=square)
    c_u += c_rho
    return c_u, da


@functools.lru_cache(maxsize=2)
def _workspace(n):
    """The stage workspace shared by every grid of ``n`` cells, made on its first stage:
    the operator's ``(faces, cells)`` of :func:`~barolab.sturm_liouville._buffers`
    and three rows of n cells that are the stage's own.  Only the two most recent sizes
    keep theirs.
    """
    return _buffers(n), np.empty((3, n))


def rhs(state, reg, eos):
    """Semi-discrete right-hand side ``(d rho/dt, d u/dt)``, two fresh arrays.

    Every other n-sized array of the stage lives in the workspace of the grid's size.
    The stage's own rows hold ``u_x`` and then the solve's result (row 0), ``rho u``,
    ``P`` and then ``psi`` (row 1), and ``A'``, which becomes ``kappa`` (row 2) and is
    read there, in place, by the operator.  Until it assembles the operator, the stage
    uses the operator's cells as scratch: cells 0-2 for the other slots of
    :func:`~barolab.regularizer._composite`, cell 3 for ``dP/dx`` and then ``rho_x``.
    """
    grid = state.grid
    rho, u = state.rho, state.u
    (faces, cells), own = _workspace(grid.n)
    ux = grid.ddx(u, far=grid.u_far, out=own[0])
    drho = grid.ddx(np.multiply(rho, u, out=own[1]), far=grid._far(mul),
                    out=np.empty(grid.n))
    np.negative(drho, out=drho)
    # the far states reach the kernel as the 0-d arrays the checked form makes of them
    p_far = grid._far(lambda r, _: eos._pressure(np.asarray(r)))
    # not in place: numpy would copy the overlapping interior
    dp = grid.ddx(eos._pressure(rho, own[1]), far=p_far, out=cells[3])
    dp /= rho
    du = np.negative(u)
    du *= ux
    du -= dp
    if reg.epsilon > 0.0:
        rx = grid.ddx(rho, far=grid.rho_far, out=cells[3])
        psi, da = _source(rho, ux, rx, reg, eos, own[1], own[2], *cells[:3])
        kappa = np.multiply(rho, da, out=da)
        system = SLSystem._assembled(grid, rho, kappa, reg.epsilon, (faces, cells))
        smoothed = system.solve_dx(psi, out=own[0])
        smoothed *= reg.epsilon
        du -= smoothed
    return drho, du


def cfl_dt(state, eos, cfl):
    """The CFL step ``cfl * dx / max(|u| + c_s)``, the step rule of every integrator.

    The characteristic speed is the one bound: no linear mode is faster than ``c0``
    and the smoothed source is not stiff, so no other limit applies.  A state in
    which nothing moves (``u = 0`` and a sound speed that underflows to 0) has no
    bound at all; it takes ``dx``, a finite step that the run loops clip at ``t_end``.
    """
    speed = np.max(np.abs(state.u) + eos._sound_speed(state.rho))
    if speed == 0.0:
        return state.grid.dx
    return cfl * state.grid.dx / speed


def _rk4(state, dt, f, reg, eos):
    """One classical RK4 step of ``f(state, reg, eos)``.

    Stage states carry the stage times ``t``, ``t + dt/2`` and ``t + dt``.  A step that
    leaves ``t`` unchanged, a stage state or result that fails its check, or a failed
    solve, becomes an :class:`IntegrationError`.
    """
    def along(t, h, k):
        return replace(state, t=t, rho=state.rho + h * k[0], u=state.u + h * k[1])

    try:
        _require((state.t + dt != state.t, f"a step of {dt:.3e} leaves t unchanged"))
        k1 = f(state, reg, eos)
        k2 = f(along(state.t + 0.5 * dt, 0.5 * dt, k1), reg, eos)
        k3 = f(along(state.t + 0.5 * dt, 0.5 * dt, k2), reg, eos)
        k4 = f(along(state.t + dt, dt, k3), reg, eos)
        return along(state.t + dt, dt / 6.0,
                     [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)])
    except (DomainError, NumericalBreakdownError) as exc:
        raise IntegrationError(str(exc), state.t) from exc


def step(state, dt, reg, eos, _rhs=None):
    """One classical RK4 step; every stage state and the result are checked states, and
    a ``dt`` too small to move ``t`` raises :class:`IntegrationError`."""
    return _rk4(state, dt, _rhs or rhs, reg, eos)


def momentum_field(state, reg):
    """Nonlocal momentum density ``m = rho u - 2 eps (rho A' u_x)_x``.

    This is exactly the assembled operator applied to the velocity.
    """
    return SLSystem(state.grid, state.rho, reg).apply(state.u, far=state.grid.u_far)


def diagnostics(state, reg, eos):
    """The conserved energy of the state's system, mass, total momentum and gradient sup-norm."""
    grid = state.grid
    ux, rx = _gradients(state)
    return Diagnostics(
        energy=state._energy(ux, rx, reg, eos),
        mass=grid.integrate(state.rho, far=grid.rho_far),
        momentum=grid.integrate(state.rho * state.u, far=grid._far(mul)),
        sup_wx=max(np.max(np.abs(rx)), np.max(np.abs(ux))),  # the blow-up detector's norm
    )


def _before_end(t, t_end, length):
    """Whether a run of ``length`` at time ``t`` has not yet reached its end ``t_end``,
    up to a roundoff of ``1e-14 * length``, so that a run of any length from any start
    takes its steps.  The step that ends the run is clipped to land on ``t_end``; a
    step too small to move ``t`` (an underflowed CFL step, or a start so late that the
    step is below half an ulp of ``t``) raises :class:`IntegrationError` rather than
    loop forever."""
    return t < t_end - 1e-14 * length


DIAGNOSTICS_HEADER = "t,dt,mass,momentum,energy,sup_Wx"  # the columns of a series row


def _drive(initial, config, reg, eos, advance):
    """The run loop of both systems: ``advance(state, dt)`` takes one step, and every
    series row, in the columns of :data:`DIAGNOSTICS_HEADER`, comes from
    :func:`diagnostics`.  An :class:`IntegrationError` of a step leaves with the rows
    computed so far as its ``series``."""
    def row(state, dt):
        d = diagnostics(state, reg, eos)
        return (state.t, dt, d.mass, d.momentum, d.energy, d.sup_wx)

    state = initial
    result = RunResult(final=state)
    result.series.append(row(state, 0.0))
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = config.blowup_factor * (result.series[0][-1] + 1.0)
    result.snapshots.append(state)
    t_end = initial.t + config.t_end
    boundary_warned = False
    while _before_end(state.t, t_end, config.t_end):
        dt = min(cfl_dt(state, eos, config.cfl), t_end - state.t)
        try:
            state = advance(state, dt)
        except IntegrationError as exc:
            exc.series = result.series
            raise
        result.steps += 1
        r = row(state, dt)
        result.series.append(r)
        if config.snapshot_every and result.steps % config.snapshot_every == 0:
            result.snapshots.append(state)
        if r[-1] > threshold:
            result.blowup = True
            result.blowup_time = state.t
            break
        if not boundary_warned:
            boundary_warned = state.grid.check_boundary(
                state.rho, state.grid.rho_far, "density")
    if result.snapshots[-1].t != state.t:
        result.snapshots.append(state)
    result.final = state
    return result


def run(initial, config, reg, eos, _rhs=None):
    """Advance to ``t_end`` or until the gradient sup-norm crosses the blow-up bar.

    Blow-up is a reported outcome (``result.blowup``), not an error; invalid
    states raise :class:`IntegrationError`.  ``dt`` is recomputed every step.
    """
    return _drive(initial, config, reg, eos,
                  lambda state, dt: step(state, dt, reg, eos, _rhs=_rhs))


# -- generalized two-component Hunter-Saxton system -------------------------

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
    """One RK4 step; every stage state and the result are checked states, and a ``dt``
    too small to move ``t`` raises :class:`IntegrationError`."""
    return _rk4(state, dt, ghs_rhs, reg, eos)


def ghs_run(initial, config, reg, eos):
    """Advance to ``t_end`` with blow-up detection on the gradient sup-norm."""
    return _drive(initial, config, reg, eos, lambda s, dt: ghs_step(s, dt, reg, eos))


# -- first-order classical reference ----------------------------------------

def rusanov_rhs(state, eos):
    """Local Lax-Friedrichs flux divergence for the classical Euler system.

    Works on the conservative pair ``(rho, q = rho u)``; periodic grids only.
    """
    rho, u = state.rho, state.u
    q = rho * u
    f_q = q * u + eos._pressure(rho)
    a = np.abs(u) + eos._sound_speed(rho)
    # face j lies between cells j and j + 1, wrapped
    a_face = np.maximum(a, np.roll(a, -1))
    flux_rho = 0.5 * (q + np.roll(q, -1)) - 0.5 * a_face * (np.roll(rho, -1) - rho)
    flux_q = 0.5 * (f_q + np.roll(f_q, -1)) - 0.5 * a_face * (np.roll(q, -1) - q)
    drho = -(flux_rho - np.roll(flux_rho, 1)) / state.grid.dx
    dq = -(flux_q - np.roll(flux_q, 1)) / state.grid.dx
    return drho, dq


def rusanov_run(initial, t_end_rel, eos, cfl=0.4):
    """Forward-Euler Rusanov run of length ``t_end_rel``; returns the final state
    (``q = rho u`` is carried).  It ends as the RK4 runs do (:func:`_before_end`)."""
    grid = initial.grid
    if not grid.is_periodic:
        raise DomainError("the classical reference runs on periodic grids")
    t_end = initial.t + t_end_rel
    rho, q = initial.rho, initial.rho * initial.u
    cur = State(initial.t, rho, q / rho, grid)
    while _before_end(cur.t, t_end, t_end_rel):
        dt = min(cfl_dt(cur, eos, cfl), t_end - cur.t)
        drho, dq = rusanov_rhs(cur, eos)
        rho = rho + dt * drho
        q = q + dt * dq
        try:
            _require((cur.t + dt != cur.t, f"a step of {dt:.3e} leaves t unchanged"))
            cur = State(cur.t + dt, rho, q / rho, grid)
        except DomainError as exc:
            raise IntegrationError(str(exc), cur.t + dt) from exc
    return cur
