"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Beside criterion 1 stands a pin on its data: where its energy drift comes from.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines inline.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

import barolab as bl
from barolab import (
    EquationOfState,
    GhsState,
    Grid,
    Regularizer,
    SolverConfig,
    State,
    SteadyFluxes,
)
from conftest import NegatedRegularizer

CRITERIA = []


def report(num, name, ok, detail=""):
    line = f"acceptance {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    CRITERIA.append(line)
    assert ok, line


def sine_bump(grid, a=0.05, bump=0.03, u_mean=1.0):
    rho = 1.0 + a * np.sin(2 * np.pi * grid.x) \
        + bump * np.exp(-(((grid.x - 0.5) / 0.1) ** 2))
    u = u_mean + a * np.cos(2 * np.pi * grid.x)
    return rho, u


# criterion 1's two laws, each with its regularizer
CONSERVATION_CASES = (
    ("gamma2+cubic", EquationOfState.shallow_water(1.0), Regularizer.cubic(0.1)),
    ("isothermal+inverse", EquationOfState.isothermal(1.0, 1.0),
     Regularizer.inverse(0.1, 1.0, 1.0)),
)


@pytest.fixture(scope="module")
def conservation_runs():
    """The two criterion-1 runs, shared with criterion 2."""
    out = {}
    for label, eos, reg in CONSERVATION_CASES:
        grid = Grid.periodic(1.0, 512)
        rho0, u0 = sine_bump(grid)
        started = time.perf_counter()
        res = bl.run(State(0.0, rho0, u0, grid), SolverConfig(t_end=1.0, cfl=0.2), reg, eos)
        out[label] = (np.array(res.series), time.perf_counter() - started)
    return out


def rel_drift(series, col):
    return abs(series[-1, col] - series[0, col]) / max(abs(series[0, col]), 1e-12)


def test_criterion_1_energy_conservation(conservation_runs):
    drifts, times = {}, {}
    for label, (series, wall) in conservation_runs.items():
        drifts[label] = rel_drift(series, 4)
        times[label] = wall
    ok = all(d <= 1e-6 for d in drifts.values()) and all(t <= 30.0 for t in times.values())
    report(1, "energy conservation", ok,
           " ".join(f"{k}: drift={v:.2e} ({times[k]:.1f}s)" for k, v in drifts.items()))


@pytest.mark.parametrize("label, eos, reg", CONSERVATION_CASES,
                         ids=[case[0] for case in CONSERVATION_CASES])
def test_energy_drift_is_spatial(label, eos, reg):
    # on criterion 1's data the drift falls as dx^2 and does not move with dt, so it
    # comes from the spatial scheme; a change to that scheme or to the energy shows
    # here rather than inside criterion 1's margin
    def drift(n, cfl):
        grid = Grid.periodic(1.0, n)
        res = bl.run(State(0.0, *sine_bump(grid), grid), SolverConfig(t_end=1.0, cfl=cfl),
                     reg, eos)
        return rel_drift(np.array(res.series), 4)

    coarse = drift(128, 0.5)
    ratio = coarse / drift(256, 0.5)
    dt_shift = abs(drift(128, 0.25) / coarse - 1.0)
    assert abs(ratio / 4.0 - 1.0) <= 0.15, (label, ratio)
    assert dt_shift < 0.01, (label, dt_shift)


def test_criterion_2_mass_momentum_conservation(conservation_runs):
    mass = {k: rel_drift(s, 2) for k, (s, _) in conservation_runs.items()}
    mom = {k: rel_drift(s, 3) for k, (s, _) in conservation_runs.items()}
    ok = all(m <= 1e-12 for m in mass.values()) and all(p <= 1e-8 for p in mom.values())
    report(2, "mass and momentum conservation", ok,
           f"mass<= {max(mass.values()):.1e}, momentum<= {max(mom.values()):.1e}")


def test_criterion_3_dispersionless():
    eos = EquationOfState.shallow_water(1.0)
    c0 = bl.phase_speed(eos)
    started = time.perf_counter()
    speeds = {}
    for eps in (0.0, 0.1, 1.0):
        reg = Regularizer.cubic(eps)
        for k in (1, 2, 4, 8):
            speeds[(eps, k)] = bl.measured_phase_speed(eos, reg, k, 1e-6)
    wall = time.perf_counter() - started
    worst_theory = max(abs(c - c0) / c0 for c in speeds.values())
    worst_spread = max(
        abs(speeds[(1.0, k)] - speeds[(0.0, k)]) / c0 +
        abs(speeds[(0.1, k)] - speeds[(0.0, k)]) / c0
        for k in (1, 2, 4, 8)
    )
    ok = worst_theory <= 0.01 and worst_spread <= 0.01 and wall <= 60.0
    report(3, "dispersionless propagation", ok,
           f"max |c-c0|/c0={worst_theory:.2e}, eps spread={worst_spread:.2e}, {wall:.1f}s")


def test_criterion_4_operator_correctness():
    rng = np.random.default_rng(101)
    reg = Regularizer.cubic(0.2)
    grid = Grid.periodic(1.0, 192)
    worst_res, max_ok = 0.0, True
    for _ in range(100):
        modes = rng.integers(2, 10)
        phases = rng.uniform(0, 2 * np.pi, modes)
        amps = rng.uniform(-1, 1, modes) / np.arange(1, modes + 1)
        rho = 1.2 + 0.8 * sum(a * np.sin(2 * np.pi * (m + 1) * grid.x + p)
                              for m, (a, p) in enumerate(zip(amps, phases))) / np.sum(np.abs(amps))
        rho = np.maximum(rho, 0.15)
        sys = bl.SLSystem(grid, rho, reg)
        f = rng.standard_normal(grid.n)
        u = sys.solve(f)
        worst_res = max(worst_res, np.max(np.abs(sys.apply(u) - f)) / np.max(np.abs(f)))
        max_ok &= np.max(np.abs(u)) <= np.max(np.abs(f)) / np.min(rho) * (1 + 1e-12)
    errs = []
    for n in (64, 128, 256, 512):
        g = Grid.periodic(2 * np.pi, n)
        sysn = bl.SLSystem(g, np.ones(n), Regularizer.power(0.5, 1.0))
        errs.append(np.max(np.abs(sysn.solve(np.cos(g.x)) - 0.5 * np.cos(g.x))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    order_ok = np.all(np.abs(orders - 2.0) <= 0.2)
    ok = worst_res <= 1e-10 and max_ok and order_ok
    report(4, "operator correctness", ok,
           f"residual<= {worst_res:.1e}, max principle {max_ok}, orders {np.round(orders, 2)}")


def test_criterion_5_singularity_exponent():
    eos = EquationOfState.shallow_water(1.0)
    reg = Regularizer.cubic(0.1)
    fluxes = SteadyFluxes(1.0, 1.25, 0.5)  # sonic density 1, N(1) = -1/2
    profile = bl.integrate_steady_profile(fluxes, eos, reg, rho_start=1.3, direction=-1)
    x, rho, x0, rho_s = bl.cusp_profile(profile, fluxes, eos, reg, n=4097)
    fit = bl.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s)
    predicted = bl.cusp_amplitude_prediction(fluxes, eos, reg, rho_s)
    amp_err = max(abs(fit.rho_amp_left - predicted),
                  abs(fit.rho_amp_right - predicted)) / predicted
    ok = (abs(fit.alpha_left - 2 / 3) <= 0.05 and abs(fit.alpha_right - 2 / 3) <= 0.05
          and fit.r2_left >= 0.99 and fit.r2_right >= 0.99 and amp_err <= 0.05)
    report(5, "two-thirds singularity", ok,
           f"alpha={fit.alpha:.4f}, r2>={min(fit.r2_left, fit.r2_right):.4f}, "
           f"amplitude rel err={amp_err:.2e}")


def test_criterion_6_ghs_energy_and_sign_invariance():
    eos = EquationOfState.shallow_water(1.0)
    reg = Regularizer.cubic(0.1)
    grid = Grid.periodic(1.0, 512)
    rho0 = 1.0 + 0.004 * np.sin(2 * np.pi * grid.x) \
        + 0.002 * np.exp(-(((grid.x - 0.5) / 0.15) ** 2))
    u0 = 0.008 * np.cos(2 * np.pi * grid.x)
    res = bl.ghs_run(GhsState(0.0, rho0, u0, grid), SolverConfig(t_end=0.5, cfl=0.2), reg, eos)
    series = np.array(res.series)
    drift = rel_drift(series, 4)

    st = GhsState(0.0, rho0, u0, grid)
    dr1, du1 = bl.ghs_rhs(st, reg, eos)
    dr2, du2 = bl.ghs_rhs(st, NegatedRegularizer(reg), eos)
    bitwise = np.array_equal(dr1, dr2) and np.array_equal(du1, du2)
    ok = drift <= 1e-6 and bitwise
    report(6, "gHS energy conservation", ok, f"drift={drift:.2e}, sign-flip bitwise={bitwise}")


def test_criterion_7_special_regularizer_consistency():
    eos = EquationOfState.shallow_water(1.0)
    reg = Regularizer.inverse(0.05, 1.0, 1.0)
    n = 4096
    grid = Grid.line(-20.0, 20.0, n, rho_far=(1.0, 1.0))
    rho = 1.0 + 0.4 * np.exp(-grid.x**2)
    _, c_rho = bl.composite_coefficients(reg, eos, rho)
    psi = c_rho * grid.ddx(rho, far=(1.0, 1.0)) ** 2
    via_operator = bl.SLSystem(grid, rho, reg).smooth(psi)
    xi = grid.antiderivative(rho)
    dxi = (xi[-1] - xi[0]) / (n - 1)
    xi_uniform = xi[0] + dxi * np.arange(n)
    via_kernel = np.interp(
        xi, xi_uniform,
        bl.inverse_family_flux(np.interp(xi_uniform, xi, rho), dxi, eos, reg))
    rel = np.max(np.abs(via_operator - via_kernel)) / np.max(np.abs(via_operator))
    ok = rel <= 1e-2
    report(7, "convolution kernel consistency", ok, f"rel Linf={rel:.2e} at n={n}")


def test_criterion_8_blowup_detection():
    eos = EquationOfState.shallow_water(1.0)
    n = 1024
    grid = Grid.periodic(1.0, n)
    u0 = -0.5 * (np.tanh((grid.x - 1 / 3) / 0.04)
                 - np.tanh((grid.x - 2 / 3) / 0.04) - 1.0)
    st = State(0.0, np.ones(n), u0, grid)
    threshold = 12 * np.max(np.abs(grid.ddx(u0)))
    steep = bl.run(st, SolverConfig(t_end=1.0, cfl=0.3, blowup_threshold=threshold),
                   Regularizer.cubic(1e-4), eos)
    gentle = bl.run(st, SolverConfig(t_end=0.05, cfl=0.3, blowup_threshold=threshold),
                    Regularizer.cubic(1.0), eos)
    ok = steep.blowup and steep.blowup_time is not None and not gentle.blowup
    report(8, "blow-up criterion", ok,
           f"small eps fired at t={steep.blowup_time}, large eps completed={not gentle.blowup}")


def test_criterion_9_epsilon_to_zero():
    eos = EquationOfState.shallow_water(1.0)
    grid = Grid.periodic(1.0, 512)
    st = State(0.0, np.ones(512), -0.3 * np.sin(2 * np.pi * grid.x), grid)
    t_end = 0.2  # pre-shock for this data
    ref = bl.rusanov_run(st, t_end, eos)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        res = bl.run(st, SolverConfig(t_end=t_end, cfl=0.3), Regularizer.cubic(eps), eos)
        dists.append(float(grid.integrate(np.abs(res.final.rho - ref.rho)
                                          + np.abs(res.final.u - ref.u))))
    ok = dists[0] > dists[1] > dists[2]
    report(9, "epsilon-to-zero distances", ok,
           "L1 = " + ", ".join(f"{d:.3e}" for d in dists))


def test_criterion_10_self_convergence():
    eos = EquationOfState.shallow_water(1.0)
    reg = Regularizer.cubic(0.1)

    def spatial(runner, make_state):
        finals = {}
        for n in (64, 128, 256, 1024):
            g = Grid.periodic(1.0, n)
            finals[n] = runner(make_state(g), SolverConfig(t_end=0.1, cfl=0.2),
                               reg, eos).final
        errs = [np.max(np.abs(finals[n].rho - finals[1024].rho[:: 1024 // n]))
                for n in (64, 128, 256)]
        return float(np.mean(np.log2(np.array(errs[:-1]) / errs[1:])))

    def temporal(stepper, make_state):
        g = Grid.periodic(1.0, 128)
        st = make_state(g)
        T = 0.04

        def advance(steps):
            cur = st
            for _ in range(steps):
                cur = stepper(cur, T / steps, reg, eos)
            return cur

        ref = advance(64)
        errs = [np.max(np.abs(advance(s).rho - ref.rho)) for s in (8, 16)]
        return float(np.log2(errs[0] / errs[1]))

    def rbe_state(g):
        rho0, u0 = sine_bump(g, a=0.1, bump=0.0, u_mean=0.5)
        return State(0.0, rho0, u0, g)

    def ghs_state(g):
        rho0, u0 = sine_bump(g, a=0.05, bump=0.0, u_mean=0.0)
        return GhsState(0.0, rho0, u0 - np.mean(u0), g)

    orders = {
        "rbe spatial": spatial(bl.run, rbe_state),
        "ghs spatial": spatial(bl.ghs_run, ghs_state),
        "rbe temporal": temporal(bl.step, rbe_state),
        "ghs temporal": temporal(bl.ghs_step, ghs_state),
    }
    ok = (abs(orders["rbe spatial"] - 2) <= 0.3 and abs(orders["ghs spatial"] - 2) <= 0.3
          and abs(orders["rbe temporal"] - 4) <= 0.5 and abs(orders["ghs temporal"] - 4) <= 0.5)
    report(10, "self-convergence orders", ok,
           " ".join(f"{k}={v:.2f}" for k, v in orders.items()))
