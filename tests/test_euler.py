import numpy as np
import pytest
from scipy.integrate import quad

import barolab as bl
from barolab import (
    DomainError,
    EquationOfState,
    Grid,
    IntegrationError,
    Regularizer,
    SolverConfig,
    State,
    VacuumError,
)
from conftest import observed_order


def sine_bump_state(grid, a=0.1, u_mean=0.5):
    rho = 1.0 + a * np.sin(2 * np.pi * grid.x) \
        + 0.6 * a * np.exp(-(((grid.x - 0.5) / 0.1) ** 2))
    u = u_mean + a * np.cos(2 * np.pi * grid.x)
    return State(0.0, rho, u, grid)


class TestRegSource:
    def test_constant_state_zero(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = State(0.0, np.full(64, 1.3), np.full(64, 0.7), g)
        assert np.all(bl.reg_source(st, cubic_reg, sw_eos) == 0.0)

    def test_sine_velocity_on_flat_density(self, sw_eos, cubic_reg):
        # rho = 1, u = sin x: source is c_u(1) u_x^2 = 2 cos^2 x
        g = Grid.periodic(2 * np.pi, 512)
        st = State(0.0, np.ones(512), np.sin(g.x), g)
        psi = bl.reg_source(st, cubic_reg, sw_eos)
        assert np.max(np.abs(psi - 2.0 * np.cos(g.x) ** 2)) < 20 * g.dx**2

    def test_source_can_be_negative(self, sw_eos, cubic_reg):
        # c_rho < 0 for this pairing, so a pure density gradient gives psi < 0
        g = Grid.periodic(1.0, 128)
        st = State(0.0, 1.0 + 0.2 * np.sin(2 * np.pi * g.x), np.zeros(128), g)
        assert np.min(bl.reg_source(st, cubic_reg, sw_eos)) < 0.0


class TestRhs:
    def test_uniform_state_is_stationary(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = State(0.0, np.full(64, 2.0), np.full(64, -0.4), g)
        drho, du = bl.rhs(st, cubic_reg, sw_eos)
        assert np.max(np.abs(drho)) == 0.0
        assert np.max(np.abs(du)) == 0.0

    def test_matches_linearized_dynamics_at_small_amplitude(self, sw_eos, cubic_reg):
        # a travelling eigenmode of the linearized system advances rigidly at
        # speed sqrt(rho_bar V''); compare one period of the nonlinear solver
        # against that analytic evolution, relative to the wave amplitude
        a, k, n = 1e-6, 2, 256
        g = Grid.periodic(2 * np.pi, n)
        c0 = bl.phase_speed(sw_eos)
        st = State(0.0, 1.0 + a * np.cos(k * g.x), (c0 / 1.0) * a * np.cos(k * g.x), g)
        period = 2 * np.pi / (k * c0)
        res = bl.run(st, SolverConfig(t_end=period, cfl=0.25), cubic_reg, sw_eos)
        exact = 1.0 + a * np.cos(k * (g.x - c0 * res.final.t))
        assert np.max(np.abs(res.final.rho - exact)) <= 0.01 * a

    def test_eps_zero_matches_classical_reference_bitwise(self, sw_eos):
        g = Grid.periodic(1.0, 128)
        st = sine_bump_state(g)

        def classical_rhs(state, reg, eos):
            drho = -g.ddx(state.rho * state.u)
            du = -state.u * g.ddx(state.u) - g.ddx(eos.pressure(state.rho)) / state.rho
            return drho, du

        for dt in (1e-3, 3.7e-4):
            a = bl.step(st, dt, Regularizer.cubic(0.0), sw_eos)
            b = bl.step(st, dt, Regularizer.cubic(0.0), sw_eos, _rhs=classical_rhs)
            assert np.array_equal(a.rho, b.rho) and np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("topology", ["periodic", "line"])
    def test_rhs_and_step_at_65536_cells(self, sw_eos, cubic_reg, topology):
        # |L| grows like 1/dx^2, so a solve residual bounded by |f| alone fails here
        n = 65536
        if topology == "periodic":
            st = sine_bump_state(Grid.periodic(1.0, n))
        else:
            g = Grid.line(-10.0, 10.0, n, rho_far=(1.0, 1.0), u_far=(0.5, 0.5))
            st = State(0.0, 1.0 + 0.3 * np.exp(-g.x**2), np.full(n, 0.5), g)
        drho, du = bl.rhs(st, cubic_reg, sw_eos)
        assert np.all(np.isfinite(drho)) and np.all(np.isfinite(du))
        if topology == "periodic":
            assert abs(drho.sum()) <= 1e-12 * np.abs(drho).sum()
        dt = bl.cfl_dt(st, sw_eos, 0.2)
        out = bl.step(st, dt, cubic_reg, sw_eos)
        assert out.t == dt
        mass = bl.diagnostics(st, cubic_reg, sw_eos).mass
        assert abs(bl.diagnostics(out, cubic_reg, sw_eos).mass - mass) <= 1e-12 * mass


class TestStep:
    def test_constant_state_stays_exactly_constant(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 32)
        st = State(0.0, np.full(32, 1.5), np.full(32, 0.25), g)
        out = bl.step(st, 1e-2, cubic_reg, sw_eos)
        assert np.array_equal(out.rho, st.rho) and np.array_equal(out.u, st.u)

    def test_fourth_order_in_time(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 128)
        st = sine_bump_state(g)
        T = 0.04

        def advance(steps):
            cur, dt = st, T / steps
            for _ in range(steps):
                cur = bl.step(cur, dt, cubic_reg, sw_eos)
            return cur

        ref = advance(64)
        errs = [np.max(np.abs(advance(s).rho - ref.rho)) for s in (8, 16)]
        assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.5)

    def test_time_reversal(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 128)
        st = sine_bump_state(g)
        dt = 1e-3
        back = bl.step(bl.step(st, dt, cubic_reg, sw_eos), -dt, cubic_reg, sw_eos)
        assert np.max(np.abs(back.rho - st.rho)) < 1e3 * dt**5
        assert np.max(np.abs(back.u - st.u)) < 1e3 * dt**5
        # halving dt pushes the defect to the roundoff floor
        back2 = bl.step(bl.step(st, dt / 4, cubic_reg, sw_eos), -dt / 4, cubic_reg, sw_eos)
        assert np.max(np.abs(back2.rho - st.rho)) < 1e-13

    def test_invalid_state_raises_with_time(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = State(0.7, 1.0 + 0.9 * np.sin(2 * np.pi * g.x), 10 * np.sin(2 * np.pi * g.x), g)
        with pytest.raises(IntegrationError) as err:
            bl.step(st, 1.0, cubic_reg, sw_eos)
        assert err.value.t == 0.7


class TestCflDt:
    def test_rest_state_example(self, sw_eos):
        g = Grid.periodic(1.28, 128)  # dx = 0.01
        st = State(0.0, np.ones(128), np.zeros(128), g)
        assert bl.cfl_dt(st, sw_eos, 0.5) == pytest.approx(0.005, rel=1e-13)

    def test_velocity_scaling(self):
        # with a negligible sound speed, doubling max |u| halves dt
        eos = EquationOfState.isentropic(2.0, 1.0, 1e-14)
        g = Grid.periodic(1.0, 64)
        st1 = State(0.0, np.ones(64), np.full(64, 1.0), g)
        st2 = State(0.0, np.ones(64), np.full(64, 2.0), g)
        ratio = bl.cfl_dt(st2, eos, 0.5) / bl.cfl_dt(st1, eos, 0.5)
        assert ratio == pytest.approx(0.5, rel=1e-6)

    def test_isothermal_near_vacuum_keeps_dt_bounded(self, iso_eos):
        g = Grid.periodic(1.0, 64)
        st = State(0.0, np.full(64, 1e-6), np.zeros(64), g)
        # constant sound speed: dt does not collapse as rho -> 0
        assert bl.cfl_dt(st, iso_eos, 0.5) == pytest.approx(0.5 * g.dx / 1.0, rel=1e-12)

    def test_capped_at_dx(self, sw_eos):
        g = Grid.periodic(1.0, 64)
        st = State(0.0, np.full(64, 1e-8), np.zeros(64), g)
        assert bl.cfl_dt(st, sw_eos, 1.0) == g.dx


class TestDiagnostics:
    def test_rest_state(self, sw_eos, cubic_reg):
        g = Grid.periodic(2.0, 64)
        st = State(0.0, np.ones(64), np.zeros(64), g)
        d = bl.diagnostics(st, cubic_reg, sw_eos)
        assert d.energy == 0.0
        assert np.all(bl.momentum_field(st, cubic_reg) == 0.0)

    def test_uniform_motion(self, sw_eos, cubic_reg):
        g = Grid.periodic(3.0, 96)
        rho_bar, u_bar = 2.0, 0.7
        st = State(0.0, np.full(96, rho_bar), np.full(96, u_bar), g)
        d = bl.diagnostics(st, cubic_reg, sw_eos)
        want_v = float(sw_eos.potential(rho_bar))
        assert d.energy == pytest.approx((0.5 * rho_bar * u_bar**2 + want_v) * 3.0, rel=1e-13)
        assert d.mass == pytest.approx(rho_bar * 3.0, rel=1e-14)
        assert np.allclose(bl.momentum_field(st, cubic_reg), rho_bar * u_bar, rtol=1e-13)

    def test_energy_matches_adaptive_quadrature(self, sw_eos):
        # gentle analytic fields; the oracle integrates the continuum integrand
        reg = Regularizer.cubic(0.2)
        n = 8192
        g = Grid.periodic(1.0, n)

        def rho_f(x):
            return 1.0 + 0.01 * np.sin(2 * np.pi * x)

        def rho_x(x):
            return 0.01 * 2 * np.pi * np.cos(2 * np.pi * x)

        def u_f(x):
            return 0.02 * np.cos(2 * np.pi * x)

        def u_x(x):
            return -0.02 * 2 * np.pi * np.sin(2 * np.pi * x)

        def integrand(x):
            r = rho_f(x)
            da = r**2 / 2.0
            _, v2, _ = sw_eos.potential_derivatives(r)
            return (0.5 * r * u_f(x) ** 2 + 0.2 * r * da * u_x(x) ** 2
                    + float(sw_eos.potential(r)) + 0.2 * da * v2 * rho_x(x) ** 2)

        want, err = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
        st = State(0.0, rho_f(g.x), u_f(g.x), g)
        got = bl.diagnostics(st, reg, sw_eos).energy
        assert got == pytest.approx(want, abs=1e-8)

    def test_differentiates_the_state_once(self, sw_eos, cubic_reg, monkeypatch):
        g = Grid.periodic(1.0, 64)
        st = sine_bump_state(g)
        want_sup = max(np.max(np.abs(g.ddx(st.rho))), np.max(np.abs(g.ddx(st.u))))
        calls = []
        ddx = Grid.ddx
        monkeypatch.setattr(Grid, "ddx",
                            lambda self, *a, **kw: calls.append(1) or ddx(self, *a, **kw))
        d = bl.diagnostics(st, cubic_reg, sw_eos)
        assert len(calls) == 2  # u_x and rho_x, shared by the energy and sup_wx
        assert d.sup_wx == want_sup

    def test_momentum_field_is_operator_applied_to_u(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 128)
        st = sine_bump_state(g)
        m = bl.momentum_field(st, cubic_reg)
        sl = bl.SLSystem(g, st.rho, cubic_reg)
        assert np.array_equal(m, sl.apply(st.u))


class TestConservation:
    @pytest.mark.parametrize("eos,reg", [
        (EquationOfState.shallow_water(1.0), Regularizer.cubic(0.1)),
        (EquationOfState.isothermal(1.0, 1.0), Regularizer.inverse(0.1, 1.0, 1.0)),
    ])
    def test_short_run_drifts(self, eos, reg):
        g = Grid.periodic(1.0, 256)
        st = sine_bump_state(g, a=0.05, u_mean=1.0)
        res = bl.run(st, SolverConfig(t_end=0.25, cfl=0.2), reg, eos)
        s = np.array(res.series)
        assert abs(s[-1, 4] - s[0, 4]) / abs(s[0, 4]) < 1e-6
        assert abs(s[-1, 2] - s[0, 2]) / abs(s[0, 2]) < 1e-12
        assert abs(s[-1, 3] - s[0, 3]) / abs(s[0, 3]) < 1e-8

    def test_constant_state_long_run_zero_drift(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 32)
        st = State(0.0, np.full(32, 1.0), np.full(32, 0.2), g)
        res = bl.run(st, SolverConfig(t_end=10.0, cfl=0.5), cubic_reg, sw_eos)
        s = np.array(res.series)
        assert np.all(s[:, 4] == s[0, 4])
        assert not res.blowup

    def test_galilean_invariance(self, sw_eos, cubic_reg):
        # boost-then-evolve vs evolve-then-boost-and-shift, O(dx^2) + O(dt^4)
        errs = []
        for n in (128, 256):
            g = Grid.periodic(1.0, n)
            rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)
            u0 = 0.1 * np.cos(2 * np.pi * g.x)
            c, t_end = 0.5, 0.25
            shift = int(round(c * t_end / g.dx))
            assert abs(shift * g.dx - c * t_end) < 1e-14
            cfg = SolverConfig(t_end=t_end, cfl=0.2)
            boosted = bl.run(State(0.0, rho0, u0 + c, g), cfg, cubic_reg, sw_eos).final
            plain = bl.run(State(0.0, rho0, u0, g), cfg, cubic_reg, sw_eos).final
            errs.append(max(
                np.max(np.abs(boosted.rho - np.roll(plain.rho, shift))),
                np.max(np.abs(boosted.u - (np.roll(plain.u, shift) + c))),
            ))
        assert observed_order(errs) > 1.5
        assert errs[-1] < 5e-5


class TestSpatialConvergence:
    def test_second_order_self_convergence(self, sw_eos, cubic_reg):
        finals = {}
        for n in (64, 128, 256, 1024):
            g = Grid.periodic(1.0, n)
            rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)
            u0 = 0.5 + 0.1 * np.cos(2 * np.pi * g.x)
            st = State(0.0, rho0, u0, g)
            finals[n] = bl.run(st, SolverConfig(t_end=0.1, cfl=0.2), cubic_reg, sw_eos).final
        errs = [np.max(np.abs(finals[n].rho - finals[1024].rho[:: 1024 // n]))
                for n in (64, 128, 256)]
        assert observed_order(errs) == pytest.approx(2.0, abs=0.3)


class TestBlowupAndReference:
    def test_steep_front_triggers_detector(self, sw_eos):
        n = 512
        g = Grid.periodic(1.0, n)
        u0 = -0.5 * (np.tanh((g.x - 1 / 3) / 0.04) - np.tanh((g.x - 2 / 3) / 0.04) - 1.0)
        st = State(0.0, np.ones(n), u0, g)
        sup0 = np.max(np.abs(g.ddx(u0)))
        cfg = SolverConfig(t_end=1.0, cfl=0.3, blowup_threshold=8 * sup0)
        res = bl.run(st, cfg, Regularizer.cubic(1e-4), sw_eos)
        assert res.blowup and res.blowup_time is not None
        res2 = bl.run(st, SolverConfig(t_end=0.05, cfl=0.3, blowup_threshold=8 * sup0),
                      Regularizer.cubic(1.0), sw_eos)
        assert not res2.blowup

    def test_rusanov_reference_mass_and_stability(self, sw_eos):
        g = Grid.periodic(1.0, 256)
        st = State(0.0, np.ones(256), -0.3 * np.sin(2 * np.pi * g.x), g)
        out = bl.rusanov_run(st, 0.5, sw_eos)  # runs through shock formation
        assert np.all(np.isfinite(out.rho)) and np.min(out.rho) > 0
        assert g.integrate(out.rho) == pytest.approx(1.0, rel=1e-12)

    def test_rusanov_vacuum_is_an_integration_error(self, sw_eos):
        g = Grid.periodic(1.0, 256)
        st = State(0.0, np.ones(256), 3.0 * np.sin(2 * np.pi * g.x), g)
        with pytest.raises(IntegrationError) as err:
            bl.rusanov_run(st, 1.0, sw_eos, cfl=1.5)
        assert err.value.t == pytest.approx(0.04091, abs=5e-6)
        assert isinstance(err.value.__cause__, VacuumError)

    def test_rusanov_rhs_equals_the_roll_formula(self, sw_eos):
        # the padded-slice stencil must reproduce the wrapped one bit for bit
        rng = np.random.default_rng(5)
        g = Grid.periodic(1.0, 97)
        rho, u = rng.uniform(0.5, 2.0, g.n), rng.uniform(-1.0, 1.0, g.n)
        q = rho * u
        f_q = q * u + sw_eos.pressure(rho)
        a = np.abs(u) + sw_eos.sound_speed(rho)
        a_face = np.maximum(a, np.roll(a, -1))
        flux_rho = 0.5 * (q + np.roll(q, -1)) - 0.5 * a_face * (np.roll(rho, -1) - rho)
        flux_q = 0.5 * (f_q + np.roll(f_q, -1)) - 0.5 * a_face * (np.roll(q, -1) - q)
        drho, dq = bl.euler.rusanov_rhs(State(0.0, rho, u, g), sw_eos)
        assert np.array_equal(drho, -(flux_rho - np.roll(flux_rho, 1)) / g.dx)
        assert np.array_equal(dq, -(flux_q - np.roll(flux_q, 1)) / g.dx)

    def test_line_grid_run_and_contamination_warning(self, sw_eos, cubic_reg):
        import warnings

        g = Grid.line(-15.0, 15.0, 1024, rho_far=(1.0, 1.0), u_far=(0.0, 0.0))
        st = State(0.0, 1.0 + 0.1 * np.exp(-g.x**2), np.zeros(g.n), g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # perturbation stays interior: no warning
            res = bl.run(st, SolverConfig(t_end=2.0, cfl=0.3), cubic_reg, sw_eos)
        s = np.array(res.series)
        assert abs(s[-1, 2] - s[0, 2]) / abs(s[0, 2]) < 1e-12
        assert abs(s[-1, 4] - s[0, 4]) / abs(s[0, 4]) < 1e-4
        with pytest.warns(bl.BoundaryContaminationWarning):
            bl.run(res.final, SolverConfig(t_end=14.0, cfl=0.3), cubic_reg, sw_eos)

    def test_epsilon_to_zero_monotone(self, sw_eos):
        g = Grid.periodic(1.0, 256)
        st = State(0.0, np.ones(256), -0.3 * np.sin(2 * np.pi * g.x), g)
        ref = bl.rusanov_run(st, 0.15, sw_eos)
        dists = []
        for eps in (1e-1, 1e-2, 1e-3):
            res = bl.run(st, SolverConfig(t_end=0.15, cfl=0.3), Regularizer.cubic(eps), sw_eos)
            dists.append(g.integrate(np.abs(res.final.rho - ref.rho)
                                     + np.abs(res.final.u - ref.u)))
        assert dists[0] > dists[1] > dists[2]


def test_solver_config_validation():
    inf, nan = float("inf"), float("nan")
    for bad in (dict(t_end=0.0), dict(t_end=inf), dict(t_end=nan), dict(cfl=0.0),
                dict(cfl=1.5), dict(cfl=nan), dict(blowup_factor=-1.0),
                dict(blowup_factor=nan), dict(blowup_threshold=0.0),
                dict(blowup_threshold=nan), dict(snapshot_every=-1)):
        with pytest.raises(DomainError):
            SolverConfig(**{"t_end": 1.0, **bad})
    # one error names every broken rule
    with pytest.raises(DomainError, match="t_end.*blowup_factor.*snapshot_every"):
        SolverConfig(t_end=inf, blowup_factor=-1.0, snapshot_every=-1)
    assert SolverConfig(t_end=1.0, blowup_threshold=inf).blowup_threshold == inf
