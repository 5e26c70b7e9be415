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
    @pytest.mark.parametrize("eos", [
        EquationOfState.isentropic(1.4), EquationOfState.isothermal(1.0, 1.0),
        EquationOfState.shallow_water(1.0),
    ], ids=["isentropic", "isothermal", "shallow_water"])
    @pytest.mark.parametrize("reg", [
        Regularizer.cubic(0.1), Regularizer.inverse(0.1, 0.8, 1.1), Regularizer.power(0.1, 2.5),
        Regularizer.cubic(0.0),
    ], ids=["cubic", "inverse", "power", "eps0"])
    def test_equals_the_public_composition_bitwise(self, reg, eos, topology):
        # rhs takes every coefficient from one checked bundle; the public,
        # separately checked calls must give the same bits
        if topology == "periodic":
            st = sine_bump_state(Grid.periodic(1.0, 64))
        else:
            g = Grid.line(-4.0, 4.0, 64, rho_far=(1.2, 0.9), u_far=(0.3, -0.1))
            st = State(0.0, 1.05 - 0.15 * np.tanh(g.x) + 0.2 * np.exp(-g.x**2),
                       0.1 - 0.2 * np.tanh(g.x), g)
        g, rho, u = st.grid, st.rho, st.u
        p_far = g._far(lambda r, _: eos.pressure(r))
        want_drho = -g.ddx(rho * u, far=g._far(lambda r, v: r * v))
        want_du = -u * g.ddx(u, far=g.u_far) - g.ddx(eos.pressure(rho), far=p_far) / rho
        if reg.epsilon > 0.0:
            psi = bl.reg_source(st, reg, eos)
            want_du = want_du - reg.epsilon * bl.SLSystem(g, rho, reg).solve_dx(psi)
        drho, du = bl.rhs(st, reg, eos)
        assert np.array_equal(drho, want_drho) and np.array_equal(du, want_du)

    @pytest.mark.parametrize("topology", ["periodic", "line"])
    def test_differentiates_five_times(self, sw_eos, cubic_reg, topology, monkeypatch):
        # (rho u)_x, u_x, P_x and rho_x of the stage, then psi_x inside the solve
        if topology == "periodic":
            st = sine_bump_state(Grid.periodic(1.0, 64))
        else:
            g = Grid.line(-4.0, 4.0, 64, rho_far=(1.0, 1.0), u_far=(0.5, 0.5))
            st = State(0.0, 1.0 + 0.2 * np.exp(-g.x**2), np.full(64, 0.5), g)
        calls = []
        ddx = Grid.ddx
        monkeypatch.setattr(Grid, "ddx",
                            lambda self, *a, **kw: calls.append(1) or ddx(self, *a, **kw))
        bl.rhs(st, cubic_reg, sw_eos)
        assert len(calls) == 5

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

    def test_rk4_stage_times(self, sw_eos, cubic_reg):
        # u' = t^3 integrated by RK4 is Simpson's rule, exact for cubics only
        # with the stage times t, t + dt/2, t + dt/2, t + dt
        g = Grid.periodic(1.0, 32)
        t, dt = 0.3, 0.1
        st = State(t, np.full(32, 1.2), np.full(32, 0.3), g)
        out = bl.step(st, dt, cubic_reg, sw_eos,
                      _rhs=lambda s, r, e: (np.zeros_like(s.rho), np.full_like(s.u, s.t**3)))
        want = ((t + dt) ** 4 - t**4) / 4
        assert np.max(np.abs((out.u - st.u) - want)) <= 1e-14
        assert np.array_equal(out.rho, st.rho)

    def test_invalid_state_raises_with_time(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = State(0.7, 1.0 + 0.9 * np.sin(2 * np.pi * g.x), 10 * np.sin(2 * np.pi * g.x), g)
        with pytest.raises(IntegrationError) as err:
            bl.step(st, 1.0, cubic_reg, sw_eos)
        assert err.value.t == 0.7

    def test_non_finite_tendency_fails_the_stage_state(self, sw_eos, cubic_reg):
        # the first stage state is built from du = NaN, and building it is the
        # check: no later stage is evaluated
        g = Grid.periodic(1.0, 32)
        st = State(0.4, np.full(32, 1.2), np.full(32, 0.3), g)
        stages = []

        def nan_tendency(s, reg, eos):
            stages.append(s.t)
            return np.zeros_like(s.rho), np.full_like(s.u, np.nan)

        with pytest.raises(IntegrationError) as err:
            bl.step(st, 0.1, cubic_reg, sw_eos, _rhs=nan_tendency)
        assert err.value.t == 0.4 and stages == [0.4]
        assert isinstance(err.value.__cause__, DomainError)
        assert "velocity" in str(err.value.__cause__)


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

    def test_step_scales_with_the_time_unit(self):
        # slow sound (c0 = 0.01) and slow flow, so dt is many dx.  Measuring time in a
        # unit mu times as long (u -> u/mu, p_bar -> p_bar/mu^2) divides every speed by
        # mu, so the step, a time, becomes mu dt.
        g = Grid.periodic(1.0, 64)
        rho = 1.0 + 0.5 * np.exp(-(((g.x - 0.5) / 0.1) ** 2))
        u = 0.005 * np.sin(2 * np.pi * g.x)

        def dt(mu):
            eos = EquationOfState.isentropic(1e-4, 1.0, 1.0 / mu**2)
            return bl.cfl_dt(State(0.0, rho, u / mu, g), eos, 0.5)

        assert dt(1.0) > 10 * g.dx
        for mu in (0.25, 4.0):
            assert dt(mu) == pytest.approx(mu * dt(1.0), rel=1e-12)

    def test_rest_with_underflowing_sound_speed_takes_dx(self):
        # c = sqrt(5 rho^4) underflows to 0 at rho = 1e-90: no speed at all
        g = Grid.periodic(1.0, 64)
        st = State(0.0, np.full(64, 1e-90), np.zeros(64), g)
        assert bl.cfl_dt(st, EquationOfState.isentropic(5.0), 0.5) == g.dx


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

    def test_rusanov_needs_a_periodic_grid(self, sw_eos):
        g = Grid.line(-1.0, 1.0, 64)
        with pytest.raises(DomainError, match="periodic"):
            bl.rusanov_run(State(0.0, np.ones(64), np.zeros(64), g), 0.1, sw_eos)

    def test_rusanov_vacuum_is_an_integration_error(self, sw_eos):
        g = Grid.periodic(1.0, 256)
        st = State(0.0, np.ones(256), 3.0 * np.sin(2 * np.pi * g.x), g)
        with pytest.raises(IntegrationError) as err:
            bl.rusanov_run(st, 1.0, sw_eos, cfl=1.5)
        assert err.value.t == pytest.approx(0.04091, abs=5e-6)
        assert isinstance(err.value.__cause__, VacuumError)

    def test_rusanov_rhs_equals_the_roll_formula(self, sw_eos):
        # the wrapped local Lax-Friedrichs flux, written face by face: face j lies
        # between cells j and j + 1, and cell j takes -(F_j - F_{j-1}) / dx
        rng = np.random.default_rng(5)
        g = Grid.periodic(1.0, 97)
        rho, u = rng.uniform(0.5, 2.0, g.n), rng.uniform(-1.0, 1.0, g.n)
        q = rho * u
        f_q = q * u + sw_eos.pressure(rho)
        a = np.abs(u) + sw_eos.sound_speed(rho)
        flux_rho, flux_q = np.empty(g.n), np.empty(g.n)
        for j in range(g.n):
            k = (j + 1) % g.n
            a_face = max(a[j], a[k])
            flux_rho[j] = 0.5 * (q[j] + q[k]) - 0.5 * a_face * (rho[k] - rho[j])
            flux_q[j] = 0.5 * (f_q[j] + f_q[k]) - 0.5 * a_face * (q[k] - q[j])
        want_rho, want_q = np.empty(g.n), np.empty(g.n)
        for j in range(g.n):
            want_rho[j] = -(flux_rho[j] - flux_rho[j - 1]) / g.dx
            want_q[j] = -(flux_q[j] - flux_q[j - 1]) / g.dx
        drho, dq = bl.euler.rusanov_rhs(State(0.0, rho, u, g), sw_eos)
        assert np.array_equal(drho, want_rho)
        assert np.array_equal(dq, want_q)

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


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_state_is_checked_when_built(bad):
    g = Grid.periodic(1.0, 16)
    u = np.zeros(16)
    u[3] = bad
    with pytest.raises(DomainError, match="velocity"):
        State(0.0, np.ones(16), u, g)


@pytest.mark.parametrize("cls", [State, bl.GhsState], ids=["State", "GhsState"])
def test_states_compare_by_identity_and_hash(cls):
    # field arrays have no single truth value, so equality is identity, as for Grid
    g = Grid.periodic(1.0, 8)
    a, b = (cls(0.0, np.ones(8), np.zeros(8), g) for _ in range(2))
    assert a == a and not (a == b) and a != b
    assert len({a, b, a}) == 2


def test_field_shapes_must_match_the_grid(cubic_reg):
    g = Grid.periodic(1.0, 16)
    with pytest.raises(DomainError, match="shapes"):
        State(0.0, np.ones(8), np.ones(16), g)
    with pytest.raises(DomainError, match="shape"):
        bl.SLSystem(g, np.ones(8), cubic_reg)


def test_a_run_shorter_than_the_roundoff_floor_takes_its_step(sw_eos, cubic_reg):
    # the end rule stops a run a margin relative to its length short of its end, so
    # even a run of t_end = 1e-15 steps once and ends at t_end
    t_end = 1e-15
    g = Grid.periodic(1.0, 32)
    st = State(0.0, 1.0 + 0.1 * np.sin(2 * np.pi * g.x), 0.1 * np.cos(2 * np.pi * g.x), g)
    for result in (bl.run(st, SolverConfig(t_end=t_end), cubic_reg, sw_eos),
                   bl.ghs_run(bl.GhsState(0.0, st.rho, st.u, g), SolverConfig(t_end=t_end),
                              cubic_reg, sw_eos)):
        assert result.steps >= 1
        assert result.final.t == t_end
    assert bl.rusanov_run(st, t_end, sw_eos).t == t_end


def test_solver_config_validation():
    inf, nan = float("inf"), float("nan")
    for bad in (dict(t_end=0.0), dict(t_end=inf), dict(t_end=nan), dict(cfl=0.0),
                dict(cfl=1.5), dict(cfl=nan), dict(blowup_factor=-1.0),
                dict(blowup_factor=nan), dict(blowup_threshold=0.0),
                dict(blowup_threshold=nan), dict(snapshot_every=-1),
                dict(on_blowup="ignore")):
        with pytest.raises(DomainError):
            SolverConfig(**{"t_end": 1.0, **bad})
    # one error names every broken rule
    with pytest.raises(DomainError, match="t_end.*blowup_factor.*snapshot_every"):
        SolverConfig(t_end=inf, blowup_factor=-1.0, snapshot_every=-1)
    assert SolverConfig(t_end=1.0, blowup_threshold=inf).blowup_threshold == inf
    assert SolverConfig(t_end=1.0, on_blowup="fail").on_blowup == "fail"


def _late_start(t0):
    """The three CFL loops from ``t0``, each over a length of 1, on a state whose RK4
    step is 7.774e-3 (cfl 0.5) and whose Rusanov step is 6.219e-3 (cfl 0.4)."""
    g = Grid.periodic(1.0, 64)
    rho, u = 1.0 + 0.01 * np.sin(2 * np.pi * g.x), np.zeros(64)
    eos, reg, config = EquationOfState.shallow_water(1.0), Regularizer.cubic(0.1), \
        SolverConfig(t_end=1.0)
    return {"run": lambda: bl.run(State(t0, rho, u, g), config, reg, eos),
            "ghs_run": lambda: bl.ghs_run(bl.GhsState(t0, rho, u, g), config, reg, eos),
            "rusanov_run": lambda: bl.rusanov_run(State(t0, rho, u, g), 1.0, eos)}


@pytest.mark.parametrize("t0", [1e12, 1e13])
def test_a_late_start_runs_the_whole_length(t0):
    # the end margin is relative to the run's length, not to its end time: a margin of
    # 1e-14 * t_end would stop these runs about 0.01 and 0.1 short of t0 + 1
    for name, loop in _late_start(t0).items():
        result = loop()
        assert getattr(result, "final", result).t == t0 + 1.0, name


def test_a_step_that_leaves_t_unchanged_raises():
    # at t = 1e15 one ulp of t is 0.125, far above either step: t cannot move, and a
    # loop that tried would never end
    loops = _late_start(1e15)
    with pytest.raises(IntegrationError) as err:
        loops["run"]()
    assert str(err.value) == "a step of 7.774e-03 leaves t unchanged (at t = 1e+15)"
    assert [row[0] for row in err.value.series] == [1e15]  # the rows before the failure
    with pytest.raises(IntegrationError, match="step of 7.774e-03 leaves t unchanged"):
        loops["ghs_run"]()
    with pytest.raises(IntegrationError, match="step of 6.219e-03 leaves t unchanged"):
        loops["rusanov_run"]()
