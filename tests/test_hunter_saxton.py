import dataclasses

import numpy as np
import pytest

import barolab as bl
from barolab import (
    DomainError,
    EquationOfState,
    GhsState,
    Grid,
    Regularizer,
    SolverConfig,
    State,
)
from conftest import NegatedRegularizer, observed_order


def sine_state(grid, a_rho=0.004, a_u=0.008, bump=0.002):
    rho = 1.0 + a_rho * np.sin(2 * np.pi * grid.x) \
        + bump * np.exp(-(((grid.x - 0.5) / 0.15) ** 2))
    u = a_u * np.cos(2 * np.pi * grid.x)
    return GhsState(0.0, rho, u, grid)


class TestRhs:
    def test_constant_state_stationary(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = GhsState(0.0, np.full(64, 1.2), np.full(64, 0.3), g)
        drho, du = bl.ghs_rhs(st, cubic_reg, sw_eos)
        assert np.max(np.abs(drho)) == 0.0
        assert np.max(np.abs(du)) == 0.0

    def test_flat_density_sine_velocity(self, sw_eos, cubic_reg):
        # rho = 1, u = sin(2 pi x), cubic family: the u_x^2 coefficient is
        # 1 + rho A''/(2A') = 2, so the source is 2 (2 pi cos)^2; combining the
        # advection term with the mean-free antiderivative the full velocity
        # tendency cancels identically for this data
        n = 1024
        g = Grid.periodic(1.0, n)
        st = GhsState(0.0, np.ones(n), np.sin(2 * np.pi * g.x), g)
        src = bl.ghs_source(st, cubic_reg, sw_eos)
        want = 2.0 * (2 * np.pi * np.cos(2 * np.pi * g.x)) ** 2
        assert np.max(np.abs(src - want)) <= 1e-3 * np.max(want)
        _, du = bl.ghs_rhs(st, cubic_reg, sw_eos)
        assert np.max(np.abs(du)) <= 1e-3

    def test_sign_flip_of_regularizer_is_bitwise_invariant(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 256)
        st = sine_state(g, a_rho=0.2, a_u=0.3)
        drho, du = bl.ghs_rhs(st, cubic_reg, sw_eos)
        drho2, du2 = bl.ghs_rhs(st, NegatedRegularizer(cubic_reg), sw_eos)
        assert np.array_equal(drho, drho2)
        assert np.array_equal(du, du2)

    def test_requires_periodic_grid(self, sw_eos, cubic_reg):
        # checked at construction, also when dataclasses.replace builds the state
        line = Grid.line(-1.0, 1.0, 64)
        with pytest.raises(DomainError, match="periodic"):
            GhsState(0.0, np.ones(64), np.zeros(64), line)
        st = GhsState(0.0, np.ones(64), np.zeros(64), Grid.periodic(1.0, 64))
        with pytest.raises(DomainError, match="periodic"):
            dataclasses.replace(st, grid=line)

    @pytest.mark.parametrize("reg", [
        Regularizer.cubic(0.1), Regularizer.inverse(0.1, a=2.0, rho_bar=1.3),
        Regularizer.power(0.1, -2.0), Regularizer.power(0.1, 0.5), Regularizer.power(0.1, 1.0),
    ], ids=["cubic", "inverse", "power-2", "power0.5", "power1"])
    @pytest.mark.parametrize("eos", [
        EquationOfState.isentropic(1.4), EquationOfState.isothermal(),
        EquationOfState.shallow_water(),
    ], ids=["isentropic", "isothermal", "shallow_water"])
    def test_source_matches_the_direct_coefficients(self, reg, eos):
        # the Euler source over 2 rho A' against the coefficients written out
        # from the public derivatives, at 50 % density contrast
        g = Grid.periodic(1.0, 256)
        st = sine_state(g, a_rho=0.5, a_u=0.3)
        rho = st.rho
        _, da, d2a, _ = reg.derivatives(rho)
        _, v2, v3 = eos.potential_derivatives(rho)
        coeff_u = 1.0 + rho * d2a / (2.0 * da)
        coeff_r = (v2 + rho * v3) / (2.0 * rho) - v2 * d2a / (2.0 * da)
        want = coeff_u * g.ddx(st.u) ** 2 + coeff_r * g.ddx(rho) ** 2
        got = bl.ghs_source(st, reg, eos)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gradient_recovers_differential_form(self, sw_eos, cubic_reg):
        # d/dx of the velocity tendency reproduces the differentiated system
        # (advection terms removed) at second order
        errs = []
        for n in (128, 256, 512):
            g = Grid.periodic(1.0, n)
            st = sine_state(g, a_rho=0.1, a_u=0.2)
            src = bl.ghs_source(st, cubic_reg, sw_eos)
            src0 = src - g.integrate(src) / g.length
            recovered = g.ddx(g.antiderivative(src0))
            errs.append(np.max(np.abs(recovered - src0)))
        assert observed_order(errs) == pytest.approx(2.0, abs=0.2)


class TestEnergy:
    def test_constant_state_zero(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 64)
        st = GhsState(0.0, np.full(64, 1.5), np.full(64, 0.5), g)
        assert bl.ghs_energy(st, cubic_reg, sw_eos) == 0.0

    def test_sine_velocity_closed_form(self, sw_eos, cubic_reg):
        # rho = 1, u = sin(2 pi x), A'(1) = 1/2 on [0,1]: energy = pi^2
        g = Grid.periodic(1.0, 2048)
        st = GhsState(0.0, np.ones(2048), np.sin(2 * np.pi * g.x), g)
        assert bl.ghs_energy(st, cubic_reg, sw_eos) == pytest.approx(np.pi**2, rel=1e-5)

    def test_diagnostics_reports_the_gradient_energy(self, sw_eos, cubic_reg):
        st = sine_state(Grid.periodic(1.0, 128), a_rho=0.1, a_u=0.2)
        d = bl.diagnostics(st, cubic_reg, sw_eos)
        assert d.energy == bl.ghs_energy(st, cubic_reg, sw_eos)

    def test_energy_and_mass_conservation(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 512)
        res = bl.ghs_run(sine_state(g), SolverConfig(t_end=0.5, cfl=0.2), cubic_reg, sw_eos)
        s = np.array(res.series)
        assert abs(s[-1, 4] - s[0, 4]) / max(abs(s[0, 4]), 1e-12) <= 1e-6
        assert abs(s[-1, 2] - s[0, 2]) / abs(s[0, 2]) <= 1e-12


class TestRun:
    def test_each_row_differentiates_the_state_once(self, sw_eos, cubic_reg, monkeypatch):
        calls = []
        ddx = Grid.ddx
        monkeypatch.setattr(Grid, "ddx",
                            lambda self, *a, **kw: calls.append(1) or ddx(self, *a, **kw))
        res = bl.ghs_run(sine_state(Grid.periodic(1.0, 64)), SolverConfig(t_end=0.05, cfl=0.2),
                         cubic_reg, sw_eos)
        assert res.steps > 1
        # four per RK4 stage, then u_x and rho_x once for each series row
        assert len(calls) == 18 * res.steps + 2

    def test_constant_state_identical_after_long_run(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 32)
        st = GhsState(0.0, np.full(32, 1.0), np.full(32, 0.1), g)
        res = bl.ghs_run(st, SolverConfig(t_end=10.0, cfl=0.5), cubic_reg, sw_eos)
        assert np.array_equal(res.final.rho, st.rho)
        assert np.array_equal(res.final.u, st.u)

    def test_high_frequency_limit_matches_rbe(self, sw_eos, cubic_reg):
        # single high mode: the gradient of the velocity tendency agrees with
        # the regularized Euler one at large regularization strength
        n, k, a = 4096, 32, 0.01
        g = Grid.periodic(1.0, n)
        rho0 = 1.0 + a * np.cos(2 * np.pi * k * g.x)
        u0 = a * np.sin(2 * np.pi * k * g.x)
        _, du_ghs = bl.ghs_rhs(GhsState(0.0, rho0, u0, g), cubic_reg, sw_eos)
        _, du_rbe = bl.rhs(State(0.0, rho0, u0, g), Regularizer.cubic(100.0), sw_eos)
        g1, g2 = g.ddx(du_ghs), g.ddx(du_rbe)
        assert np.max(np.abs(g1 - g2)) <= 0.05 * np.max(np.abs(g1))

    def test_steep_data_triggers_blowup(self, sw_eos, cubic_reg):
        n = 512
        g = Grid.periodic(1.0, n)
        u0 = -0.8 * (np.tanh((g.x - 1 / 3) / 0.03) - np.tanh((g.x - 2 / 3) / 0.03) - 1.0)
        st = GhsState(0.0, np.ones(n), u0, g)
        sup0 = np.max(np.abs(g.ddx(u0)))
        res = bl.ghs_run(st, SolverConfig(t_end=2.0, cfl=0.3, blowup_threshold=6 * sup0),
                         cubic_reg, sw_eos)
        assert res.blowup

    def test_temporal_order(self, sw_eos, cubic_reg):
        g = Grid.periodic(1.0, 128)
        st = sine_state(g, a_rho=0.05, a_u=0.1)
        T = 0.05

        def advance(steps):
            cur, dt = st, T / steps
            for _ in range(steps):
                cur = bl.ghs_step(cur, dt, cubic_reg, sw_eos)
            return cur

        ref = advance(64)
        errs = [np.max(np.abs(advance(s).u - ref.u)) for s in (8, 16)]
        assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.5)

