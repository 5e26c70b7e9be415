import numpy as np
import pytest
import sympy as sp

import barolab as bl
from barolab import (
    DomainError,
    EquationOfState,
    FitUnreliableError,
    MeasurementInvalidError,
    Regularizer,
    SteadyFluxes,
)
from barolab import analysis
from barolab.analysis import check_steady_start, steady_numer_denom


class TestPhaseSpeedTheory:
    def test_shallow_water_unit(self, sw_eos):
        assert bl.phase_speed(sw_eos) == pytest.approx(1.0, rel=1e-14)

    def test_isothermal_unit(self, iso_eos):
        assert bl.phase_speed(iso_eos) == pytest.approx(1.0, rel=1e-14)


class TestPhaseSpeedMeasured:
    def test_matches_theory_small_amplitude(self, sw_eos):
        c0 = bl.phase_speed(sw_eos)
        for eps in (0.0, 0.1):
            reg = Regularizer.cubic(eps)
            for k in (1, 2, 4):
                c = bl.measured_phase_speed(sw_eos, reg, k, 1e-6)
                assert abs(c - c0) / c0 < 0.01

    def test_regularization_strength_does_not_disperse(self, sw_eos):
        cs = [bl.measured_phase_speed(sw_eos, Regularizer.cubic(eps), 2, 1e-6)
              for eps in (0.0, 1.0)]
        assert abs(cs[1] - cs[0]) / cs[0] < 0.01

    def test_amplitude_refinement_toward_linear_limit(self, sw_eos, cubic_reg):
        # self-consistency: shrinking the amplitude converges the measurement
        # onto its linear limit
        c_lin = bl.measured_phase_speed(sw_eos, cubic_reg, 2, 1e-7)
        gaps = [abs(bl.measured_phase_speed(sw_eos, cubic_reg, 2, a, harmonic_tol=0.5) - c_lin)
                for a in (0.05, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_nonlinear_contamination_raises(self, sw_eos, cubic_reg):
        with pytest.raises(MeasurementInvalidError):
            bl.measured_phase_speed(sw_eos, cubic_reg, 2, 0.05)

    @pytest.mark.parametrize("amplitude", [0.0, 1e-300, 1e-17])
    def test_a_wave_below_the_density_rounding_is_no_measurement(self, sw_eos, cubic_reg,
                                                                 amplitude, monkeypatch):
        # rho_bar + a cos(x) rounds to rho_bar: nothing moves, and the measured speed
        # used to come out as exactly c0; the check comes before the run
        monkeypatch.setattr(analysis, "run", None)
        with pytest.raises(MeasurementInvalidError, match="leaves no mode 1 in the density"):
            bl.measured_phase_speed(sw_eos, cubic_reg, 1, amplitude)

    def test_rejects_bad_mode(self, sw_eos, cubic_reg):
        with pytest.raises(DomainError):
            bl.measured_phase_speed(sw_eos, cubic_reg, 0, 1e-6)

    def test_slow_sound_takes_the_cfl_step(self, monkeypatch):
        # c0 = 0.01, so one period is long, yet it takes about 256 / (0.3 k) steps, as
        # for any c0.  A step capped at dx gave these speeds in 25601 and 12801 steps.
        steps, run = [], analysis.run

        def counted(*args):
            result = run(*args)
            steps.append(result.steps)
            return result

        monkeypatch.setattr(analysis, "run", counted)
        eos = EquationOfState.isentropic(1e-4)
        for k, c_capped, capped_steps in ((1, 9.99899652219635e-3, 25601),
                                          (2, 9.995985015854835e-3, 12801)):
            c = bl.measured_phase_speed(eos, Regularizer.cubic(0.1), k, 1e-6)
            assert c == pytest.approx(c_capped, rel=1e-6)
            assert steps[-1] <= capped_steps / 10


# The fluxes (I, S, F) = (rho u, rho u^2 + P, rho u^3/2 + rho u V') of constant
# shallow-water states (g = 1, so P = rho^2/2 - 1/2 and V' = rho - 1), keyed by
# (rho, u).
EQUILIBRIA = {
    (1.0, 0.5): SteadyFluxes(0.5, 0.25, 0.0625),
    (2.0, 1.0): SteadyFluxes(2.0, 3.5, 3.0),
    (0.7, -0.3): SteadyFluxes(-0.21, -0.192, 0.05355),
}


class TestSteadyOde:
    def test_equilibrium_numerator_vanishes(self, sw_eos):
        for (rho, _), fx in EQUILIBRIA.items():
            numer, _ = steady_numer_denom(rho, fx, sw_eos)
            assert abs(numer) <= 1e-16

    def test_sonic_locus(self, sw_eos):
        assert sw_eos.sonic_density(1.0) == pytest.approx(1.0, rel=1e-12)
        assert sw_eos.sonic_density(2.0) == pytest.approx(4.0 ** (1 / 3), rel=1e-12)
        assert sw_eos.sonic_density(1e-5) == pytest.approx(1e-10 ** (1 / 3), rel=1e-12)
        assert sw_eos.sonic_density(1e5) == pytest.approx(1e10 ** (1 / 3), rel=1e-12)

    def test_sign_map_matches_symbolic_oracle(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        r = sp.symbols("rho", positive=True)
        v_expr = (r - 1) ** 2 / 2
        numer = 1 - 2 * sp.Rational(5, 4) * r + 2 * sp.Rational(1, 2) * r**2 - 2 * r * v_expr
        denom = 1 - r**3
        expr = r**2 * numer / (2 * sp.Float(0.1) * (r**2 / 2) * denom)
        for rho in np.linspace(0.5, 2.0, 31):
            if abs(rho - 1.0) < 1e-9:
                continue
            got = bl.steady_ode_rhs(rho, fx, sw_eos, cubic_reg)
            want = float(expr.subs(r, rho))
            assert got == pytest.approx(want, rel=1e-10)
            assert np.sign(got) == np.sign(want)

    def test_requires_regularization_and_mass_flux(self, sw_eos):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        with pytest.raises(DomainError):
            bl.steady_ode_rhs(1.5, fx, sw_eos, Regularizer.cubic(0.0))
        with pytest.raises(DomainError):
            bl.steady_ode_rhs(1.5, SteadyFluxes(0.0, 1.0, 1.0), sw_eos,
                              Regularizer.cubic(0.1))


class TestProfileIntegration:
    def test_equilibrium_start_gives_constant_profile(self, sw_eos, cubic_reg):
        res = bl.integrate_steady_profile(EQUILIBRIA[2.0, 1.0], sw_eos, cubic_reg, 2.0)
        assert res.stop == "equilibrium"
        assert np.all(res.rho == 2.0)

    def test_inadmissible_start_raises(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        # N > 0 and D > 0 fails on rho < 1 here: squared slope < 0
        assert bl.steady_ode_rhs(0.8, fx, sw_eos, cubic_reg) < 0
        with pytest.raises(DomainError):
            bl.integrate_steady_profile(fx, sw_eos, cubic_reg, 0.8)

    @pytest.mark.parametrize("rho_start, message", [
        (0.8, "negative"), (1.0, "not finite"), (1e200, "not finite"), (-1.0, "vacuum"),
    ], ids=["negative_slope", "sonic", "overflow", "vacuum"])
    def test_start_rule_rejects(self, sw_eos, cubic_reg, rho_start, message):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        with pytest.raises(DomainError, match=message):
            check_steady_start(fx, sw_eos, cubic_reg, rho_start)

    def test_start_rule_names_an_equilibrium(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        assert check_steady_start(fx, sw_eos, cubic_reg, 1.3) is False
        # the squared slope at rho = 1e10 is about 10, small next to rho^2, but
        # N there is a sum of terms of size 1e30 that do not cancel
        assert check_steady_start(fx, sw_eos, cubic_reg, 1e10) is False
        for (rho, _), fx in EQUILIBRIA.items():
            assert check_steady_start(fx, sw_eos, cubic_reg, rho) is True

    @pytest.mark.parametrize("x_max", [0.0, -1.0, float("nan")])
    def test_x_max_must_be_positive(self, sw_eos, cubic_reg, x_max):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        with pytest.raises(DomainError, match="x_max must be"):
            bl.integrate_steady_profile(fx, sw_eos, cubic_reg, 1.3, x_max=x_max)

    def test_stops_at_sonic_point(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        res = bl.integrate_steady_profile(fx, sw_eos, cubic_reg, 1.3)
        assert res.stop == "sonic"
        assert res.rho[-1] == pytest.approx(1.0, abs=5e-3)
        assert np.all(np.diff(res.rho) <= 0)

    def test_cusp_profile_two_thirds_exponent(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(1.0, 1.25, 0.5)
        profile = bl.integrate_steady_profile(fx, sw_eos, cubic_reg, 1.3)
        x, rho, x0, rho_s = bl.cusp_profile(profile, fx, sw_eos, cubic_reg, n=2049)
        fit = bl.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s)
        assert fit.alpha == pytest.approx(2.0 / 3.0, abs=0.05)
        assert fit.r2_left >= 0.99 and fit.r2_right >= 0.99
        predicted = bl.cusp_amplitude_prediction(fx, sw_eos, cubic_reg, rho_s)
        assert fit.rho_amp_left == pytest.approx(predicted, rel=0.05)
        assert fit.rho_amp_right == pytest.approx(predicted, rel=0.05)

    def test_cusp_amplitude_needs_a_real_root(self, sw_eos, cubic_reg):
        # N(1) = 1 - 2 S = 0 here, so the amplitude's cube is 0
        with pytest.raises(DomainError, match="no finite nonzero cusp amplitude"):
            bl.cusp_amplitude_prediction(SteadyFluxes(1.0, 0.5, 0.0), sw_eos, cubic_reg, 1.0)
        # N(1) = 1 > 0: a cusp reached from below, with a negative amplitude
        amp = bl.cusp_amplitude_prediction(SteadyFluxes(1.0, 0.0, 0.0), sw_eos, cubic_reg, 1.0)
        assert amp == pytest.approx(-1.9574, abs=1e-4)

    def test_cusp_from_below_approaches_its_predicted_amplitude(self, cubic_reg):
        eos = EquationOfState.isentropic(2.0)
        fx = SteadyFluxes(1.6, 0.6, 0.4)  # sonic density 1.0858, above rho_start
        profile = bl.integrate_steady_profile(fx, eos, cubic_reg, 0.7)
        assert profile.stop == "sonic"
        assert np.all(np.diff(profile.rho) >= 0)
        x, rho, x0, rho_s = bl.cusp_profile(profile, fx, eos, cubic_reg, n=4097)
        assert np.all(rho <= rho_s) and rho[2048] == rho_s and x[2048] == x0
        predicted = bl.cusp_amplitude_prediction(fx, eos, cubic_reg, rho_s)
        assert predicted < 0.0
        # the fit reads |rho - rho_s|; a narrower window brings it toward |a|
        errs = []
        for outer in (1e-2, 3e-3, 1e-3):
            fit = bl.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s, outer=outer)
            assert fit.alpha == pytest.approx(2.0 / 3.0, abs=0.05)
            errs.append(abs(fit.rho_amp_left + predicted) / -predicted)
        assert errs[0] > errs[1] > errs[2]

    def test_a_trial_stage_below_vacuum_shrinks_the_step(self):
        # a start just below a sonic density of 13.677 that an RK45 trial stage
        # overshoots to a negative density; the step is rejected, not the profile
        eos = EquationOfState.isentropic(0.5)
        reg = Regularizer.inverse(0.1, 1.0)
        fx = SteadyFluxes(-5.029026359733327, 11.129475409613013, -12.912444260980173)
        profile = bl.integrate_steady_profile(fx, eos, reg, 13.359469658036652)
        assert profile.stop == "sonic"
        x, rho, x0, rho_s = bl.cusp_profile(profile, fx, eos, reg)
        fit = bl.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s)
        assert fit.alpha == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_cusp_profile_needs_a_sonic_stop(self, sw_eos, cubic_reg):
        fx = SteadyFluxes(0.5, 0.25, 0.0625)
        profile = bl.integrate_steady_profile(fx, sw_eos, cubic_reg, 1.5)
        assert profile.stop == "turning"
        with pytest.raises(DomainError):
            bl.cusp_profile(profile, fx, sw_eos, cubic_reg)


class TestExponentFitter:
    def make_profile(self, alpha, n=4001, noise=0.0, span=1.0):
        x = np.linspace(-span, span, n)
        rho = 1.0 + np.abs(x) ** alpha
        if noise:
            rng = np.random.default_rng(1)
            rho = 1.0 + np.abs(x) ** alpha * (1.0 + noise * rng.standard_normal(n))
        return x, rho

    def test_exact_two_thirds(self):
        x, rho = self.make_profile(2.0 / 3.0)
        fit = bl.fit_singularity_exponent(x, rho, 0.0, rho_ref=1.0)
        assert fit.alpha_left == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert fit.alpha_right == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_linear_with_noise(self):
        x, rho = self.make_profile(1.0, noise=1e-6)
        fit = bl.fit_singularity_exponent(x, rho, 0.0, rho_ref=1.0)
        assert fit.alpha == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0])
    def test_planted_exponents_two_decades(self, alpha):
        # window spanning two decades of |x|
        x = np.linspace(-1.0, 1.0, 20001)
        rho = 2.0 + 0.7 * np.abs(x) ** alpha
        fit = bl.fit_singularity_exponent(x, rho, 0.0, rho_ref=2.0,
                                          inner=1e-3, outer=0.1)
        assert fit.alpha_left == pytest.approx(alpha, abs=1e-3)
        assert fit.alpha_right == pytest.approx(alpha, abs=1e-3)
        assert fit.rho_amp_left == pytest.approx(0.7, rel=1e-3)

    def test_unreliable_fit_raises_with_diagnostics(self):
        rng = np.random.default_rng(9)
        x = np.linspace(-1.0, 1.0, 2001)
        rho = 1.0 + np.abs(np.sin(40 * x)) * (1 + 0.5 * rng.standard_normal(x.size))
        with pytest.raises(FitUnreliableError) as err:
            bl.fit_singularity_exponent(x, rho, 0.0, rho_ref=1.0)
        assert err.value.diagnostics is not None
        assert err.value.diagnostics.r2_left < 0.99 or err.value.diagnostics.r2_right < 0.99
