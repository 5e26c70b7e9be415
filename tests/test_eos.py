import numpy as np
import pytest
from scipy.integrate import quad

from barolab import analysis, eos as eos_module, euler, regularizer, sturm_liouville
from barolab import (
    DomainError,
    EquationOfState,
    GhsState,
    Grid,
    Regularizer,
    SLSystem,
    State,
    VacuumError,
    cfl_dt,
    composite_coefficients,
    diagnostics,
    ghs_rhs,
    ghs_source,
    ghs_step,
    inverse_family_flux,
    reg_source,
    rhs,
    step,
)

GAMMA2 = EquationOfState.isentropic(2.0, 1.0, 0.5)
ISO = EquationOfState.isothermal(1.0, 1.0)
GRID16 = Grid.periodic(1.0, 16)
CUBIC = Regularizer.cubic(0.1)


def _state(rho, kind=State):
    return kind(0.0, rho, np.zeros(16), GRID16)


# every public function that takes a density, called on a 16-cell field
DENSITY_TAKERS = {
    "pressure": lambda rho: GAMMA2.pressure(rho),
    "potential_derivatives": lambda rho: GAMMA2.potential_derivatives(rho),
    "Regularizer.derivatives": lambda rho: CUBIC.derivatives(rho),
    "composite_coefficients": lambda rho: composite_coefficients(CUBIC, GAMMA2, rho),
    "SLSystem": lambda rho: SLSystem(GRID16, rho, CUBIC),
    "State.validate": lambda rho: _state(rho).validate(),
    "rhs": lambda rho: rhs(_state(rho), CUBIC, GAMMA2),
    "cfl_dt": lambda rho: cfl_dt(_state(rho), GAMMA2, 0.5),
    "diagnostics": lambda rho: diagnostics(_state(rho), CUBIC, GAMMA2),
    "reg_source": lambda rho: reg_source(_state(rho), CUBIC, GAMMA2),
    "ghs_rhs": lambda rho: ghs_rhs(_state(rho, GhsState), CUBIC, GAMMA2),
    "ghs_source": lambda rho: ghs_source(_state(rho, GhsState), CUBIC, GAMMA2),
    "inverse_family_flux": lambda rho: inverse_family_flux(
        rho, 0.1, GAMMA2, Regularizer.inverse(0.1)),
}


def quad_enthalpy(eos, rho):
    """Independent oracle: integral of P'(a)/a from rho_bar to rho."""
    val, err = quad(lambda a: eos.sound_speed(a)**2 / a, eos.rho_bar, rho,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def quad_potential(eos, rho):
    """Nested quadrature oracle: integral of the quadrature enthalpy."""
    val, err = quad(lambda a: quad_enthalpy(eos, a), eos.rho_bar, rho, epsrel=1e-11)
    assert err < 1e-9
    return val


class TestPressure:
    def test_reference_state(self):
        assert GAMMA2.pressure(1.0) == 0.5

    def test_gamma2_doubling(self):
        assert GAMMA2.pressure(2.0) == pytest.approx(2.0, rel=1e-14)

    def test_isothermal_linear(self):
        assert ISO.pressure(3.0) == pytest.approx(3.0, rel=1e-14)

    def test_rejects_nonpositive_density(self):
        for bad in (0.0, -1.0, np.array([1.0, -2.0])):
            with pytest.raises(DomainError):
                GAMMA2.pressure(bad)


@pytest.mark.parametrize("take", DENSITY_TAKERS.values(), ids=list(DENSITY_TAKERS))
@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_one_density_rule(take, bad):
    # a density <= 0 is vacuum; NaN or Inf is a plain domain error
    rho = np.ones(16)
    rho[5] = bad
    with pytest.raises(DomainError) as err:
        take(rho)
    assert isinstance(err.value, VacuumError) == (bad == 0.0)
    take(np.ones(16))


@pytest.fixture
def density_checks(monkeypatch):
    """``[count]`` of density-rule calls, counted in every module that applies it."""
    calls = [0]
    check = eos_module._check_density

    def counted(rho):
        calls[0] += 1
        return check(rho)

    for module in (eos_module, regularizer, sturm_liouville, euler, analysis):
        monkeypatch.setattr(module, "_check_density", counted)
    return calls


def test_one_density_check_per_call(density_checks):
    calls = density_checks
    g = Grid.periodic(1.0, 64)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * g.x)
    GAMMA2.potential_derivatives(rho)
    assert calls[0] == 1
    SLSystem(g, rho, CUBIC)
    assert calls[0] == 2
    state = State(0.0, rho, 0.1 * np.cos(2 * np.pi * g.x), g)
    calls[0] = 0
    rhs(state, CUBIC, GAMMA2)  # a built state is already checked
    assert calls[0] == 0
    # one step of the run loop: the CFL step, the four stages and the row check
    # nothing; the three stage states and the RK4 result are checked when built
    dt = cfl_dt(state, GAMMA2, 0.5)
    diagnostics(step(state, dt, CUBIC, GAMMA2), CUBIC, GAMMA2)
    assert calls[0] == 4


def test_rusanov_step_checks_each_state_it_builds(density_checks):
    calls = density_checks
    g = Grid.periodic(1.0, 64)
    state = State(0.0, 1.0 + 0.2 * np.sin(2 * np.pi * g.x), 0.1 * np.cos(2 * np.pi * g.x), g)
    calls[0] = 0
    dt = cfl_dt(state, GAMMA2, 0.4)
    # one forward-Euler step: the start state in conservative form, then the result
    euler.rusanov_run(state, 0.5 * dt, GAMMA2)
    assert calls[0] == 2


def test_one_density_check_per_ghs_stage(density_checks):
    calls = density_checks
    g = Grid.periodic(1.0, 64)
    state = GhsState(0.0, 1.0 + 0.2 * np.sin(2 * np.pi * g.x), 0.1 * np.cos(2 * np.pi * g.x), g)
    calls[0] = 0
    ghs_rhs(state, CUBIC, GAMMA2)  # a built state is already checked
    assert calls[0] == 0
    # one step of the gHS run loop runs the rule as often as an Euler step
    dt = cfl_dt(state, GAMMA2, 0.5)
    diagnostics(ghs_step(state, dt, CUBIC, GAMMA2), CUBIC, GAMMA2)
    assert calls[0] == 4


@pytest.mark.parametrize("call", [
    lambda fluxes: analysis.steady_numer_denom(1.3, fluxes, GAMMA2),
    lambda fluxes: analysis.steady_ode_rhs(1.3, fluxes, GAMMA2, CUBIC),
    lambda fluxes: analysis.cusp_amplitude_prediction(fluxes, GAMMA2, CUBIC, 1.0),
], ids=["steady_numer_denom", "steady_ode_rhs", "cusp_amplitude_prediction"])
def test_one_density_check_per_steady_relation_call(density_checks, call):
    # each ODE step and event evaluation of a steady profile makes one such call
    call(analysis.SteadyFluxes(1.0, 1.25, 0.5))
    assert density_checks[0] == 1


class TestEnthalpy:
    def test_gauge_at_reference(self):
        assert GAMMA2.enthalpy(1.0) == 0.0

    def test_gamma2_against_quadrature(self):
        assert GAMMA2.enthalpy(2.0) == pytest.approx(quad_enthalpy(GAMMA2, 2.0), rel=1e-12)
        assert GAMMA2.enthalpy(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_isothermal_log(self):
        assert ISO.enthalpy(np.e) == pytest.approx(quad_enthalpy(ISO, np.e), rel=1e-12)
        assert ISO.enthalpy(np.e) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("eos", [
        GAMMA2, ISO,
        EquationOfState.isentropic(0.5, 1.3, 0.7),
        EquationOfState.isentropic(1.4, 0.8, 2.0),
        EquationOfState.isentropic(3.0, 1.0, 1.0),
        EquationOfState.shallow_water(9.81, 2.0),
    ])
    def test_matches_quadrature_over_range(self, eos):
        rng = np.random.default_rng(42)
        for rho in rng.uniform(0.1, 10.0, size=1000):
            want = quad_enthalpy(eos, rho)
            got = float(eos.enthalpy(rho))
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


class TestPotential:
    def test_zero_at_reference(self):
        for eos in (GAMMA2, ISO):
            assert eos.potential(eos.rho_bar) == 0.0

    def test_gamma2_closed_form(self):
        assert GAMMA2.potential(3.0) == pytest.approx(quad_potential(GAMMA2, 3.0), rel=1e-9)
        assert GAMMA2.potential(3.0) == pytest.approx(2.0, rel=1e-14)

    def test_isothermal(self):
        assert ISO.potential(np.e) == pytest.approx(quad_potential(ISO, np.e), rel=1e-9)
        assert ISO.potential(np.e) == pytest.approx(1.0, rel=1e-13)

    def test_nonnegative(self):
        rho = np.geomspace(0.05, 20.0, 200)
        for eos in (GAMMA2, ISO, EquationOfState.isentropic(0.5)):
            assert np.all(eos.potential(rho) >= 0.0)


class TestPotentialDerivatives:
    def test_shallow_water_reference(self, sw_eos):
        d1, d2, d3 = sw_eos.potential_derivatives(1.0)
        assert d1 == 0.0
        assert d2 == pytest.approx(1.0, rel=1e-14)
        assert d3 == pytest.approx(0.0, abs=1e-14)

    def test_isothermal_at_two(self):
        d1, d2, d3 = ISO.potential_derivatives(2.0)
        assert d1 == pytest.approx(np.log(2.0), rel=1e-14)
        assert d2 == pytest.approx(0.5, rel=1e-14)
        assert d3 == pytest.approx(-0.25, rel=1e-14)

    def test_gauge(self):
        for eos in (GAMMA2, ISO):
            assert eos.potential_derivatives(eos.rho_bar)[0] == 0.0

    @pytest.mark.parametrize("eos", [GAMMA2, ISO, EquationOfState.isentropic(1.4)])
    def test_finite_difference_chain(self, eos):
        # each derivative matches a centred difference of the one below, order >= 2
        rho = 1.7
        chain = [
            (eos.potential, lambda r: eos.potential_derivatives(r)[0]),
            (lambda r: eos.potential_derivatives(r)[0], lambda r: eos.potential_derivatives(r)[1]),
            (lambda r: eos.potential_derivatives(r)[1], lambda r: eos.potential_derivatives(r)[2]),
        ]
        for f, df in chain:
            errs = []
            for h in (1e-2, 5e-3):
                fd = (f(rho + h) - f(rho - h)) / (2.0 * h)
                errs.append(abs(fd - df(rho)))
            if errs[0] < 1e-12:
                continue  # centred differences are exact on low-degree polynomials
            order = np.log(errs[0] / errs[1]) / np.log(2.0)
            assert order > 1.8

    def test_hyperbolicity_v2_positive(self):
        rho = np.geomspace(0.1, 10.0, 50)
        laws = [EquationOfState.isentropic(g) for g in (0.5, 1.4, 2.0, 3.0)] + [ISO]
        for eos in laws:
            assert np.all(eos.potential_derivatives(rho)[1] > 0.0)


class TestSoundSpeed:
    def test_gamma2_reference(self):
        assert GAMMA2.sound_speed(1.0) == pytest.approx(1.0, rel=1e-14)
        h = 1e-6
        fd = (GAMMA2.pressure(1.0 + h) - GAMMA2.pressure(1.0 - h)) / (2.0 * h)
        assert GAMMA2.sound_speed(1.0) == pytest.approx(np.sqrt(fd), rel=1e-9)

    def test_isothermal_constant(self):
        speeds = ISO.sound_speed(np.array([0.01, 0.5, 1.0, 7.0, 100.0]))
        assert np.all(speeds == speeds[0])
        assert speeds[0] == pytest.approx(1.0, rel=1e-14)

    def test_shallow_water(self, sw_eos):
        assert sw_eos.sound_speed(4.0) == pytest.approx(2.0, rel=1e-14)

    def test_equals_sqrt_rho_v2(self):
        rho = np.geomspace(0.2, 5.0, 20)
        for eos in (GAMMA2, ISO):
            _, v2, _ = eos.potential_derivatives(rho)
            assert np.allclose(eos.sound_speed(rho), np.sqrt(rho * v2), rtol=1e-13)


def test_gamma_to_one_continuity():
    near = EquationOfState.isentropic(1.0 + 1e-6, 1.0, 1.0)
    rho = np.geomspace(0.2, 5.0, 40)
    assert np.allclose(near.enthalpy(rho), ISO.enthalpy(rho), rtol=1e-4)


def test_constructor_validation():
    with pytest.raises(DomainError):
        EquationOfState.isentropic(1.0)
    with pytest.raises(DomainError):
        EquationOfState.isentropic(-2.0)
    with pytest.raises(DomainError):
        EquationOfState.isentropic(2.0, rho_bar=0.0)
    with pytest.raises(DomainError):
        EquationOfState.shallow_water(-1.0)
    inf, nan = float("inf"), float("nan")
    for gamma, rho_bar, p_bar in ((nan, 1.0, 1.0), (inf, 1.0, 1.0), (2.0, nan, 1.0),
                                  (2.0, inf, 1.0), (2.0, 1.0, nan), (2.0, 1.0, inf)):
        with pytest.raises(DomainError):
            EquationOfState.isentropic(gamma, rho_bar, p_bar)
    for g, rho_bar in ((nan, 1.0), (inf, 1.0), (1.0, nan), (1.0, 0.0)):
        with pytest.raises(DomainError):
            EquationOfState.shallow_water(g, rho_bar)
    with pytest.raises(DomainError):
        EquationOfState.isothermal(inf, 1.0)
    # one error names every broken rule
    with pytest.raises(DomainError, match="rho_bar.*p_bar.*gamma must be > 0"):
        EquationOfState.isentropic(nan, rho_bar=-1.0, p_bar=inf)
    with pytest.raises(DomainError, match="g must be > 0.*rho_bar"):
        EquationOfState.shallow_water(inf, nan)
