import numpy as np
import pytest
import sympy as sp

from barolab import DomainError, EquationOfState, Regularizer, composite_coefficients


class TestDerivatives:
    def test_cubic_at_two(self):
        a, da, d2a, d3a = Regularizer.cubic(0.1).derivatives(2.0)
        assert (a, da, d2a, d3a) == (pytest.approx(4.0 / 3.0), 2.0, 2.0, 1.0)

    def test_inverse_at_two(self):
        a, da, d2a, d3a = Regularizer.inverse(0.1, 1.0, 1.0).derivatives(2.0)
        assert (a, da, d2a, d3a) == (-0.5, 0.25, -0.25, 0.375)

    def test_power_three_at_one(self):
        a, da, d2a, d3a = Regularizer.power(0.1, 3.0).derivatives(1.0)
        assert (a, da, d2a, d3a) == (pytest.approx(1.0 / 3.0), 1.0, 2.0, 2.0)

    @pytest.mark.parametrize("reg", [
        Regularizer.cubic(0.2),
        Regularizer.inverse(0.2, 1.7, 1.3),
        Regularizer.power(0.2, 2.5),
        Regularizer.power(0.2, -1.5),
        Regularizer.power(0.2, 0.5),
    ])
    def test_finite_difference_chain(self, reg):
        rho = 1.4
        for lo, hi in ((0, 1), (1, 2), (2, 3)):
            errs = []
            for h in (1e-2, 5e-3):
                fd = (reg.derivatives(rho + h)[lo] - reg.derivatives(rho - h)[lo]) / (2 * h)
                errs.append(abs(fd - float(reg.derivatives(rho)[hi])))
            if errs[0] < 1e-12:
                continue  # exact on low-degree polynomials
            assert np.log(errs[0] / errs[1]) / np.log(2.0) > 1.8

    def test_slope_positive_everywhere(self):
        rho = np.geomspace(0.05, 50.0, 200)
        for reg in (Regularizer.cubic(0.0), Regularizer.inverse(1.0, 2.0, 0.5),
                    Regularizer.power(1.0, -2.0), Regularizer.power(1.0, 0.5)):
            assert np.all(reg.slope(rho) > 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            Regularizer.cubic(-0.1)
        with pytest.raises(DomainError):
            Regularizer.inverse(0.1, -1.0)
        with pytest.raises(DomainError):
            Regularizer.power(0.1, 0.0)
        with pytest.raises(DomainError):
            Regularizer.cubic(0.1).derivatives(-1.0)
        inf, nan = float("inf"), float("nan")
        for bad in (lambda: Regularizer.cubic(nan), lambda: Regularizer.cubic(inf),
                    lambda: Regularizer.inverse(0.1, nan), lambda: Regularizer.inverse(0.1, inf),
                    lambda: Regularizer.inverse(0.1, 1.0, rho_bar=nan),
                    lambda: Regularizer.power(0.1, nan), lambda: Regularizer.power(0.1, inf)):
            with pytest.raises(DomainError):
                bad()
        # one error names every broken rule
        with pytest.raises(DomainError, match="epsilon must be >= 0.*a must be > 0"):
            Regularizer.inverse(-1.0, nan)


class TestCompositeCoefficients:
    def test_cubic_shallow_water_at_one(self):
        eos = EquationOfState.shallow_water(1.0)
        c_u, c_rho = composite_coefficients(Regularizer.cubic(0.1), eos, 1.0)
        assert c_u == pytest.approx(2.0, rel=1e-14)
        assert c_rho == pytest.approx(-0.5, rel=1e-14)

    def test_reproduces_saint_venant_coefficients(self):
        # cubic + shallow water must give exactly 2 rho^3 and -g rho^2 / 2
        g = 9.81
        eos = EquationOfState.shallow_water(g, rho_bar=1.0)
        reg = Regularizer.cubic(0.3)
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.2, 4.0, size=20)
        c_u, c_rho = composite_coefficients(reg, eos, rho)
        assert np.allclose(c_u, 2.0 * rho**3, rtol=1e-13)
        assert np.allclose(c_rho, -0.5 * g * rho**2, rtol=1e-13)

    def test_against_symbolic_oracle(self):
        # generic family/law pair checked against sympy differentiation
        gamma, p_bar, rho_bar, p_exp = 1.4, 0.8, 1.2, 1.7
        eos = EquationOfState.isentropic(gamma, rho_bar, p_bar)
        reg = Regularizer.power(0.1, p_exp)
        r = sp.symbols("rho", positive=True)
        a_expr = r**p_exp / p_exp
        v2_expr = sp.diff(p_bar * (r / rho_bar) ** gamma, r) / r
        c_u_expr = sp.diff(r**2 * sp.diff(a_expr, r), r)
        c_rho_expr = sp.diff(r * v2_expr / sp.diff(a_expr, r), r) * sp.diff(a_expr, r) ** 2
        for rho in (0.5, 1.0, 1.9, 3.3):
            c_u, c_rho = composite_coefficients(reg, eos, rho)
            assert c_u == pytest.approx(float(c_u_expr.subs(r, rho)), rel=1e-12)
            assert c_rho == pytest.approx(float(c_rho_expr.subs(r, rho)), rel=1e-12)
