import importlib.machinery
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import barolab as bl
from barolab import (
    DomainError,
    Grid,
    NumericalBreakdownError,
    Regularizer,
    SLSystem,
    VacuumError,
    exp_kernel,
    inverse_family_flux,
    sturm_liouville,
)
from barolab.regularizer import composite_coefficients
from barolab.sturm_liouville import RESIDUAL_TOL
from conftest import NegatedRegularizer, child_env, observed_order

UNIT_SLOPE = Regularizer.power(0.5, 1.0)  # A = rho, A' = 1; eps = 1/2 makes L = rho - d2


def unit_grid(topology, n):
    """``n`` nodes on ``[0, 1)``, periodic or as a line with far-field closure."""
    return Grid.periodic(1.0, n) if topology == "periodic" else Grid.line(0.0, 1.0, n)


def smooth_random_field(grid, rng, modes=8, amp=1.0):
    coeff = np.zeros(grid.n, dtype=complex)
    m = np.arange(1, modes + 1)
    coeff[m] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    f = np.real(np.fft.ifft(coeff)) * grid.n / modes
    return amp * f / max(1.0, np.max(np.abs(f)))


class TestAssembleApply:
    def test_constant_coefficient_rows(self):
        # rho = 1, A' = 1, eps = 1/2: rows equal the discrete (1 - d^2/dx^2)
        g = Grid.periodic(2 * np.pi, 64)
        sys = SLSystem(g, np.ones(64), UNIT_SLOPE)
        u = np.sin(3 * g.x)
        manual = u - (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / g.dx**2
        assert np.allclose(sys.apply(u), manual, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("topology", ["periodic", "line"])
    def test_matrix_symmetry_random_rho(self, cubic_reg, topology):
        rng = np.random.default_rng(11)
        n = 48
        g = unit_grid(topology, n)
        rho = 1.25 + 0.75 * np.sin(2 * np.pi * g.x + rng.uniform(0, 2 * np.pi))
        sys = SLSystem(g, rho, cubic_reg)
        # zero ghosts on a line grid, so each column is the matrix column alone
        M = np.column_stack([sys.apply(col, far=(0.0, 0.0)) for col in np.eye(n)])
        assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))

    def test_eps_zero_is_diagonal(self, sw_eos):
        g = Grid.periodic(1.0, 32)
        rho = 1.0 + 0.3 * np.cos(2 * np.pi * g.x)
        sys = SLSystem(g, rho, Regularizer.cubic(0.0))
        u = np.sin(4 * np.pi * g.x)
        assert np.array_equal(sys.apply(u), rho * u)

    def test_constant_u(self, cubic_reg):
        g = Grid.periodic(1.0, 32)
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * g.x)
        sys = SLSystem(g, rho, cubic_reg)
        assert np.allclose(sys.apply(np.full(32, 2.0)), 2.0 * rho, rtol=1e-13)

    def test_cosine_eigenvector_symbol(self):
        g = Grid.periodic(2 * np.pi, 128)
        sys = SLSystem(g, np.ones(128), UNIT_SLOPE)
        k = 5
        u = np.cos(k * g.x)
        eig = 1.0 + 2 * 0.5 * (2 - 2 * np.cos(k * g.dx)) / g.dx**2
        assert np.allclose(sys.apply(u), eig * u, atol=1e-12 * eig)

    def test_vacuum_rejected(self, cubic_reg):
        g = Grid.periodic(1.0, 32)
        with pytest.raises(VacuumError):
            SLSystem(g, np.linspace(-0.1, 1.0, 32), cubic_reg)


class TestSolve:
    def test_solve_rho_gives_one(self, cubic_reg):
        g = Grid.periodic(1.0, 128)
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * g.x)
        assert np.allclose(SLSystem(g, rho, cubic_reg).solve(rho), 1.0, atol=1e-12)

    def test_constant_coefficient_inverse_convergence(self):
        errs = []
        for n in (64, 128, 256, 512):
            g = Grid.periodic(2 * np.pi, n)
            sys = SLSystem(g, np.ones(n), UNIT_SLOPE)
            u = sys.solve(np.cos(g.x))
            errs.append(np.max(np.abs(u - 0.5 * np.cos(g.x))))
        assert observed_order(errs) == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("topology", ["periodic", "line"])
    def test_round_trip(self, cubic_reg, topology):
        rng = np.random.default_rng(5)
        g = unit_grid(topology, 200)
        far = None if g.is_periodic else (0.3, -0.2)
        rho = 1.3 + 0.9 * np.sin(2 * np.pi * g.x)
        sys = SLSystem(g, rho, cubic_reg)
        for _ in range(5):
            f = smooth_random_field(g, rng)
            u = sys.solve(f, far=far)
            assert np.max(np.abs(sys.apply(u, far=far) - f)) <= 1e-10 * np.max(np.abs(f))

    @settings(max_examples=40, deadline=None)
    @given(topology=st.sampled_from(["periodic", "line"]), log2_n=st.floats(3.0, 12.0),
           log_eps=st.floats(-6.0, 1.0), contrast=st.floats(1.0, 1e3),
           seed=st.integers(0, 2**32 - 1))
    def test_symmetric_backward_stable_maximum_principle(self, topology, log2_n, log_eps,
                                                         contrast, seed):
        rng = np.random.default_rng(seed)
        n = int(2.0**log2_n)  # 8 to 4096 cells, spread evenly over the octaves
        g = unit_grid(topology, n)
        rho = contrast ** rng.random(n)  # rough density, max/min <= contrast
        reg = Regularizer.cubic(10.0**log_eps)
        sys = SLSystem(g, rho, reg)
        # |L|, the largest absolute row sum rho + 2c (k_{i+1/2} + k_{i-1/2}) with
        # c = 2 eps/dx^2, from kappa = rho A' and the grid's ghosts, not the operator
        kappa = g._pad(rho * reg.derivatives(rho)[1])
        k = 0.5 * (kappa[1:] + kappa[:-1])
        norm = np.max(rho + 4.0 * reg.epsilon / g.dx**2 * (k[1:] + k[:-1]))
        x, y, f = rng.standard_normal((3, n))
        zero = (0.0, 0.0)  # zero line ghosts: apply is then the plain matrix product
        asym = abs(x @ sys.apply(y, far=zero) - y @ sys.apply(x, far=zero))
        assert asym <= 4 * n * np.finfo(float).eps * norm * np.linalg.norm(x) * np.linalg.norm(y)
        u = sys.solve(f, far=zero)
        residual = np.max(np.abs(sys.apply(u, far=zero) - f))
        assert residual <= RESIDUAL_TOL * (norm * np.max(np.abs(u)) + np.max(np.abs(f)))
        assert np.max(np.abs(u)) <= np.max(np.abs(f)) / np.min(rho) * (1 + 1e-12)

    def test_guard_catches_a_degraded_factorization(self, cubic_reg):
        g = Grid.periodic(1.0, 200)
        sys = SLSystem(g, 1.3 + 0.9 * np.sin(2 * np.pi * g.x), cubic_reg)
        sys._d = 1.0201 * sys._d  # factors 1.0201 L instead of L
        with pytest.raises(NumericalBreakdownError):
            sys.solve(np.cos(2 * np.pi * g.x))

    @pytest.mark.parametrize("case", ["solve_nan", "solve_inf", "rhs_overflowing_velocity"])
    def test_non_finite_data_fails_the_guard(self, sw_eos, cubic_reg, case):
        g = Grid.periodic(1.0, 64)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
        bad = np.cos(2 * np.pi * g.x)
        # Inf - Inf in the residual is the point, and so is the overflow of u_x^2
        with pytest.raises(NumericalBreakdownError, match="solve residual"), \
                np.errstate(over="ignore", invalid="ignore"):
            if case == "rhs_overflowing_velocity":
                # a finite velocity (a State cannot hold an Inf one) whose squared
                # gradient overflows inside the source
                bl.rhs(bl.State(0.0, rho, 1e160 * bad, g), cubic_reg, sw_eos)
            else:
                bad[7] = np.nan if case == "solve_nan" else np.inf
                SLSystem(g, rho, cubic_reg).solve(bad)

    def test_indefinite_operator_fails_the_factorization(self, cubic_reg):
        # A' < 0 makes T indefinite; the sign-flip wrapper of the gHS tests
        g = Grid.periodic(1.0, 64)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
        with pytest.raises(NumericalBreakdownError, match="factorization"):
            SLSystem(g, rho, NegatedRegularizer(cubic_reg))

    def test_maximum_principle(self, cubic_reg):
        rng = np.random.default_rng(17)
        g = Grid.periodic(1.0, 128)
        for _ in range(100):
            rho = 1.0 + rng.uniform(-0.7, 2.0) * 0.4 + 0.3 * smooth_random_field(g, rng)
            rho = np.maximum(rho, 0.1)
            sys = SLSystem(g, rho, cubic_reg)
            f = smooth_random_field(g, rng, amp=rng.uniform(0.1, 5.0))
            u = sys.solve(f)
            assert np.max(np.abs(u)) <= np.max(np.abs(f)) / np.min(rho) * (1 + 1e-12)

    def test_spd_random_fields(self, cubic_reg):
        rng = np.random.default_rng(23)
        g = Grid.periodic(1.0, 64)
        for _ in range(100):
            rho = np.exp(0.8 * smooth_random_field(g, rng))
            sys = SLSystem(g, rho, cubic_reg)  # the factorization fails if not SPD
            u = rng.standard_normal(g.n)
            assert float(u @ sys.apply(u)) > 0.0

    def test_line_topology_constant_far_field(self, cubic_reg):
        g = Grid.line(-10.0, 10.0, 256, rho_far=(1.0, 1.0))
        rho = 1.0 + 0.5 * np.exp(-g.x**2)
        sys = SLSystem(g, rho, cubic_reg)
        u = sys.solve(3.0 * rho)
        assert np.allclose(u, 3.0, atol=1e-11)


class TestSolveDx:
    def test_constant_psi_gives_zero(self, cubic_reg):
        g = Grid.periodic(1.0, 64)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
        out = SLSystem(g, rho, cubic_reg).solve_dx(np.full(64, 5.0))
        assert np.max(np.abs(out)) <= 1e-14

    def test_fourier_symbol(self):
        # constant coefficients: psi = sin(kx) -> k cos(kx) / (rho (1 + 2 eps A' k^2))
        k, eps = 3, 0.2
        reg = Regularizer.power(eps, 1.0)
        errs = []
        for n in (128, 256, 512):
            g = Grid.periodic(2 * np.pi, n)
            sys = SLSystem(g, np.ones(n), reg)
            out = sys.solve_dx(np.sin(k * g.x))
            want = k * np.cos(k * g.x) / (1.0 + 2 * eps * k**2)
            errs.append(np.max(np.abs(out - want)))
        assert observed_order(errs) == pytest.approx(2.0, abs=0.25)

    def test_sup_norm_bounded_on_bump_family(self, cubic_reg, sw_eos):
        # the smoothing map stays bounded by ||psi||_inf + ||psi||_L1 uniformly
        # over bump widths, even as the bumps steepen
        g = Grid.line(-20.0, 20.0, 2048, rho_far=(1.0, 1.0))
        rho = 1.0 + 0.2 * np.exp(-g.x**2)
        sys = SLSystem(g, rho, cubic_reg)
        ratios = []
        for width in (0.05, 0.2, 1.0, 4.0):
            psi = np.exp(-((g.x / width) ** 2))
            out = sys.solve_dx(psi)
            bound = np.max(np.abs(psi)) + g.integrate(np.abs(psi), far=(0.0, 0.0))
            ratios.append(np.max(np.abs(out)) / bound)
        assert max(ratios) < 5.0


class TestSmooth:
    def test_eps_zero_identity(self, sw_eos):
        g = Grid.periodic(1.0, 32)
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * g.x)
        psi = np.cos(4 * np.pi * g.x)
        out = SLSystem(g, rho, Regularizer.cubic(0.0)).smooth(psi)
        assert np.array_equal(out, psi)

    def test_fixes_constants(self, cubic_reg):
        g = Grid.periodic(1.0, 64)
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * g.x)
        out = SLSystem(g, rho, cubic_reg).smooth(np.full(64, 2.5))
        assert np.allclose(out, 2.5, atol=1e-12)

    def test_annihilates_high_frequencies(self):
        # on resolved modes the output shrinks toward zero like the continuum
        # factor 1/(1 + 2 eps A' k^2); the exact discrete symbol of the
        # centred-difference composition is (1 + 2 eps s_L sin^2(kh/2))/(1 + 2 eps s_L)
        # with s_L = 2(1 - cos kh)/h^2
        eps = 0.5
        reg = Regularizer.power(eps, 1.0)
        g = Grid.periodic(2 * np.pi, 4096)
        sys = SLSystem(g, np.ones(g.n), reg)
        h = g.dx
        norms = []
        for k in (4, 16, 64):
            out = np.max(np.abs(sys.smooth(np.cos(k * g.x))))
            s_l = 2 * (1 - np.cos(k * h)) / h**2
            discrete = (1 + 2 * eps * s_l * np.sin(k * h / 2) ** 2) / (1 + 2 * eps * s_l)
            assert out == pytest.approx(discrete, rel=1e-9)
            assert out <= 1.05 * (1.0 / (1.0 + 2 * eps * k**2) + np.sin(k * h / 2) ** 2)
            norms.append(out)
        assert norms[0] > norms[1] > norms[2]


class TestInverseFamilyConvolution:
    def test_kernel_normalization_by_quadrature(self):
        width = np.sqrt(2 * 0.05 * 1.0 * 1.0)
        val, _ = quad(lambda s: exp_kernel(s, width), -40 * width, 40 * width, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_kernel_width_must_be_positive(self):
        with pytest.raises(DomainError, match="width"):
            exp_kernel(np.linspace(-1.0, 1.0, 5), 0.0)

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_kernel_width_must_be_finite(self, width):
        with pytest.raises(DomainError, match="width"):
            exp_kernel(np.linspace(-1.0, 1.0, 5), width)

    def test_constant_density_gives_zero(self, sw_eos):
        reg = Regularizer.inverse(0.05, 1.0, 1.0)
        out = inverse_family_flux(np.full(512, 1.3), 0.01, sw_eos, reg)
        assert np.max(np.abs(out)) == 0.0

    def test_wrong_family_rejected(self, sw_eos, cubic_reg):
        with pytest.raises(DomainError):
            inverse_family_flux(np.ones(64), 0.1, sw_eos, cubic_reg)

    def test_zero_epsilon_rejected(self, sw_eos):
        with pytest.raises(DomainError, match="epsilon > 0"):
            inverse_family_flux(np.ones(64), 0.1, sw_eos, Regularizer.inverse(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("dxi", [0.0, -0.1, np.nan])
    def test_bad_spacing_rejected(self, sw_eos, dxi):
        with pytest.raises(DomainError):
            inverse_family_flux(np.ones(64), dxi, sw_eos, Regularizer.inverse(0.05, 1.0, 1.0))

    def test_agrees_with_operator_path(self, sw_eos):
        # same quantity via the x-space operator and via the mass-coordinate
        # convolution; two independent code paths
        reg = Regularizer.inverse(0.05, 1.0, 1.0)
        n = 2048
        g = Grid.line(-20.0, 20.0, n, rho_far=(1.0, 1.0))
        rho = 1.0 + 0.4 * np.exp(-g.x**2)
        c_u, c_rho = composite_coefficients(reg, sw_eos, rho)
        assert np.max(np.abs(c_u)) < 1e-14  # (rho^2 A')' vanishes identically here
        psi = c_rho * g.ddx(rho, far=(1.0, 1.0)) ** 2
        via_operator = SLSystem(g, rho, reg).smooth(psi)
        xi = g.antiderivative(rho)
        dxi = (xi[-1] - xi[0]) / (n - 1)
        xi_uniform = xi[0] + dxi * np.arange(n)
        via_kernel = np.interp(xi, xi_uniform,
                               inverse_family_flux(np.interp(xi_uniform, xi, rho),
                                                   dxi, sw_eos, reg))
        scale = np.max(np.abs(via_operator))
        assert np.max(np.abs(via_operator - via_kernel)) <= 1e-2 * scale


# run in a fresh interpreter, after the imports that each test puts first
KERNEL_PROBE = """
import sys
import numpy as np
import barolab as bl
from barolab import sturm_liouville as sl

g = bl.Grid.periodic(1.0, 16)
system = bl.SLSystem(g, 1.0 + 0.5 * np.sin(2 * np.pi * g.x), bl.Regularizer.cubic(0.1))
flapack = system._lapack  # what the first factorization loaded, or found loaded
# imported after the factorization, so that after "import barolab" barolab loads it first
from scipy.linalg import lapack

# one instance of the extension, and barolab's kernels are its own
assert sl._load_flapack() is flapack
assert [k for k, m in sys.modules.items() if m is flapack] == [sl.FLAPACK]
assert lapack._flapack is flapack
assert lapack.dpttrf is flapack.dpttrf and lapack.dpttrs is flapack.dpttrs

rng = np.random.default_rng(5)
d = 2.0 + rng.random(200)
e = rng.random(199) - 0.5  # diagonally dominant, so SPD
b = rng.standard_normal((200, 3))
ours, theirs = flapack.dpttrf(d.copy(), e.copy()), lapack.dpttrf(d.copy(), e.copy())
assert ours[2] == theirs[2] == 0
assert all(x.tobytes() == y.tobytes() for x, y in zip(ours[:2], theirs[:2]))
x = flapack.dpttrs(*ours[:2], b)[0]
assert x.tobytes() == lapack.dpttrs(*theirs[:2], b)[0].tobytes()
assert np.allclose((np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) @ x, b)

d[57] = -1.0  # the leading minor of order 58 is not positive
assert flapack.dpttrf(d.copy(), e.copy())[2] == lapack.dpttrf(d.copy(), e.copy())[2] == 58
"""


class TestLapackKernels:
    @pytest.mark.parametrize("first", ["import barolab", "import scipy.linalg.lapack"])
    def test_kernels_are_scipys_in_either_import_order(self, tmp_path, first):
        result = subprocess.run([sys.executable, "-c", first + "\n" + KERNEL_PROBE],
                                capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert result.returncode == 0, result.stderr

    def test_missing_extension_names_the_directory_searched(self, monkeypatch):
        # the extension is located at import, loaded or not, so a SciPy without it fails there
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            staticmethod(lambda name, path=None, target=None: None))
        with pytest.raises(ImportError, match=r"_flapack extension in \[.*linalg'\]") as err:
            sturm_liouville._locate_flapack()
        assert err.value.name == sturm_liouville.FLAPACK
