import numpy as np
import pytest
from scipy.integrate import quad

from barolab import BoundaryContaminationWarning, DomainError, Grid
from conftest import observed_order


class TestDdx:
    def test_constant_gives_zero(self):
        g = Grid.periodic(2.0, 64)
        assert np.all(g.ddx(np.full(64, 3.7)) == 0.0)

    def test_sine_refinement_order(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid.periodic(3.0, n)
            k = 2 * np.pi / 3.0
            err = np.max(np.abs(g.ddx(np.sin(k * g.x)) - k * np.cos(k * g.x)))
            errs.append(err)
        assert observed_order(errs) == pytest.approx(2.0, abs=0.2)

    def test_linear_ramp_exact_on_line(self):
        g = Grid.line(-1.0, 1.0, 32)
        f = 2.5 * g.x + 0.3
        interior = g.ddx(f)[1:-1]
        assert np.allclose(interior, 2.5, rtol=0, atol=1e-13)

    def test_line_far_field_ghosts(self):
        g = Grid.line(0.0, 1.0, 16, rho_far=(2.0, 2.0))
        f = np.full(16, 2.0)
        assert np.all(g.ddx(f, far=(2.0, 2.0)) == 0.0)
        # edge derivative feels an imposed mismatched ghost
        d = g.ddx(f, far=(0.0, 2.0))
        assert d[0] == pytest.approx((f[1] - 0.0) / (2 * g.dx))


class TestIntegrate:
    def test_constant_periodic(self):
        g = Grid.periodic(4.0, 32)
        assert g.integrate(np.full(32, 1.5)) == pytest.approx(6.0, rel=1e-14)

    def test_sin_squared(self):
        g = Grid.periodic(5.0, 128)
        f = np.sin(2 * np.pi * g.x / 5.0) ** 2
        assert g.integrate(f) == pytest.approx(2.5, abs=1e-12)

    def test_compact_bump_matches_quadrature(self):
        g = Grid.line(-8.0, 8.0, 4096)
        f = np.exp(-g.x**2) * (1 + 0.5 * np.cos(g.x))
        want, _ = quad(lambda x: np.exp(-x * x) * (1 + 0.5 * np.cos(x)), -8, 8, epsabs=1e-13)
        assert g.integrate(f, far=(0.0, 0.0)) == pytest.approx(want, abs=1e-8)

    def test_deviation_from_far_field(self):
        g = Grid.line(-4.0, 4.0, 1024)
        f = 2.0 + np.exp(-g.x**2)
        assert g.integrate(f, far=(2.0, 2.0)) == pytest.approx(np.sqrt(np.pi), rel=1e-6)

    def test_split_far_values(self):
        g = Grid.line(-4.0, 4.0, 1024)
        f = np.where(g.x < 0, 1.0, 3.0).astype(float)
        assert g.integrate(f, far=(1.0, 3.0)) == pytest.approx(0.0, abs=1e-12)


class TestAntiderivative:
    def test_zero_field(self):
        g = Grid.periodic(1.0, 32)
        assert np.all(g.antiderivative(np.zeros(32)) == 0.0)

    def test_constant_one_gives_ramp(self):
        g = Grid.periodic(1.0, 64)
        F = g.antiderivative(np.ones(64))
        assert np.allclose(F, g.x, atol=1e-14)

    def test_cosine_refinement(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid.periodic(1.0, n)
            F = g.antiderivative(np.cos(2 * np.pi * g.x))
            errs.append(np.max(np.abs(F - np.sin(2 * np.pi * g.x) / (2 * np.pi))))
        assert observed_order(errs) == pytest.approx(2.0, abs=0.2)

    def test_anchor_at_the_first_node_on_line(self):
        g = Grid.line(-1.0, 1.0, 64)
        F = g.antiderivative(np.ones(64))
        assert F[0] == 0.0
        assert np.allclose(F, g.x - g.x[0], atol=1e-13)


class TestDiscreteCalculusIdentities:
    def test_divergence_theorem(self):
        g = Grid.periodic(2.0, 128)
        rng = np.random.default_rng(3)
        f = np.real(np.fft.ifft(np.fft.fft(rng.standard_normal(128)) *
                                (np.arange(128) < 10)))
        assert g.integrate(g.ddx(f)) == pytest.approx(0.0, abs=1e-13)

    def test_antiderivative_of_ddx_is_identity_up_to_constant(self):
        errs = []
        for n in (128, 256, 512):
            g = Grid.periodic(1.0, n)
            f = np.exp(np.sin(2 * np.pi * g.x))
            back = g.antiderivative(g.ddx(f))
            diff = back - f
            errs.append(np.max(diff) - np.min(diff))
        assert observed_order(errs) == pytest.approx(2.0, abs=0.3)


def test_boundary_contamination_warning():
    import warnings

    g = Grid.line(-2.0, 2.0, 100, rho_far=(1.0, 1.0))
    clean = 1.0 + np.exp(-(g.x * 8) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryContaminationWarning)
        g.check_boundary(clean, (1.0, 1.0))
    dirty = 1.0 + 1e-4 * np.cosh(g.x)
    with pytest.warns(BoundaryContaminationWarning):
        g.check_boundary(dirty, (1.0, 1.0))


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid.periodic(1.0, 4)
    with pytest.raises(DomainError):
        Grid.periodic(-1.0, 64)
    with pytest.raises(DomainError):
        Grid.line(1.0, 0.0, 64)
    inf, nan = float("inf"), float("nan")
    for length in (nan, inf):
        with pytest.raises(DomainError):
            Grid.periodic(length, 64)
    for x_min, x_max in ((-inf, 1.0), (0.0, inf), (nan, 1.0), (0.0, nan)):
        with pytest.raises(DomainError):
            Grid.line(x_min, x_max, 64)
    for rho_far in ((nan, 1.0), (1.0, inf), (-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(DomainError):
            Grid.line(0.0, 1.0, 64, rho_far=rho_far)
    for u_far in ((nan, 0.0), (0.0, -inf)):
        with pytest.raises(DomainError):
            Grid.line(0.0, 1.0, 64, u_far=u_far)
    # one error names every broken rule, and n = 0 is a domain error too
    with pytest.raises(DomainError, match="n must be >= 8.*length"):
        Grid.periodic(-1.0, 0)
    with pytest.raises(DomainError, match="x_max.*rho_left.*u_left"):
        Grid.line(0.0, -1.0, 64, rho_far=(nan, 1.0), u_far=(inf, 0.0))
    # the bare constructor names an unknown topology and a line without far-field pairs
    with pytest.raises(DomainError, match="topology must be periodic or line"):
        Grid("torus", 16, 0.1, 0.0)
    with pytest.raises(DomainError, match="rho_left.*u_left"):
        Grid("line", 16, 0.1, 0.0)


@pytest.mark.parametrize("build, rule", [
    (lambda: Grid.periodic(1e-300, 16), "length must"),      # dx**2 underflows to 0
    (lambda: Grid.periodic(1e300, 8), "length must"),        # dx**2 overflows
    (lambda: Grid.line(-1e300, 1e300, 8), "x_min and x_max must"),
    (lambda: Grid.line(0.0, -0.1, 8), "x_min and x_max must"),
], ids=["underflow", "overflow", "line_overflow", "negative"])
def test_spacing_squared_must_be_a_positive_finite_double(build, rule):
    # the Sturm-Liouville operator divides by dx**2
    with pytest.raises(DomainError, match=rule):
        build()


def test_spacing_whose_square_is_a_double_is_accepted():
    assert Grid.periodic(1.6e-149, 16).dx ** 2 > 0.0
    assert Grid.line(-1e150, 1e150, 8).dx ** 2 < float("inf")
