"""The Sturm-Liouville operator ``L = rho - 2 eps d/dx (rho A' d/dx .)`` and friends.

The operator is discretized in flux form with arithmetic-mean half-node
coefficients, which keeps the matrix symmetric (the discrete analogue of the
self-adjointness that makes the operator coercive for positive ``rho``):

    (L u)_i = rho_i u_i - (2 eps / dx^2) * (k_{i+1/2} (u_{i+1} - u_i)
                                            - k_{i-1/2} (u_i - u_{i-1}))

with ``k = rho * A'``, whose face values come from the grid's ghosts of ``k``.
Periodic grids give a cyclic tridiagonal system solved directly through a
rank-1 (Sherman-Morrison) correction of LAPACK's tridiagonal ``L D L^T``
factorization (``dpttrf``/``dpttrs``); line grids are the same system with a
zero corner, closed with the far-field constants as Dirichlet ghost data.
Every solve checks its normwise backward error
``|L u - f| <= RESIDUAL_TOL (|L| |u| + |f|)`` in the infinity norm (Higham,
*Accuracy and Stability of Numerical Algorithms*, section 7.1), with ``|L|``
the largest row sum ``rho + 2c (k_{i+1/2} + k_{i-1/2})``, ``c = 2 eps/dx^2``.
The bound grows with ``|L| ~ 1/dx^2`` as a backward-stable solve's residual
does, so it holds on fine grids and still catches a factorization that
silently degraded, or a NaN or Inf in the data.

The two kernels are the Fortran wrappers that ``scipy.linalg.lapack`` re-exports,
taken from SciPy's compiled extension ``scipy.linalg._flapack`` alone.  Importing them
from ``scipy.linalg.lapack`` would run the whole ``scipy.linalg`` package import,
which pulls in ``numpy.f2py``, ``numpy.testing`` and more.  The extension is located
when this module is imported (:func:`_locate_flapack`, so a SciPy without it fails
there) and loaded when an operator is first factorized (:func:`_load_flapack`), so a
process that never factors one (a Hunter-Saxton run, ``barolab validate``) never
loads LAPACK or the OpenBLAS it links.  The functions, and so the bits, are the same.

``SLSystem(grid, rho, reg)`` applies the density rule once, takes ``A'`` from
the regularizer's unchecked kernel ``_slopes``, and hands ``kappa`` to the private
assembly; the right-hand side of :mod:`barolab.euler`, whose stage density is
already checked, reaches the same assembly with the ``kappa`` it has derived,
so there is one assembly path and every solve runs the full backward-error guard.

That path factors in place (``dpttrf`` and ``dpttrs`` with their overwrite
flags) in the buffers that :func:`_buffers` lists, and the guard forms its
residual there too.  Assembly reads ``kappa``, and ``apply`` its vector, in place,
with the grid's ghost values past the edges, so no padded copy is made.  A public
``SLSystem(...)`` owns its buffers and shares none; only the operator of a stage
works in buffers it shares, those of the stage workspace of :mod:`barolab.euler`,
and it lives only as long as that stage.  No buffer escapes a call: ``solve``,
``solve_dx`` and ``apply`` return a fresh array owned by the caller unless the
caller passes ``out``.

Three derived operations are provided on top of the inverse:

* ``solve(f)``            the inverse itself,
* ``solve_dx(psi)``       the inverse applied to ``d psi/dx`` (the smoothing
                          map used by the momentum equation),
* ``smooth(psi)``         ``psi + 2 eps rho A' d/dx solve_dx(psi)``, the flux
                          form of the regularizing term; it fixes constants
                          and annihilates high frequencies.

For the inverse regularizer family the smoothing map collapses, in
mass-Lagrangian coordinates, to a convolution against an exponential kernel;
:func:`inverse_family_flux` computes that independent realization.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .eos import _check_density
from .errors import DomainError, NumericalBreakdownError
from .grid import LINE, Grid
from .regularizer import INVERSE

RESIDUAL_TOL = 1e-10
KERNEL_TRUNCATION = 40.0  # e-folding widths; exp(-40) is below double noise
FLAPACK = "scipy.linalg._flapack"


def _locate_flapack():
    """The import spec of SciPy's compiled LAPACK wrappers, the extension module :data:`FLAPACK`.

    It is looked for in SciPy's ``linalg`` directory without running ``scipy/__init__``
    or ``scipy/linalg/__init__``; ImportError, naming the directories searched, if it
    is not there.
    """
    scipy = importlib.util.find_spec("scipy")  # finds the package without running it
    roots = scipy.submodule_search_locations if scipy else ()
    linalg = [os.path.join(root, "linalg") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(FLAPACK, linalg)
    if spec is None:
        raise ImportError(f"no {FLAPACK} extension in {linalg or 'any scipy package'}",
                          name=FLAPACK)
    return spec


_FLAPACK_SPEC = _locate_flapack()


def _load_flapack():
    """The extension module :data:`FLAPACK`: the one in ``sys.modules`` if there is one,
    else the located extension, executed and registered under its own name, so that a
    later ``import scipy.linalg`` uses this same module."""
    module = sys.modules.get(FLAPACK)
    if module is None:
        module = importlib.util.module_from_spec(_FLAPACK_SPEC)
        _FLAPACK_SPEC.loader.exec_module(module)
        sys.modules[FLAPACK] = module
    return module


def _buffers(n):
    """``(faces, cells)``, what an operator on ``n`` cells works in: float buffers of
    2 rows of n + 1 and 5 rows of n."""
    return np.empty((2, n + 1)), np.empty((5, n))


class SLSystem:
    """Assembled and factorized operator for one density field.

    A public ``SLSystem(...)`` works in buffers of its own; every array a method
    returns without ``out`` is a fresh one owned by the caller.
    """

    def __init__(self, grid, rho, reg):
        rho = _check_density(rho)
        kappa = rho * reg._slopes(rho)[0]
        if rho.shape != (grid.n,):
            raise DomainError("density shape does not match grid")
        self._assemble(grid, rho, kappa, reg.epsilon, _buffers(grid.n))

    @classmethod
    def _assembled(cls, grid, rho, kappa, eps, buffers):
        """The operator of a density already checked, with its ``kappa = rho A'``, in the
        caller's ``buffers``, shaped as :func:`_buffers` makes them."""
        system = cls.__new__(cls)
        system._assemble(grid, rho, kappa, eps, buffers)
        return system

    def _assemble(self, grid, rho, kappa, eps, buffers):
        """Assembly and factorization, the one path of :meth:`__init__` and :meth:`_assembled`.

        The operator keeps ``k_face``, ``d``, ``e`` and ``T^{-1} w`` in ``buffers`` and uses
        the others as scratch: a flux row and two cells.  The process's first factorization
        loads :data:`FLAPACK` (:func:`_load_flapack`); the operator calls its kernels.
        """
        self.kappa = kappa
        self.grid = grid
        self.rho = rho
        self.eps = float(eps)
        c = 2.0 * self.eps / grid.dx**2
        self._c = c
        (k_face, self._flux), (d, e, w, self._scratch, self._dpsi) = buffers
        # k_face[j] couples cells j-1 and j, with the grid's ghosts of kappa past the edges
        left, right = grid._ghosts(kappa, None)
        k_face[0] = left + kappa[0]
        np.add(kappa[:-1], kappa[1:], out=k_face[1:-1])
        k_face[-1] = kappa[-1] + right
        k_face *= 0.5
        # entry (0, n-1) of the cyclic matrix; a line grid has none
        self._corner = -c * k_face[0] if grid.is_periodic else 0.0
        self._k_face = k_face
        off = np.add(k_face[1:], k_face[:-1], out=self._scratch)
        off *= c  # |off-diagonal| sum of each row
        diag = np.add(rho, off, out=d)
        self._norm = np.add(diag, off, out=off).max()  # infinity norm, for the solve's guard
        # Sherman-Morrison split A = T + corner * w w^T with w = e_0 + e_{n-1};
        # corner <= 0 so T only gains on the diagonal and stays SPD.
        d[0] -= self._corner
        d[-1] -= self._corner
        e = np.multiply(k_face[1:-1], -c, out=e[:-1])
        self._lapack = _load_flapack()
        self._d, self._e, info = self._lapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise NumericalBreakdownError(
                f"operator factorization failed: leading minor {info} is not positive")
        if self._corner != 0.0:
            w[:] = 0.0
            w[0] = w[-1] = 1.0
            self._tinv_w = self._lapack.dpttrs(self._d, self._e, w, overwrite_b=1)[0]
            self._sm_denom = 1.0 + self._corner * (self._tinv_w[0] + self._tinv_w[-1])

    # -- matrix action -------------------------------------------------------

    def apply(self, u, far=None, out=None):
        """Matrix-vector product ``L u`` (ghost values from ``far`` on line grids),
        written into ``out`` when given, which must not be ``u``."""
        u = np.asarray(u, dtype=float)
        left, right = self.grid._ghosts(u, far)
        flux = self._flux
        flux[0] = u[0] - left
        np.subtract(u[1:], u[:-1], out=flux[1:-1])
        flux[-1] = right - u[-1]
        flux *= self._k_face
        lu = np.subtract(flux[1:], flux[:-1], out=out)
        lu *= self._c
        # rho u - c (flux_{i+1/2} - flux_{i-1/2}); rho u takes the flux row, now read
        return np.subtract(np.multiply(self.rho, u, out=flux[:-1]), lu, out=lu)

    def solve(self, f, far=None, out=None):
        """Direct solve of ``L u = f`` with an enforced backward-error bound.

        On line grids the solution tends to the constants ``f/rho`` evaluated
        in the far field (``far`` overrides the default edge-sample estimate).
        The solution is written into ``out`` when given, which must not be ``f``.
        """
        f = np.asarray(f, dtype=float)
        u = np.empty(self.grid.n) if out is None else out
        u[...] = f
        if not self.grid.is_periodic:
            if far is None:
                far = (f[0] / self.rho[0], f[-1] / self.rho[-1])
            u[0] += self._c * self._k_face[0] * far[0]
            u[-1] += self._c * self._k_face[-1] * far[1]
        # dpttrs's info flags only a malformed argument; the guard checks u
        u = self._lapack.dpttrs(self._d, self._e, u, overwrite_b=1)[0]
        if self._corner != 0.0:
            wu = u[0] + u[-1]
            u -= np.multiply(self._corner * wu / self._sm_denom, self._tinv_w,
                             out=self._scratch)
        check = self.apply(u, far=far, out=self._scratch)
        check -= f
        residual = np.abs(check, out=check).max()
        scale = self._norm * np.abs(u, out=check).max() + np.abs(f, out=check).max()
        if not residual <= RESIDUAL_TOL * scale:  # also NaN: the finiteness check
            raise NumericalBreakdownError(
                f"solve residual {residual:.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} * (|L| |u| + |f|) = {RESIDUAL_TOL * scale:.3e}"
            )
        return u

    def solve_dx(self, psi, out=None):
        """``L^{-1} d(psi)/dx``, implemented as the plain composition; into ``out`` when given."""
        return self.solve(self.grid.ddx(psi, out=self._dpsi), far=(0.0, 0.0), out=out)

    def smooth(self, psi):
        """Flux form of the regularizing term: ``psi + 2 eps rho A' d/dx solve_dx(psi)``.

        Reduces to the identity for ``eps = 0`` and fixes constant fields.
        """
        psi = np.asarray(psi, dtype=float)
        w = self.solve_dx(psi)
        dw = self.grid.ddx(w, far=(0.0, 0.0))
        return psi + 2.0 * self.eps * self.kappa * dw


def exp_kernel(xi, width):
    """The normalized exponential kernel ``exp(-|xi|/width) / (2 width)``."""
    if not 0.0 < width < np.inf:  # also NaN
        raise DomainError("kernel width must be > 0 and finite")
    return np.exp(-np.abs(xi) / width) / (2.0 * width)


def inverse_family_flux(rho_xi, dxi, eos, reg):
    """Regularizing flux for the inverse family, by convolution in mass coordinates.

    For ``A = -a*rho_bar/rho`` the flux operator becomes, in the coordinate
    ``xi = integral rho dx``, the constant-coefficient smoother with kernel
    :func:`exp_kernel` of width ``sqrt(2 eps a rho_bar)``, applied to
    ``a*rho_bar*(rho V''' + 3 V'') * (d rho/d xi)^2``.

    Parameters
    ----------
    rho_xi : array
        Density sampled on a uniform grid in ``xi`` (spacing ``dxi``),
        decaying to far-field constants.
    """
    if reg.kind != INVERSE:
        raise DomainError("the convolution route is defined for the inverse family only")
    if reg.epsilon <= 0.0:
        raise DomainError("the convolution route needs epsilon > 0")
    rho_xi = _check_density(rho_xi)
    # the constructor keeps dx == dxi exactly; Grid.line would round it
    grid = Grid(LINE, rho_xi.size, dxi, 0.0, (rho_xi[0], rho_xi[-1]), (0.0, 0.0))
    drho = grid.ddx(rho_xi)
    width = np.sqrt(2.0 * reg.epsilon * reg.a * reg.rho_bar)
    v2, v3 = eos._curvature(rho_xi)
    integrand = reg.a * reg.rho_bar * (rho_xi * v3 + 3.0 * v2) * drho**2
    m = int(np.ceil(KERNEL_TRUNCATION * width / dxi))
    weights = exp_kernel(dxi * np.arange(-m, m + 1), width) * dxi
    return np.convolve(integrand, weights, mode="same")
