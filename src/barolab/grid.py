"""Uniform 1-D grids and the discrete calculus used by every solver.

A field is a plain ``numpy`` array of ``n`` samples attached to a :class:`Grid`.
Nodes sit at ``x_i = x_min + i*dx`` (``i = 0 .. n-1``); a periodic grid covers
``[0, L)`` and a line grid covers ``[x_min, x_max)`` together with constant
far-field values that extend every field past the edges.  The grid alone
decides how a field continues past its edges (``_ghosts``, ``_pad``, ``_far``).

All stencils are second-order centred: the regularized systems integrated on
these grids are non-dispersive and smooth up to blow-up, so a uniform O(dx^2)
treatment balances every term.

A grid holds no buffer: a stencil reads its field in place and writes only its
result, into ``out`` when given.  Only a stage of :mod:`barolab.euler` shares
buffers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryContaminationWarning, DomainError, _require

PERIODIC = "periodic"
LINE = "line"
BOUNDARY_TOL = 1e-8  # how far a line-grid field may sit off its far-field constants at the edges


def require_finite(values, what):
    """The one finiteness rule: ``values`` as a float array, or DomainError naming ``what``."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError(f"{what} contains NaN or Inf")
    return values


@dataclass(frozen=True, eq=False)
class Grid:
    """A uniform grid, either periodic or an open line with far-field closure.

    Line grids carry the far-field constants of the primary fields
    (``rho_far``, ``u_far``) so that solvers can extend them exactly rather
    than extrapolating; generic fields are extended by their edge samples.
    """

    topology: str
    n: int
    dx: float
    x_min: float
    rho_far: tuple[float, float] | None = None
    u_far: tuple[float, float] | None = None
    x: np.ndarray = field(init=False, repr=False)
    _anchor: int = field(init=False, repr=False)  # the node nearest x = 0

    def __post_init__(self):
        periodic = self.is_periodic
        # the operator divides by dx**2, so its square must be a positive finite double
        spacing_ok = 0.0 < self.dx and 0.0 < self.dx * self.dx < math.inf
        _require(
            (self.topology in (PERIODIC, LINE), "topology must be periodic or line"),
            (self.n >= 8, "n must be >= 8"),
            (not periodic or spacing_ok,
             "length must be > 0, with (length / n)**2 finite and > 0"),
            (periodic or (spacing_ok and math.isfinite(self.x_min)),
             "x_min and x_max must be finite with x_max > x_min, "
             "and ((x_max - x_min) / n)**2 finite and > 0"),
            # the bare constructor can leave a line grid without its far-field pairs
            (periodic or (self.rho_far is not None
                          and all(0.0 < r < math.inf for r in self.rho_far)),
             "rho_left and rho_right must be > 0 and finite"),
            (periodic or (self.u_far is not None and all(map(math.isfinite, self.u_far))),
             "u_left and u_right must be finite"),
        )
        object.__setattr__(self, "x", self.x_min + self.dx * np.arange(self.n))
        object.__setattr__(self, "_anchor", int(np.argmin(np.abs(self.x))))

    # n is checked in __post_init__; max(n, 1) only keeps dx defined until then

    @classmethod
    def periodic(cls, length, n):
        n = int(n)
        return cls(PERIODIC, n, float(length) / max(n, 1), 0.0)

    @classmethod
    def line(cls, x_min, x_max, n, rho_far=(1.0, 1.0), u_far=(0.0, 0.0)):
        n = int(n)
        return cls(LINE, n, (float(x_max) - float(x_min)) / max(n, 1), float(x_min),
                   (float(rho_far[0]), float(rho_far[1])),
                   (float(u_far[0]), float(u_far[1])))

    @property
    def is_periodic(self):
        return self.topology == PERIODIC

    @property
    def length(self):
        return self.n * self.dx

    def _ghosts(self, f, far):
        """The values just past each edge: wrapped, ``far``, or the edge samples."""
        if self.is_periodic:
            return f[-1], f[0]
        if far is None:
            return f[0], f[-1]
        return float(far[0]), float(far[1])

    def _pad(self, f, far=None):
        """``f`` with its ghost value on either side, a fresh array of n + 2."""
        padded = np.empty(self.n + 2)
        padded[0], padded[-1] = self._ghosts(f, far)
        padded[1:-1] = f
        return padded

    def _far(self, value):
        """``value(rho, u)`` at the two far states, or None on a periodic grid."""
        if self.is_periodic:
            return None
        return tuple(value(r, v) for r, v in zip(self.rho_far, self.u_far))

    def ddx(self, f, far=None, out=None):
        """Second-order centred derivative.

        Periodic grids wrap; line grids use constant ghost values (``far`` if
        given, otherwise the edge samples of ``f``).  Given ``out``, the derivative
        is written there and nothing is allocated; ``out`` may be ``f`` itself, at
        the cost of the copy numpy makes of an overlapping subtraction.
        """
        f = np.asarray(f, dtype=float)
        left, right = self._ghosts(f, far)
        first, last = f[1] - left, right - f[-2]  # read before out, which may be f, is written
        out = np.empty(self.n) if out is None else out
        np.subtract(f[2:], f[:-2], out=out[1:-1])
        out[0], out[-1] = first, last
        out /= 2.0 * self.dx
        return out

    def integrate(self, f, far=None):
        """Rectangle-rule integral ``sum(f_i) * dx``.

        On a line grid with ``far = (f_left, f_right)`` the deviation from the
        far-field constants is integrated instead (split at the domain middle
        when the two constants differ), which is the finite part of the
        integral over the whole line.
        """
        f = np.asarray(f, dtype=float)
        if far is not None and not self.is_periodic:
            left, right = float(far[0]), float(far[1])
            if left == right:
                return (f - left).sum() * self.dx
            half = self.n // 2
            return ((f[:half] - left).sum() + (f[half:] - right).sum()) * self.dx
        return f.sum() * self.dx

    def antiderivative(self, f):
        """Cumulative trapezoid anchored to 0 at the grid point nearest ``x = 0``."""
        f = np.asarray(f, dtype=float)
        out = np.empty_like(f)
        out[0] = 0.0
        np.cumsum(0.5 * (f[1:] + f[:-1]) * self.dx, out=out[1:])
        if self._anchor:
            out -= out[self._anchor]
        return out

    def check_boundary(self, f, far, label="field"):
        """Warn when a line-grid field has drifted off its far-field constants.

        Looks at the outer 5% of cells on each side against ``BOUNDARY_TOL``;
        returns whether the warning fired.  No-op on periodic grids.
        """
        if self.is_periodic:
            return False
        f = np.asarray(f, dtype=float)
        m = max(1, self.n // 20)
        left, right = self._ghosts(f, far)
        worst = max(np.max(np.abs(f[:m] - left)), np.max(np.abs(f[-m:] - right)))
        if worst > BOUNDARY_TOL:
            warnings.warn(
                f"{label} deviates from its far-field value by {worst:.3e} "
                "in the outer 5% of the domain; the perturbation is no longer "
                "compactly supported away from the boundary",
                BoundaryContaminationWarning,
                stacklevel=2,
            )
            return True
        return False
