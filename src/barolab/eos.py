"""Barotropic equations of state and the thermodynamic scalars derived from them.

Every quantity is a closed-form function of the density alone: the pressure
law ``P(rho)``, the specific enthalpy (the antiderivative of ``P'(rho)/rho``
vanishing at the reference density), the potential-energy density ``V(rho)``
(the antiderivative of the enthalpy, also gauged to vanish at the reference
density) and the sound speed ``sqrt(P'(rho))``.

Two families are provided: the isentropic law ``P = p_bar*(rho/rho_bar)**gamma``
with ``gamma > 0``, ``gamma != 1``, and the isothermal law ``P = p_bar*rho/rho_bar``
(the ``gamma -> 1`` limit, kept as a separate variant to avoid the 0/0 in the
enthalpy formula).  ``gamma`` below 1 is accepted: hyperbolicity only needs
``P' > 0``.  Shallow water corresponds to ``gamma = 2`` with ``P = g*rho**2/2``
and is offered as a named constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VacuumError, _require
from .grid import require_finite

ISENTROPIC = "isentropic"
ISOTHERMAL = "isothermal"


def _finite_positive(value):
    """Whether ``value()``, a float expression of checked constants, is a finite double > 0."""
    try:
        return 0.0 < value() < math.inf
    except OverflowError:  # a float power out of range
        return False


def _check_density(rho):
    """The one density rule: finite (else DomainError) and > 0 (else VacuumError)."""
    rho = require_finite(rho, "density")
    if (rho <= 0.0).any():
        raise VacuumError("density reached vacuum")
    return rho


@dataclass(frozen=True)
class EquationOfState:
    """A barotropic pressure law with reference state ``(rho_bar, p_bar)``.

    Attributes
    ----------
    kind : str
        ``"isentropic"`` or ``"isothermal"``.
    rho_bar : float
        Reference density (> 0); enthalpy and potential vanish there.
    p_bar : float
        Reference pressure (> 0), the pressure at ``rho_bar``.
    gamma : float or None
        Specific-heat ratio for the isentropic law; ``None`` for isothermal.
    """

    kind: str
    rho_bar: float
    p_bar: float
    gamma: float | None = None

    def __post_init__(self):
        isentropic = self.kind == ISENTROPIC
        _require(
            (isentropic or self.kind == ISOTHERMAL,
             f"kind must be isentropic or isothermal, not {self.kind!r}"),
            (0.0 < self.rho_bar < math.inf, "rho_bar must be > 0 and finite"),
            (0.0 < self.p_bar < math.inf, "p_bar must be > 0 and finite"),
            (not isentropic or (self.gamma is not None and 0.0 < self.gamma < math.inf),
             "gamma must be > 0 and finite"),
            (not isentropic or self.gamma != 1.0, "gamma must be != 1 (use kind = isothermal)"),
        )
        # once the constants hold: the scale that _curvature divides V'' and V''' by
        _require((not isentropic or _finite_positive(lambda: self.rho_bar ** (self.gamma - 1.0)),
                  "rho_bar**(gamma - 1) must be a finite double > 0"))

    # -- constructors -------------------------------------------------------

    @classmethod
    def isentropic(cls, gamma, rho_bar=1.0, p_bar=1.0):
        return cls(ISENTROPIC, float(rho_bar), float(p_bar), float(gamma))

    @classmethod
    def isothermal(cls, rho_bar=1.0, p_bar=1.0):
        return cls(ISOTHERMAL, float(rho_bar), float(p_bar))

    @classmethod
    def shallow_water(cls, g=1.0, rho_bar=1.0):
        """The gamma = 2 law ``P = g*rho**2/2`` with gravity ``g``."""
        # checked here, before they make up p_bar, so the message names them
        _require((0.0 < g < math.inf, "g must be > 0 and finite"),
                 (0.0 < rho_bar < math.inf, "rho_bar must be > 0 and finite"))
        _require((_finite_positive(lambda: 0.5 * g * rho_bar**2),
                  "g * rho_bar**2 / 2 must be a finite double > 0"))
        return cls.isentropic(2.0, rho_bar, 0.5 * g * rho_bar**2)

    # -- scalar functions of the density ------------------------------------

    @property
    def enthalpy_scale(self):
        """``gamma*p_bar/rho_bar`` (isentropic) or ``p_bar/rho_bar`` (isothermal)."""
        if self.kind == ISENTROPIC:
            return self.gamma * self.p_bar / self.rho_bar
        return self.p_bar / self.rho_bar

    # Each public method applies the density rule once and hands the checked
    # array to its unchecked kernel, the one home of the formula; a caller that
    # has checked the density itself (a solver stage) calls the kernels.  The
    # kernels a stage calls write into the buffers it passes, one operation at a
    # time in the order of the formula, so the buffers do not move a bit.

    def pressure(self, rho):
        return self._pressure(_check_density(rho))

    def _pressure(self, rho, out=None):
        if self.kind == ISENTROPIC:
            p = np.divide(rho, self.rho_bar, out=out)
            p **= self.gamma
            p *= self.p_bar
            return p
        p = np.multiply(self.p_bar, rho, out=out)
        p /= self.rho_bar
        return p

    def enthalpy(self, rho):
        """Specific enthalpy, the integral of ``P'(a)/a`` from ``rho_bar`` to ``rho``."""
        return self._enthalpy(_check_density(rho))

    def _enthalpy(self, rho):
        if self.kind == ISENTROPIC:
            g = self.gamma
            return self.enthalpy_scale * ((rho / self.rho_bar) ** (g - 1.0) - 1.0) / (g - 1.0)
        return self.enthalpy_scale * np.log(rho / self.rho_bar)

    def potential(self, rho):
        """Potential-energy density, the integral of the enthalpy from ``rho_bar``.

        Nonnegative for every ``rho > 0`` since ``P' > 0``.
        """
        return self._potential(_check_density(rho))

    def _potential(self, rho):
        r = rho / self.rho_bar
        if self.kind == ISENTROPIC:
            g = self.gamma
            return self.p_bar * (r**g - 1.0 - g * (r - 1.0)) / (g - 1.0)
        return self.p_bar * (r * np.log(r) - r + 1.0)

    def potential_derivatives(self, rho):
        """First three derivatives ``(V', V'', V''')`` of the potential.

        ``V'`` is the enthalpy and ``V'' = P'(rho)/rho``.
        """
        rho = _check_density(rho)
        return (self._enthalpy(rho), *self._curvature(rho))

    def _curvature(self, rho, d2=None, d3=None):
        """``(V'', V''')``: all the solver's coefficients take from the potential."""
        scale = self.enthalpy_scale
        if self.kind == ISENTROPIC:
            g = self.gamma
            d2 = np.power(rho, g - 2.0, out=d2)
            d2 *= scale
            d2 /= self.rho_bar ** (g - 1.0)
            d3 = np.power(rho, g - 3.0, out=d3)
            d3 *= (g - 2.0) * scale
            d3 /= self.rho_bar ** (g - 1.0)
            return d2, d3
        return np.divide(scale, rho, out=d2), np.divide(-scale, np.square(rho, out=d3), out=d3)

    def sonic_density(self, mass_flux):
        """The root of ``rho^3 V''(rho) = I^2`` with ``I = mass_flux``, in closed form.

        ``rho^3 V''`` is ``gamma p_bar rho_bar (rho/rho_bar)^(gamma+1)`` (isentropic) or
        ``(p_bar/rho_bar) rho^2`` (isothermal).
        """
        if self.kind == ISENTROPIC:
            g, r = self.gamma, self.rho_bar
            return r * (mass_flux**2 / (g * self.p_bar * r)) ** (1.0 / (g + 1.0))
        return abs(mass_flux) * math.sqrt(self.rho_bar / self.p_bar)

    def sound_speed(self, rho):
        """``sqrt(dP/drho)``, equal to ``sqrt(rho*V''(rho))``; ``dP/drho > 0`` for every
        admissible law (hyperbolicity)."""
        return self._sound_speed(_check_density(rho))

    def _sound_speed(self, rho):
        if self.kind == ISENTROPIC:
            return np.sqrt(self.enthalpy_scale * (rho / self.rho_bar) ** (self.gamma - 1.0))
        return np.sqrt(self.enthalpy_scale * np.ones_like(rho))
