"""The family of regularizing functions ``A(rho)`` and their exact derivatives.

The regularization is parametrized by a smooth increasing function of the
density together with a strength ``epsilon >= 0``.  Three families are
implemented, each with closed-form derivatives up to third order:

* ``cubic``     ``A = rho**3/6``
* ``inverse``   ``A = -a*rho_bar/rho`` with ``a > 0`` (increasing since A' = a*rho_bar/rho**2)
* ``power``     ``A = rho**p/p`` for any real ``p != 0``

``epsilon = 0`` is allowed and turns the regularizing source off entirely,
recovering the classical barotropic Euler equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import _check_density
from .errors import _require

CUBIC = "cubic"
INVERSE = "inverse"
POWER = "power"


@dataclass(frozen=True)
class Regularizer:
    kind: str
    epsilon: float
    a: float = 1.0        # inverse family strength
    rho_bar: float = 1.0  # inverse family reference density
    p: float = 3.0        # power family exponent

    def __post_init__(self):
        inverse = self.kind == INVERSE
        _require(
            (self.kind in (CUBIC, INVERSE, POWER),
             f"kind must be cubic, inverse or power, not {self.kind!r}"),
            (0.0 <= self.epsilon < math.inf, "epsilon must be >= 0 and finite"),
            (not inverse or 0.0 < self.a < math.inf, "a must be > 0 and finite"),
            (not inverse or 0.0 < self.rho_bar < math.inf, "rho_bar must be > 0 and finite"),
            (self.kind != POWER or (math.isfinite(self.p) and self.p != 0.0),
             "p must be finite and != 0"),
        )

    @classmethod
    def cubic(cls, epsilon):
        return cls(CUBIC, float(epsilon))

    @classmethod
    def inverse(cls, epsilon, a=1.0, rho_bar=1.0):
        return cls(INVERSE, float(epsilon), a=float(a), rho_bar=float(rho_bar))

    @classmethod
    def power(cls, epsilon, p):
        return cls(POWER, float(epsilon), p=float(p))

    # ``derivatives`` applies the density rule once and hands the checked array
    # to the unchecked kernel ``_slopes``, the one home of ``A'`` and ``A''``; a
    # caller that has checked the density itself calls the kernel.

    def derivatives(self, rho):
        """Return the tuple ``(A, A', A'', A''')`` at ``rho``."""
        rho = _check_density(rho)
        if self.kind == CUBIC:
            a, d3a = rho**3 / 6.0, np.ones_like(rho)
        elif self.kind == INVERSE:
            c = self.a * self.rho_bar
            a, d3a = -c / rho, 6.0 * c / rho**4
        else:
            p = self.p
            a, d3a = rho**p / p, (p - 1.0) * (p - 2.0) * rho ** (p - 3.0)
        return (a, *self._slopes(rho), d3a)

    def _slopes(self, rho, da=None, d2a=None):
        """``(A', A'')`` of an already checked density, into ``da`` and ``d2a`` when given
        (the cubic family's ``A''`` is ``rho`` itself and leaves ``d2a`` untouched)."""
        if self.kind == CUBIC:
            da = np.square(rho, out=da)
            da /= 2.0
            return da, rho
        if self.kind == INVERSE:
            c = self.a * self.rho_bar
            return (np.divide(c, np.square(rho, out=da), out=da),
                    np.divide(-2.0 * c, np.power(rho, 3, out=d2a), out=d2a))
        p = self.p
        d2a = np.power(rho, p - 2.0, out=d2a)
        d2a *= p - 1.0
        return np.power(rho, p - 1.0, out=da), d2a


def composite_coefficients(reg, eos, rho):
    """Coefficients of the squared gradients in the regularizing source.

    Returns ``(c_u, c_rho)`` such that the source reads
    ``c_u * u_x**2 + c_rho * rho_x**2``, with

    * ``c_u   = (rho**2 A')'      = 2 rho A' + rho**2 A''``
    * ``c_rho = (rho V''/A')' A'^2 = (V'' + rho V''') A' - rho V'' A''``

    ``c_rho`` may be negative (it is ``-g*rho**2/2`` for the cubic family with
    the shallow-water law).
    """
    return _composite(reg, eos, _check_density(rho))[:2]


def _composite(reg, eos, rho, *work):
    """``(c_u, c_rho, A')`` of an already checked density, each derivative taken once.

    Given five buffers ``work``, every array is formed in them: ``c_u``, ``A'`` and
    ``c_rho`` in the first three (``V''`` and ``V'''`` start where ``c_u`` and
    ``c_rho`` end), ``A''`` and a scratch array in the last two.
    """
    out_u, out_da, out_rho, out_d2a, tmp = work or (None,) * 5
    da, d2a = reg._slopes(rho, out_da, out_d2a)
    v2, v3 = eos._curvature(rho, out_u, out_rho)
    # c_rho = (V'' + rho V''') A' - rho V'' A''
    c_rho = np.multiply(rho, v3, out=out_rho)
    c_rho += v2
    c_rho *= da
    t = np.multiply(rho, v2, out=tmp)
    t *= d2a
    c_rho -= t
    # c_u = 2 rho A' + rho**2 A''
    c_u = np.multiply(2.0, rho, out=out_u)
    c_u *= da
    t = np.square(rho, out=tmp)
    t *= d2a
    c_u += t
    return c_u, c_rho, da
