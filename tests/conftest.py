import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import barolab
from barolab import EquationOfState, Regularizer

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sw_eos():
    """Shallow water with g = 1: gamma = 2, p_bar = 1/2, unit reference density."""
    return EquationOfState.shallow_water(1.0)


@pytest.fixture
def iso_eos():
    return EquationOfState.isothermal(1.0, 1.0)


@pytest.fixture
def cubic_reg():
    return Regularizer.cubic(0.1)


class NegatedRegularizer:
    """The A -> -A double of a regularizer; neither system may see the difference."""

    def __init__(self, base):
        self.base = base
        self.epsilon = base.epsilon

    def derivatives(self, rho):
        return tuple(-d for d in self.base.derivatives(rho))

    def _slopes(self, rho, *out):
        return tuple(-d for d in self.base._slopes(rho, *out))


def observed_order(errors, factor=2.0):
    """Mean convergence order from errors on successively refined grids."""
    errors = np.asarray(errors, dtype=float)
    return float(np.mean(np.log(errors[:-1] / errors[1:]) / np.log(factor)))


def load_script(directory, name):
    """``<directory>/<name>.py`` of the repository, unedited, loaded by path and registered
    in ``sys.modules`` (a module's dataclasses look their module up there while they are built)."""
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}",
                                                  ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def child_env(**extra):
    """``os.environ`` and ``extra``, with the directory holding the barolab this process
    imported first on ``PYTHONPATH``: a child interpreter then runs the same code from any
    working directory, where a relative ``PYTHONPATH`` inherited from here would not resolve."""
    src = str(Path(barolab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)
