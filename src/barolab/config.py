"""Plain-text experiment configuration: parsing, validation, object building.

The format is INI-style ``key = value`` under section headers, chosen because
it is language-agnostic, diffable and needs no schema dependency.  Unknown
sections or keys are rejected (typo safety) and validation reports *all*
problems at once.  The full grammar is documented in the README.
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .eos import EquationOfState
from .errors import ConfigError, DomainError, _require
from .euler import SolverConfig
from .grid import BOUNDARY_TOL, Grid
from .regularizer import Regularizer

EXPERIMENT_KINDS = (
    "rbe_run", "ghs_run", "dispersion_study", "steady_profile",
    "epsilon_sweep", "convergence_study",
)
INITIAL_KINDS = ("constant", "sine", "sine_bump", "gaussian_bump", "tanh_front", "file")
_PERIODIC_KINDS = ("ghs_run", "epsilon_sweep", "convergence_study")


def _comma_list(conv):
    """A converter for ``a, b; c`` lists whose items ``conv`` parses."""
    def parse(text):
        return [conv(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    parse.__name__ = f"a comma list of {conv.__name__}"
    return parse


# section -> key -> (converter, default); defaults of None mean "not set"
_SCHEMA = {
    "experiment": {"kind": (str, None)},
    "eos": {
        "kind": (str, "isentropic"),
        "gamma": (float, 2.0),
        "rho_bar": (float, 1.0),
        "p_bar": (float, 1.0),
        "g": (float, 1.0),
    },
    "regularizer": {
        "kind": (str, "cubic"),
        "epsilon": (float, 0.1),
        "a": (float, 1.0),
        "p": (float, 3.0),
    },
    "grid": {
        "topology": (str, "periodic"),
        "n": (int, 512),
        "length": (float, 1.0),
        "x_min": (float, -10.0),
        "x_max": (float, 10.0),
        "rho_left": (float, None),
        "rho_right": (float, None),
        "u_left": (float, 0.0),
        "u_right": (float, 0.0),
    },
    "initial": {
        "kind": (str, "sine"),
        "amplitude": (float, 0.05),
        "u_amplitude": (float, None),   # defaults to amplitude
        "mode": (int, 1),
        "width": (float, 0.1),
        "bump_amplitude": (float, 0.03),
        "mean_velocity": (float, 0.0),
        "rho_value": (float, None),     # constant preset; defaults to rho_bar
        "u_value": (float, 0.0),
        "path": (str, None),            # file preset
    },
    "solver": {
        "cfl": (float, 0.5),
        "t_end": (float, 1.0),
        "blowup_factor": (float, 1e3),
        "blowup_threshold": (float, None),
        "snapshot_every": (int, 0),
        "on_blowup": (str, "report"),
    },
    "output": {"directory": (str, "out")},
    "study": {
        "modes": (_comma_list(int), [1, 2, 4, 8]),
        "amplitude": (float, 1e-6),
        "epsilons": (_comma_list(float), [0.1, 0.01, 0.001]),
        "mass_flux": (float, 1.0),
        "momentum_flux": (float, 1.25),
        "energy_flux": (float, 0.5),
        "rho_start": (float, 1.3),
        "x_max": (float, 10.0),
        "points": (int, 4097),
        "variant": (str, "spatial"),
        "solver": (str, "rbe"),
        "resolutions": (_comma_list(int), [64, 128, 256]),
    },
}


@dataclass
class ExperimentConfig:
    """Validated experiment description with the built core objects."""

    kind: str
    eos: EquationOfState
    regularizer: Regularizer
    solver: SolverConfig
    grid: Grid
    values: dict = field(default_factory=dict)  # per-section raw (typed) values

    def __getitem__(self, section):
        return self.values[section]

    @property
    def output_directory(self):
        return self.values["output"]["directory"]


def read_ini(text):
    """The INI dialect of every config: ``#``/``;`` comments, ``%`` taken literally.

    A syntax error raises :class:`ConfigError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc
    return parser


def parse_config(text):
    """Parse configuration text into an :class:`ExperimentConfig`.

    Raises :class:`ConfigError` carrying the complete list of violations.
    """
    problems = []
    parser = read_ini(text)

    # copies, so that no two configs share a default study list
    values = {section: {key: copy.copy(default) for key, (_, default) in keys.items()}
              for section, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key '{key}' in section [{section}]")
                continue
            conv, _ = _SCHEMA[section][key]
            try:
                values[section][key] = conv(raw)
            except ValueError:
                problems.append(f"[{section}] {key}: cannot parse {raw!r} as {conv.__name__}")

    problems += _validate(values)
    built = {}
    for section, build in (("eos", _build_eos), ("regularizer", _build_regularizer),
                           ("grid", build_grid), ("solver", _build_solver)):
        try:
            built[section] = build(values)
        except DomainError as exc:
            problems.append(f"[{section}] {exc}")
            if section == "eos":
                values["eos"]["rho_bar"] = _SCHEMA["eos"]["rho_bar"][1]
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(values["experiment"]["kind"], built["eos"], built["regularizer"],
                            built["solver"], built["grid"], values)


def _validate(v):
    """The rules no constructor knows; the built objects check their own."""
    problems = []
    kind = v["experiment"]["kind"]
    if kind is None:
        problems.append("[experiment] kind is required")
    elif kind not in EXPERIMENT_KINDS:
        problems.append(f"[experiment] kind must be one of {', '.join(EXPERIMENT_KINDS)}")

    if kind in _PERIODIC_KINDS and v["grid"]["topology"] != "periodic":
        problems.append(f"[grid] topology must be periodic for {kind}")

    i = v["initial"]
    if i["kind"] not in INITIAL_KINDS:
        problems.append(f"[initial] kind must be one of {', '.join(INITIAL_KINDS)}")
    if i["kind"] == "file" and not i["path"]:
        problems.append("[initial] path is required for kind = file")
    if i["kind"] in ("gaussian_bump", "tanh_front") and not i["width"] > 0.0:
        problems.append("[initial] width must be > 0")
    if i["mode"] < 1:
        problems.append("[initial] mode must be >= 1")
    if i["rho_value"] is not None and not 0.0 < i["rho_value"] < math.inf:
        problems.append("[initial] rho_value must be > 0 and finite")

    if v["solver"]["on_blowup"] not in ("report", "fail"):
        problems.append("[solver] on_blowup must be report or fail")

    st = v["study"]
    if st["variant"] not in ("spatial", "temporal"):
        problems.append("[study] variant must be spatial or temporal")
    if st["solver"] not in ("rbe", "ghs"):
        problems.append("[study] solver must be rbe or ghs")
    if not st["amplitude"] > 0.0:
        problems.append("[study] amplitude must be > 0")
    res = st["resolutions"]
    if not res or min(res) < 1 or len(set(res)) < len(res):
        problems.append("[study] resolutions must list distinct integers >= 1")
    elif st["variant"] == "spatial" and any(4 * max(res) % r for r in res):
        problems.append("[study] resolutions must each divide 4 * max(resolutions)")
    return problems


# Each builder reads only the typed values, so that one broken section does
# not hide the problems of another; rho_bar comes from the [eos] values, or
# from the schema default once [eos] has reported it broken.

def _build_eos(v):
    e = v["eos"]
    if e["kind"] == "isentropic":
        return EquationOfState.isentropic(e["gamma"], e["rho_bar"], e["p_bar"])
    if e["kind"] == "isothermal":
        return EquationOfState.isothermal(e["rho_bar"], e["p_bar"])
    if e["kind"] == "shallow_water":
        return EquationOfState.shallow_water(e["g"], e["rho_bar"])
    raise DomainError(f"kind must be isentropic, isothermal or shallow_water, not {e['kind']!r}")


def _build_regularizer(v):
    r = v["regularizer"]
    return Regularizer(r["kind"], r["epsilon"], a=r["a"], rho_bar=v["eos"]["rho_bar"], p=r["p"])


def _build_solver(v):
    s = v["solver"]
    return SolverConfig(
        t_end=s["t_end"], cfl=s["cfl"], blowup_factor=s["blowup_factor"],
        blowup_threshold=s["blowup_threshold"], snapshot_every=s["snapshot_every"],
    )


def build_grid(config):
    g = config["grid"]
    if g["topology"] == "periodic":
        return Grid.periodic(g["length"], g["n"])
    if g["topology"] == "line":
        rho_far = tuple(config["eos"]["rho_bar"] if r is None else r
                        for r in (g["rho_left"], g["rho_right"]))
        return Grid.line(g["x_min"], g["x_max"], g["n"], rho_far, (g["u_left"], g["u_right"]))
    raise DomainError(f"topology must be periodic or line, not {g['topology']!r}")


def build_initial(config, grid):
    """Initial ``(rho, u)`` fields for the configured preset.

    On a line grid both fields must meet the grid's far-field values at
    either edge, within ``BOUNDARY_TOL`` (the tolerance of :meth:`Grid.check_boundary`).
    """
    rho, u = _preset(config, grid)
    if not grid.is_periodic:
        keys = ("rho_left", "rho_right", "u_left", "u_right")
        _require(*((abs(edge - far) <= BOUNDARY_TOL,
                    f"initial {key.replace('_', ' at the ')} edge is {edge:.17g}, "
                    f"but [grid] {key} is {far:.17g}")
                   for key, edge, far in zip(keys, (rho[0], rho[-1], u[0], u[-1]),
                                             grid.rho_far + grid.u_far)))
    return rho, u


def _preset(config, grid):
    i = config["initial"]
    eos = config.eos
    x, length = grid.x, grid.length
    rho_bar = eos.rho_bar
    a = i["amplitude"]
    ua = i["u_amplitude"] if i["u_amplitude"] is not None else a
    u_mean = i["mean_velocity"]
    kind = i["kind"]
    if kind == "constant":
        rho0 = np.full(grid.n, i["rho_value"] if i["rho_value"] is not None else rho_bar)
        return rho0, np.full(grid.n, i["u_value"])
    if kind == "file":
        from .experiments import read_snapshot
        return read_snapshot(i["path"], grid)
    k = 2.0 * np.pi * i["mode"] / length
    center = grid.x_min + 0.5 * length
    if kind == "sine":
        return rho_bar + a * np.sin(k * x), u_mean + ua * np.cos(k * x)
    if kind == "sine_bump":
        rho0 = (rho_bar + a * np.sin(k * x)
                + i["bump_amplitude"] * np.exp(-(((x - center) / i["width"]) ** 2)))
        return rho0, u_mean + ua * np.cos(k * x)
    if kind == "gaussian_bump":
        rho0 = rho_bar + a * np.exp(-(((x - center) / i["width"]) ** 2))
        return rho0, np.full(grid.n, u_mean)
    # tanh_front: one steep compressive front; on periodic grids a matching
    # release front keeps the data continuous across the wrap
    w = i["width"]
    if grid.is_periodic:
        u0 = u_mean - a * (np.tanh((x - length / 3.0) / w)
                           - np.tanh((x - 2.0 * length / 3.0) / w) - 1.0)
    else:
        u0 = u_mean - a * np.tanh((x - center) / w)
    return np.full(grid.n, rho_bar), u0
