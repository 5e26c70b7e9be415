"""Plain-text experiment configuration: parsing, validation, object building.

The format is INI-style ``key = value`` under section headers, chosen because
it is language-agnostic, diffable and needs no schema dependency.  Unknown
sections or keys are rejected (typo safety) and validation reports *all*
problems at once.  The full grammar is documented in the README.

Four sections become objects.  ``[eos]`` and ``[grid]`` have builders, which pick
a constructor by their ``kind`` or ``topology``; ``[regularizer]`` and ``[solver]``
map onto :class:`Regularizer` and :class:`SolverConfig` by keyword, so each of
their keys is a field of the same name.

A rule lives in one place.  A key's own rule (one value, no other key) is the
third field of its ``_SCHEMA`` entry; a rule that relates keys is in
``_validate``; a rule on a built object's parameters is in its constructor.
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import SteadyFluxes, check_steady_start
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


def _one_of(*choices):
    """The rule that a value is one of ``choices``."""
    return (lambda value: value in choices,
            f"must be {', '.join(choices[:-1])} or {choices[-1]}")


_POSITIVE = (lambda value: value > 0.0, "must be > 0")
_AT_LEAST_1 = (lambda value: value >= 1, "must be >= 1")
_FINITE = (math.isfinite, "must be finite")

# section -> key -> (converter, default[, (holds, text)]); defaults of None mean
# "not set".  The optional third field is the key's own rule: parse_config
# reports a value for which holds(value) is false as "[section] key text".
# The rules that relate keys are in _validate, and the built objects check
# their own parameters, so no rule here copies a constructor's.
_SCHEMA = {
    "experiment": {"kind": (str, None, _one_of(*EXPERIMENT_KINDS))},
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
        "kind": (str, "sine", _one_of(*INITIAL_KINDS)),
        "amplitude": (float, 0.05),
        "u_amplitude": (float, None),   # defaults to amplitude
        "mode": (int, 1, _AT_LEAST_1),
        "width": (float, 0.1),
        "bump_amplitude": (float, 0.03),
        "mean_velocity": (float, 0.0),
        "rho_value": (float, None,      # constant preset; defaults to rho_bar
                      (lambda value: value is None or 0.0 < value < math.inf,
                       "must be > 0 and finite")),
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
        "modes": (_comma_list(int), [1, 2, 4, 8],
                  (lambda modes: bool(modes) and min(modes) >= 1, "must list integers >= 1")),
        "amplitude": (float, 1e-6, _POSITIVE),
        "epsilons": (_comma_list(float), [0.1, 0.01, 0.001],
                     (bool, "must list at least one value")),
        "mass_flux": (float, 1.0,  # the steady relation squares it
                      (lambda flux: math.isfinite(flux * flux),
                       "must be finite, with a square below the largest double")),
        "momentum_flux": (float, 1.25, _FINITE),
        "energy_flux": (float, 0.5, _FINITE),
        "rho_start": (float, 1.3),
        "x_max": (float, 10.0, _POSITIVE),
        "points": (int, 4097, _AT_LEAST_1),
        "variant": (str, "spatial", _one_of("spatial", "temporal")),
        "solver": (str, "rbe", _one_of("rbe", "ghs")),
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
    """The INI dialect of every config: one ``key = value`` line per value, with ``=`` the
    only delimiter; ``#`` and ``;`` start a comment line, ``#`` also an inline comment;
    ``;`` in a value separates list items; ``%`` is taken literally; ``[DEFAULT]`` is an
    ordinary section, whose keys no other section inherits.

    A syntax error, such as ``key: value``, raises :class:`ConfigError`.  configparser
    joins an indented line onto the value above it, and :func:`parse_config` reports
    such a value as a problem of its key.
    """
    # no section header can name the default section, since no header holds a line break
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc
    return parser


def parse_config(text):
    """Parse configuration text into an :class:`ExperimentConfig`.

    Raises :class:`ConfigError` carrying the complete list of violations.
    """
    return _parse(read_ini(text))


def _parse(parser):
    """The :class:`ExperimentConfig` of a :func:`read_ini` parser, whose values are raw text."""
    problems = []

    # copies, so that no two configs share a default study list
    values = {section: {key: copy.copy(spec[1]) for key, spec in keys.items()}
              for section, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key '{key}' in section [{section}]")
            elif "\n" in raw:  # configparser joins an indented line onto the value above it
                problems.append(f"[{section}] {key}: {raw!r} runs onto an indented line")
            else:
                conv = _SCHEMA[section][key][0]
                try:
                    values[section][key] = conv(raw)
                except ValueError:
                    problems.append(f"[{section}] {key}: cannot parse {raw!r} as {conv.__name__}")

    problems += [f"[{section}] {key} {text}" for section, keys in _SCHEMA.items()
                 for key, (_, _, *rule) in keys.items() for holds, text in rule
                 if not holds(values[section][key])]
    problems += _validate(values)
    # each object is built from the typed values alone, so that one broken section does
    # not hide the problems of another; rho_bar comes from the [eos] values, or from
    # the schema default once [eos] has reported it broken
    built = {}
    for section, build in (
            ("eos", _build_eos),
            ("regularizer", lambda v: Regularizer(**v["regularizer"],
                                                  rho_bar=v["eos"]["rho_bar"])),
            ("grid", build_grid), ("solver", lambda v: SolverConfig(**v["solver"]))):
        try:
            built[section] = build(values)
        except DomainError as exc:
            problems.append(f"[{section}] {exc}")
            if section == "eos":
                values["eos"]["rho_bar"] = _SCHEMA["eos"]["rho_bar"][1]
    # the profile's start rule, once the sections the steady relation reads are sound
    if values["experiment"]["kind"] == "steady_profile" and not any(
            p.startswith(("[eos]", "[regularizer]", "[study]")) for p in problems):
        st = values["study"]
        fluxes = SteadyFluxes(st["mass_flux"], st["momentum_flux"], st["energy_flux"])
        try:
            check_steady_start(fluxes, built["eos"], built["regularizer"], st["rho_start"])
        except DomainError as exc:
            problems.append(f"[study] rho_start: {exc}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(values["experiment"]["kind"], built["eos"], built["regularizer"],
                            built["solver"], built["grid"], values)


def _validate(v):
    """The rules that relate keys; _SCHEMA holds each key's own, the built objects theirs."""
    problems = []
    kind = v["experiment"]["kind"]
    if kind in _PERIODIC_KINDS and v["grid"]["topology"] != "periodic":
        problems.append(f"[grid] topology must be periodic for {kind}")

    i = v["initial"]
    if i["kind"] == "file" and not i["path"]:
        problems.append("[initial] path is required for kind = file")
    if i["kind"] in ("sine_bump", "gaussian_bump", "tanh_front") and not i["width"] > 0.0:
        problems.append("[initial] width must be > 0")

    st = v["study"]
    rho_bar = v["eos"]["rho_bar"]
    # the study's wave rho_bar + a cos(k x) reaches rho_bar - a on its grid; a
    # broken amplitude or rho_bar is reported by its own rule
    if (kind == "dispersion_study" and 0.0 < rho_bar < math.inf
            and 0.0 < st["amplitude"] >= rho_bar):
        problems.append("[study] amplitude must be < [eos] rho_bar for dispersion_study")
    if kind == "steady_profile":  # the steady relation divides by both
        if v["regularizer"]["epsilon"] == 0.0:
            problems.append("[regularizer] epsilon must be > 0 for steady_profile")
        if st["mass_flux"] == 0.0:
            problems.append("[study] mass_flux must be nonzero for steady_profile")
    try:  # each member's regularizer checks its own epsilon
        for eps in st["epsilons"]:
            Regularizer.cubic(eps)
    except DomainError as exc:
        problems.append(f"[study] epsilons: {exc}")
    # the chain needs the list's own rule to pass first, so that rule is here too
    res = st["resolutions"]
    if not res or min(res) < 1 or len(set(res)) < len(res):
        problems.append("[study] resolutions must list distinct integers >= 1")
    elif st["variant"] == "spatial" and any(4 * max(res) % r for r in res):
        problems.append("[study] resolutions must each divide 4 * max(resolutions)")
    elif kind == "convergence_study" and st["variant"] == "spatial":
        # the grid's rule on n, on the smallest size: the others and the 4 * max
        # reference are larger, and [grid] reports a broken length itself
        try:
            Grid.periodic(1.0, min(res))
        except DomainError as exc:
            problems.append(f"[study] resolutions: {exc}")
    return problems


def _build_eos(v):
    e = v["eos"]
    if e["kind"] == "isentropic":
        return EquationOfState.isentropic(e["gamma"], e["rho_bar"], e["p_bar"])
    if e["kind"] == "isothermal":
        return EquationOfState.isothermal(e["rho_bar"], e["p_bar"])
    if e["kind"] == "shallow_water":
        return EquationOfState.shallow_water(e["g"], e["rho_bar"])
    raise DomainError(f"kind must be isentropic, isothermal or shallow_water, not {e['kind']!r}")


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
