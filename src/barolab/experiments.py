"""Experiment orchestration and all file output.

Every run writes plain CSV plus a ``summary.json``, each through its one
writer, :func:`write_csv` or :func:`write_json`.  ``write_csv`` takes columns,
writes a number as ``%.17g`` (17 significant digits, the lossless round-trip
precision for doubles) and a string as it is, and writes the rows in blocks of
a fixed size.  Given the same configuration the CSV bodies are byte-identical
across runs: there is no randomness anywhere in the pipeline and wall-clock
timing lives only in the JSON summary.  :func:`read_snapshot` reads a snapshot
back in as the initial condition of a restart.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import stat
import time
import warnings
from pathlib import Path

import numpy as np

from . import analysis
from .config import build_initial
from .errors import BarolabError, ConfigError, DomainError, IntegrationError
from .euler import (DIAGNOSTICS_HEADER, GhsState, State, ghs_run, ghs_step, reg_source, run,
                    rusanov_run, step)
from .sturm_liouville import SLSystem
from .grid import Grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_BLOWUP = 3


def _system(config):
    """``(state class, driver, stepper)`` of the system ``config`` integrates: gHS for
    ``ghs_run`` and for a ``convergence_study`` with ``[study] solver = ghs``, rbe otherwise.
    Built per call, so that a rebinding of these names (perfbench's span tracer does one)
    reaches every run."""
    kind, solver = config.kind, config["study"]["solver"]
    ghs = kind == "ghs_run" or (kind == "convergence_study" and solver == "ghs")
    return (GhsState, ghs_run, ghs_step) if ghs else (State, run, step)


CSV_BLOCK_ROWS = 1024  # rows formatted per write; bounds the text held in memory


def write_csv(path, header, columns):
    """Write ``header`` and then one row per index of ``columns``.

    ``columns`` are arrays or sequences (``zip(*rows)`` turns rows into
    columns).  A number is written as ``%.17g`` and a string as it is.  The
    rows go out in blocks of :data:`CSV_BLOCK_ROWS`, each converted with
    ``tolist`` and formatted with one ``%`` per row.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in columns) + "\n"
    n = min((len(c) for c in columns), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            rows = zip(*[c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns])
            f.write("".join([fmt % row for row in rows]))


def write_json(path, obj):
    """Write ``obj`` as JSON (indent 2, sorted keys, final newline); returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return text


def read_snapshot(path, grid):
    """Re-ingest a snapshot CSV as an initial condition on ``grid``.

    The header names the columns (spaces around a name are dropped) and the
    body is parsed with ``np.loadtxt``.  A file that cannot be read, lacks a
    ``rho`` or ``u`` column or does not have one row per grid node raises
    :class:`ConfigError`.
    """
    try:
        with open(path, encoding="utf-8") as f:
            names = [name.strip() for name in f.readline().split(",")]
            with warnings.catch_warnings():
                # a header-only file is a row-count error, reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"snapshot {path} cannot be read: {exc}"]) from exc
    missing = [c for c in ("rho", "u") if c not in names]
    if missing:
        raise ConfigError([f"snapshot {path} has no {' or '.join(missing)} column"])
    if len(data) != grid.n:
        raise ConfigError([f"snapshot {path} has {len(data)} rows, grid has {grid.n}"])
    if data.shape[1] != len(names):
        raise ConfigError([f"snapshot {path} cannot be read: {data.shape[1]} columns "
                           f"under a header of {len(names)}"])
    return (np.ascontiguousarray(data[:, names.index("rho")]),
            np.ascontiguousarray(data[:, names.index("u")]))


def initial_states(config):
    """The validated initial state of every grid the run integrates, in the run's order.

    That is the ``[grid]`` state for ``rbe_run``, ``ghs_run``, ``epsilon_sweep`` and a
    temporal ``convergence_study``; one state per ``[study] resolutions`` size and then
    the 4 * max reference for a spatial study; none for ``dispersion_study`` and
    ``steady_profile``.  Each has its system's state class.  Initial data that cannot
    be built, or a state that fails its own check, raises one :class:`ConfigError`
    whose problems start with ``[initial]``.
    """
    kind, st = config.kind, config["study"]
    if kind in ("dispersion_study", "steady_profile"):
        return []
    grids = [config.grid]
    if kind == "convergence_study" and st["variant"] == "spatial":
        grids = [Grid.periodic(config["grid"]["length"], n)
                 for n in (*st["resolutions"], 4 * max(st["resolutions"]))]
    state_cls = _system(config)[0]
    try:
        return [state_cls(0.0, *build_initial(config, grid), grid) for grid in grids]
    except (ConfigError, DomainError) as exc:
        problems = getattr(exc, "problems", [str(exc)])
        raise ConfigError([f"[initial] {p}" for p in problems]) from exc


def _unusable_output(directory, reason):
    return ConfigError([f"output directory {directory} cannot be created: {reason}"])


def check_output_dir(config, override=None):
    """The absolute directory :func:`resolve_output_dir` makes, checked without making
    anything: its nearest existing ancestor must be a directory, or :class:`ConfigError`
    with the text that making it would give."""
    directory = Path(os.environ.get("BAROLAB_OUTPUT_ROOT", ""),
                     override or config.output_directory).absolute()
    for path in (directory, *directory.parents):
        try:
            mode = path.stat().st_mode
        except FileNotFoundError:
            continue
        except (OSError, ValueError) as exc:  # under a regular file, unsearchable, a bad name
            raise _unusable_output(directory, exc) from exc
        if not stat.S_ISDIR(mode):  # only the directory itself can exist as another file
            raise _unusable_output(directory, FileExistsError(
                errno.EEXIST, os.strerror(errno.EEXIST), str(directory)))
        break
    return directory


def resolve_output_dir(config, override=None):
    """``override`` or the configured directory, under ``BAROLAB_OUTPUT_ROOT`` when relative;
    created, and absolute, so that a directory resolved once passes through unchanged.
    A directory that cannot be created raises :class:`ConfigError`."""
    directory = check_output_dir(config, override)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise _unusable_output(directory, exc) from exc
    return directory


def run_experiment(config, output_dir=None):
    """Execute one experiment; returns ``(exit_code, summary dict)``.

    Artifacts land in the resolved output directory; the summary is also
    written there as ``summary.json``.  Only a :class:`ConfigError`, raised
    before the first step, exits 1; every later failure exits 2.
    """
    outdir = resolve_output_dir(config, output_dir)
    started = time.perf_counter()
    runner = {
        "rbe_run": _run_time_series,
        "ghs_run": _run_time_series,
        "dispersion_study": _run_dispersion,
        "steady_profile": _run_steady_profile,
        "epsilon_sweep": _run_epsilon_sweep,
        "convergence_study": _run_convergence,
    }[config.kind]
    try:
        code, summary = runner(config, outdir)
    except ConfigError as exc:  # the initial data, which the runner builds first
        code = EXIT_CONFIG
        summary = {"error": str(exc)}
    except BarolabError as exc:
        # a run that failed: an integration failure (which carries its time t), a
        # steady profile that leaves the admissible densities, or a measurement or
        # fit that failed its own check
        code = EXIT_INTEGRATION
        summary = {"error": str(exc), "failure_time": getattr(exc, "t", None)}
    summary["kind"] = config.kind
    summary["wall_clock_s"] = time.perf_counter() - started
    write_json(outdir / "summary.json", summary)
    return code, summary


def _drift(series, column):
    """Relative change of a column; None (JSON null) where it is undefined: the column
    starts at 0 and moves, or the change is not finite (an end value overflowed).
    Python floats, so that a non-finite change raises no numpy warning."""
    first, last = float(series[0][column]), float(series[-1][column])
    if abs(first) > 1e-12:
        drift = abs(last - first) / abs(first)
        return drift if math.isfinite(drift) else None
    return 0.0 if last == first else None


def _run_time_series(config, outdir):
    """``rbe_run`` and ``ghs_run``: one integration with diagnostics and snapshots.

    ``rbe_run`` snapshots carry the nonlocal momentum ``m`` and the
    regularizing flux ``R``; ``ghs_run`` snapshots carry ``rho*u`` and no
    ``R``, and its summary has no momentum drift.
    """
    grid = config.grid
    reg, eos = config.regularizer, config.eos
    state_cls, driver, _ = _system(config)
    initial, = initial_states(config)
    try:
        result = driver(initial, config.solver, reg, eos)
    except IntegrationError as exc:  # the rows up to the failure, then the exit-2 summary
        write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, zip(*exc.series))
        raise
    write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, zip(*result.series))
    index = [(idx, state.t, f"snapshot_{idx:06d}.csv")
             for idx, state in enumerate(result.snapshots)]
    for (_, _, name), state in zip(index, result.snapshots):
        if state_cls is GhsState:
            header, cols = "x,rho,u,m", (state.rho * state.u,)
        else:
            op = SLSystem(grid, state.rho, reg)
            header, cols = "x,rho,u,m,R", (op.apply(state.u, far=grid.u_far),
                                           op.smooth(reg_source(state, reg, eos)))
        write_csv(outdir / name, header, (grid.x, state.rho, state.u, *cols))
    write_csv(outdir / "snapshots_index.csv", "index,t,filename", zip(*index))
    summary = {
        "steps": result.steps,
        "final_time": result.final.t,
        "energy_drift": _drift(result.series, 4),
        "mass_drift": _drift(result.series, 2),
        "blowup": result.blowup,
        "blowup_time": result.blowup_time,
    }
    if state_cls is State:
        summary["momentum_drift"] = _drift(result.series, 3)
    code = EXIT_BLOWUP if (result.blowup and config.solver.on_blowup == "fail") else EXIT_OK
    return code, summary


def _run_dispersion(config, outdir):
    eos, reg = config.eos, config.regularizer
    c_theory = analysis.phase_speed(eos)
    amplitude = config["study"]["amplitude"]
    rows, worst = [], 0.0
    for k in config["study"]["modes"]:
        c = analysis.measured_phase_speed(eos, reg, k, amplitude)
        rel = abs(c - c_theory) / c_theory
        worst = max(worst, rel)
        rows.append((k, c_theory, c, rel))
    write_csv(outdir / "dispersion.csv", "k,c_theory,c_measured,rel_err", zip(*rows))
    return EXIT_OK, {"max_rel_err": worst, "modes": config["study"]["modes"]}


def _run_steady_profile(config, outdir):
    eos, reg = config.eos, config.regularizer
    st = config["study"]
    fluxes = analysis.SteadyFluxes(st["mass_flux"], st["momentum_flux"], st["energy_flux"])
    res = analysis.integrate_steady_profile(fluxes, eos, reg, st["rho_start"], x_max=st["x_max"])
    if res.stop != "sonic":
        x, rho, summary = res.x, res.rho, {"alpha": None, "stop": res.stop}
    else:
        x, rho, x0, rho_s = analysis.cusp_profile(res, fluxes, eos, reg, n=st["points"])
        fit = analysis.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s)
        summary = {"alpha": fit.alpha, "sonic_density": rho_s, "cusp_position": x0,
                   "predicted_amplitude": analysis.cusp_amplitude_prediction(
                       fluxes, eos, reg, rho_s)}
        write_json(outdir / "fit.json", dataclasses.asdict(fit))
    write_csv(outdir / "profile.csv", "x,rho", (x, rho))
    return EXIT_OK, summary


def _final(result, member):
    """A study member's final state; a member that blew up before ``t_end`` fails the study."""
    if result.blowup:
        raise IntegrationError(f"study member {member} blew up before t_end", result.blowup_time)
    return result.final


def _run_epsilon_sweep(config, outdir):
    eos, grid = config.eos, config.grid
    initial, = initial_states(config)
    reference = rusanov_run(initial, config.solver.t_end, eos)
    rows = []
    for eps in config["study"]["epsilons"]:
        reg = dataclasses.replace(config.regularizer, epsilon=eps)
        final = _final(run(initial, config.solver, reg, eos), f"epsilon = {eps}")
        dist = grid.integrate(np.abs(final.rho - reference.rho) + np.abs(final.u - reference.u))
        rows.append((eps, dist))
    write_csv(outdir / "epsilon_sweep.csv", "epsilon,l1_distance", zip(*rows))
    dists = [d for _, d in rows]
    return EXIT_OK, {"epsilons": [e for e, _ in rows], "l1_distances": dists,
                     "monotone_decreasing": all(a > b for a, b in zip(dists, dists[1:]))}


def _fixed_dt_advance(initial, t_end, steps, reg, eos, stepper):
    state, dt = initial, t_end / steps
    for _ in range(steps):
        state = stepper(state, dt, reg, eos)
    return state


def _run_convergence(config, outdir):
    eos, reg = config.eos, config.regularizer
    st = config["study"]
    resolutions = st["resolutions"]
    t_end = config.solver.t_end
    _, driver, stepper = _system(config)
    initials = initial_states(config)
    errs = []
    if st["variant"] == "spatial":
        *finals, ref = [_final(driver(initial, config.solver, reg, eos), f"n = {initial.grid.n}")
                        for initial in initials]
        for final in finals:
            stride = ref.grid.n // final.grid.n
            errs.append(float(np.max(np.abs(final.rho - ref.rho[::stride]))))
    else:
        initial, = initials
        ref = _fixed_dt_advance(initial, t_end, 8 * max(resolutions), reg, eos, stepper)
        for steps in resolutions:
            final = _fixed_dt_advance(initial, t_end, steps, reg, eos, stepper)
            errs.append(float(np.max(np.abs(final.rho - ref.rho))))
    # an order needs two positive errors; None (JSON null) otherwise, as in _drift
    orders = [float(np.log(errs[i] / errs[i + 1])
                    / np.log(resolutions[i + 1] / resolutions[i]))
              if errs[i] > 0.0 and errs[i + 1] > 0.0 else None
              for i in range(len(errs) - 1)]
    write_csv(outdir / "convergence.csv", "resolution,error", (resolutions, errs))
    return EXIT_OK, {"variant": st["variant"], "solver": st["solver"], "resolutions": resolutions,
                     "errors": errs, "observed_orders": orders}
