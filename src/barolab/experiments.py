"""Experiment orchestration and all file output.

Every run writes plain CSV (17 significant digits, the lossless round-trip
precision for doubles) plus a ``summary.json``.  Given the same configuration
the CSV bodies are byte-identical across runs: there is no randomness anywhere
in the pipeline and wall-clock timing lives only in the JSON summary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np

from . import analysis
from .config import build_initial
from .errors import BarolabError, ConfigError, DomainError
from .euler import State, reg_source, run, rusanov_run, step
from .sturm_liouville import SLSystem
from .grid import Grid
from .hunter_saxton import GhsState, ghs_run, ghs_step

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_BLOWUP = 3

DIAGNOSTICS_HEADER = "t,dt,mass,momentum,energy,sup_Wx"


def _system(name):
    """``(state class, driver, stepper)`` of ``rbe`` or ``ghs``, built per call so that a
    rebinding of these names (perfbench's span tracer does one) reaches every run."""
    return {"rbe": (State, run, step), "ghs": (GhsState, ghs_run, ghs_step)}[name]


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_snapshot(path, grid, rho, u, m, reg_flux=None):
    cols = [grid.x, rho, u, m]
    header = "x,rho,u,m"
    if reg_flux is not None:
        cols.append(reg_flux)
        header += ",R"
    write_csv(path, header, zip(*cols))


def read_snapshot(path, grid):
    """Re-ingest a snapshot CSV as an initial condition on ``grid``.

    A file that cannot be read, lacks a ``rho`` or ``u`` column or does not
    have one row per grid node raises :class:`ConfigError`.
    """
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError([f"snapshot {path} cannot be read: {exc}"]) from exc
    missing = [c for c in ("rho", "u") if c not in (data.dtype.names or ())]
    if missing:
        raise ConfigError([f"snapshot {path} has no {' or '.join(missing)} column"])
    if data.size != grid.n:
        raise ConfigError([f"snapshot {path} has {data.size} rows, grid has {grid.n}"])
    return np.ascontiguousarray(data["rho"]), np.ascontiguousarray(data["u"])


def resolve_output_dir(config, override=None):
    directory = Path(override) if override else Path(config.output_directory)
    root = os.environ.get("BAROLAB_OUTPUT_ROOT")
    if root and not directory.is_absolute():
        directory = Path(root) / directory
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def run_experiment(config, output_dir=None):
    """Execute one experiment; returns ``(exit_code, summary dict)``.

    Artifacts land in the resolved output directory; the summary is also
    written there as ``summary.json``.
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
    except (ConfigError, DomainError) as exc:
        # a statically-invalid setup that slipped past parsing (e.g. an
        # unreadable snapshot file, or initial data incompatible with the law)
        code = EXIT_CONFIG
        summary = {"error": str(exc)}
    except BarolabError as exc:
        # a run that failed: an integration failure (which carries its time t),
        # or a measurement or fit that failed its own check
        code = EXIT_INTEGRATION
        summary = {"error": str(exc), "failure_time": getattr(exc, "t", None)}
    summary["kind"] = config.kind
    summary["wall_clock_s"] = time.perf_counter() - started
    with open(outdir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return code, summary


def _drift(series, column):
    """Relative change of a column; None when it starts at 0 and moves (undefined)."""
    first, last = series[0][column], series[-1][column]
    if abs(first) > 1e-12:
        return abs(last - first) / abs(first)
    return 0.0 if last == first else None


def _run_time_series(config, outdir):
    """``rbe_run`` and ``ghs_run``: one integration with diagnostics and snapshots.

    ``rbe_run`` snapshots carry the nonlocal momentum ``m`` and the
    regularizing flux ``R``; ``ghs_run`` snapshots carry ``rho*u`` and no
    ``R``, and its summary has no momentum drift.
    """
    grid = config.grid
    reg, eos = config.regularizer, config.eos
    is_ghs = config.kind == "ghs_run"
    state_cls, driver, _ = _system(config.kind.removesuffix("_run"))
    result = driver(state_cls(0.0, *build_initial(config, grid), grid), config.solver, reg, eos)

    write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, result.series)
    for idx, (_, state) in enumerate(result.snapshots):
        path = outdir / f"snapshot_{idx:06d}.csv"
        if is_ghs:
            write_snapshot(path, grid, state.rho, state.u, state.rho * state.u)
        else:
            op = SLSystem(grid, state.rho, reg)
            write_snapshot(path, grid, state.rho, state.u, op.apply(state.u, far=grid.u_far),
                           op.smooth(reg_source(state, reg, eos)))
    with open(outdir / "snapshots_index.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("index,t,filename\n")
        for idx, (t, _) in enumerate(result.snapshots):
            f.write(f"{idx},{_fmt(t)},snapshot_{idx:06d}.csv\n")
    summary = {
        "steps": result.steps,
        "final_time": result.final.t,
        "energy_drift": _drift(result.series, 4),
        "mass_drift": _drift(result.series, 2),
        "blowup": result.blowup,
        "blowup_time": result.blowup_time,
    }
    if not is_ghs:
        summary["momentum_drift"] = _drift(result.series, 3)
    code = EXIT_BLOWUP if (result.blowup and config["solver"]["on_blowup"] == "fail") else EXIT_OK
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
    write_csv(outdir / "dispersion.csv", "k,c_theory,c_measured,rel_err", rows)
    return EXIT_OK, {"max_rel_err": worst, "modes": config["study"]["modes"]}


def _run_steady_profile(config, outdir):
    eos, reg = config.eos, config.regularizer
    st = config["study"]
    fluxes = analysis.SteadyFluxes.uniform(
        st["mass_flux"], st["momentum_flux"], st["energy_flux"])
    summary = {}
    try:
        x, rho, x0, rho_s = analysis.cusp_profile(
            fluxes, eos, reg, st["rho_start"], n=st["points"], x_max=st["x_max"])
        fit = analysis.fit_singularity_exponent(x, rho, x0, rho_ref=rho_s)
        with open(outdir / "fit.json", "w", encoding="utf-8") as f:
            json.dump(fit.to_report(), f, indent=2, sort_keys=True)
            f.write("\n")
        summary.update(
            alpha=fit.alpha, sonic_density=rho_s, cusp_position=x0,
            predicted_amplitude=analysis.cusp_amplitude_prediction(fluxes, eos, reg, rho_s),
        )
    except DomainError:
        res = analysis.integrate_steady_profile(
            fluxes, eos, reg, st["rho_start"], -1, x_max=st["x_max"])
        x, rho = res.x, res.rho
        summary.update(alpha=None, stop=res.stop)
    write_csv(outdir / "profile.csv", "x,rho", zip(x, rho))
    return EXIT_OK, summary


def _run_epsilon_sweep(config, outdir):
    eos, grid = config.eos, config.grid
    rho0, u0 = build_initial(config, grid)
    initial = State(0.0, rho0, u0, grid)
    reference = rusanov_run(initial, config.solver.t_end, eos)
    rows = []
    for eps in config["study"]["epsilons"]:
        reg = dataclasses.replace(config.regularizer, epsilon=eps)
        res = run(initial, config.solver, reg, eos)
        dist = grid.integrate(np.abs(res.final.rho - reference.rho)
                              + np.abs(res.final.u - reference.u))
        rows.append((eps, dist))
    write_csv(outdir / "epsilon_sweep.csv", "epsilon,l1_distance", rows)
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
    state_cls, driver, stepper = _system(st["solver"])
    errs = []
    if st["variant"] == "spatial":
        ref_n = 4 * max(resolutions)
        finals = {}
        for n in (*resolutions, ref_n):
            grid = Grid.periodic(config["grid"]["length"], n)
            initial = state_cls(0.0, *build_initial(config, grid), grid)
            finals[n] = driver(initial, config.solver, reg, eos).final
        for n in resolutions:
            stride = ref_n // n
            errs.append(float(np.max(np.abs(finals[n].rho - finals[ref_n].rho[::stride]))))
    else:
        initial = state_cls(0.0, *build_initial(config, config.grid), config.grid)
        ref = _fixed_dt_advance(initial, t_end, 8 * max(resolutions), reg, eos, stepper)
        for steps in resolutions:
            final = _fixed_dt_advance(initial, t_end, steps, reg, eos, stepper)
            errs.append(float(np.max(np.abs(final.rho - ref.rho))))
    # an order needs two positive errors; None (JSON null) otherwise, as in _drift
    orders = [float(np.log(errs[i] / errs[i + 1])
                    / np.log(resolutions[i + 1] / resolutions[i]))
              if errs[i] > 0.0 and errs[i + 1] > 0.0 else None
              for i in range(len(errs) - 1)]
    write_csv(outdir / "convergence.csv", "resolution,error",
              zip(resolutions, errs))
    return EXIT_OK, {"variant": st["variant"], "solver": st["solver"], "resolutions": resolutions,
                     "errors": errs, "observed_orders": orders}
