"""The four benchmark workloads: seeded inputs, one repetition, correctness checks.

Each workload is driven through barolab's public API.  The seed sets only the
sine phase and the bump centre of the initial data; amplitudes are fixed so
that the regime and the step count hardly change from seed to seed.  barolab
receives the generated arrays (or, for the CLI workload, a snapshot CSV).

A workload has three parts, all called in the child process:

* ``setup(bl, seed, workdir)`` -> ``(ctx, seconds)``: builds inputs; the
  seconds cover only the calls into barolab (config parse, grid and state
  build), not the generation of the benchmark's own inputs;
* ``run(bl, ctx)`` -> ``(seconds, outcome)``: one timed repetition;
* ``finish(ctx, outcome)`` -> ``Result``: counts operations and failures and
  checks every completed operation with the acceptance tolerances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# acceptance tolerances (criteria 1, 2 and 6), unchanged
ENERGY_DRIFT = 1e-6
MASS_DRIFT = 1e-12
MOMENTUM_DRIFT = 1e-8


@dataclass
class Result:
    attempted: int
    failed: int
    rhs_evals: int                      # right-hand-side evaluations performed
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _config_text(kind, eos, reg, grid, solver, initial="", epsilon="0.1"):
    return (f"[experiment]\nkind = {kind}\n[eos]\nkind = {eos}\n"
            f"[regularizer]\nkind = {reg}\nepsilon = {epsilon}\n[grid]\n{grid}\n"
            f"[solver]\n{solver}\n{initial}")


def _periodic_distance(x, centre):
    return (x - centre + 0.5) % 1.0 - 0.5


def _sine_bump(x, phase, centre, amp, bump, width, u_mean, u_amp):
    """Sine plus a periodized Gaussian bump on the unit periodic domain."""
    rho = (1.0 + amp * np.sin(2.0 * np.pi * (x - phase))
           + bump * np.exp(-((_periodic_distance(x, centre) / width) ** 2)))
    return rho, u_mean + u_amp * np.cos(2.0 * np.pi * (x - phase))


def _drift(series, column):
    first, last = series[0][column], series[-1][column]
    return abs(last - first) / max(abs(first), 1e-12)


def _series_sha256(series):
    return hashlib.sha256(np.asarray(series, dtype=float).tobytes()).hexdigest()


def _check_drifts(label, drifts, problems):
    for name, value, bound in zip(("energy", "mass", "momentum"), drifts,
                                  (ENERGY_DRIFT, MASS_DRIFT, MOMENTUM_DRIFT)):
        if value is not None and not value <= bound:
            problems.append(f"{label}: {name} drift {value:.3e} > {bound:.0e}")


class Crit1Periodic512:
    """The two criterion-1 runs through ``barolab.run``.

    Why: the acceptance fixture users wait on (shallow water + cubic and
    isothermal + inverse, eps = 0.1, periodic n = 512, cfl = 0.2, sine-bump
    data).  At n = 512 a step is bound by call overhead: operator assembly,
    factorisation and solve, ``np.roll`` in ``ddx`` and the repeated density
    checks in ``eos``.  ``t_end`` is 0.1 instead of the fixture's 1.0 so that
    one repetition takes about two seconds, not half a minute, and a run
    holds enough repetitions for a steady median; the drift tolerances are
    the fixture's.
    """

    name = "crit1_periodic_512"
    n = 512
    laws = (("shallow_water", "cubic"), ("isothermal", "inverse"))
    t_end = 0.1

    def setup(self, bl, seed, workdir):
        rng = random.Random(seed)
        phase, centre = rng.random(), rng.random()
        start = time.perf_counter()
        configs = [bl.config.parse_config(_config_text(
            "rbe_run", eos, reg, f"topology = periodic\nn = {self.n}\nlength = 1.0",
            f"cfl = 0.2\nt_end = {self.t_end}")) for eos, reg in self.laws]
        grid = bl.config.build_grid(configs[0])
        built = time.perf_counter() - start
        rho, u = _sine_bump(grid.x, phase, centre, 0.05, 0.03, 0.1, 1.0, 0.05)
        start = time.perf_counter()
        state = bl.State(0.0, rho, u, grid).validate()
        built += time.perf_counter() - start
        return {"configs": configs, "state": state}, built

    def run(self, bl, ctx):
        results = []
        start = time.perf_counter()
        for cfg in ctx["configs"]:
            try:
                results.append(bl.run(ctx["state"], cfg.solver, cfg.regularizer, cfg.eos))
            except bl.BarolabError as exc:
                results.append(exc)
        return time.perf_counter() - start, results

    def finish(self, ctx, results):
        out = Result(attempted=len(results), failed=0, rhs_evals=0)
        for (eos, reg), res in zip(self.laws, results):
            label = f"{eos}+{reg}"
            if isinstance(res, Exception):
                out.failed += 1
                out.info[label] = f"failed: {res}"
                continue
            out.rhs_evals += 4 * res.steps
            if res.blowup:
                out.problems.append(f"{label}: blow-up at t = {res.blowup_time}")
            _check_drifts(label, [_drift(res.series, c) for c in (4, 2, 3)], out.problems)
            out.info[label] = {"steps": res.steps, "series_sha256": _series_sha256(res.series)}
        return out


class GhsPeriodic2048:
    """``barolab.ghs_run`` on criterion-6 data at n = 2048.

    Why: the second RK4 driver, with ``grid.antiderivative`` and
    ``eos.enthalpy`` in its right-hand side and no Sturm-Liouville operator
    at all, so an operator optimisation must leave it unchanged.  ``t_end``
    is criterion 6's 0.5, where the gradient energy returns to its start
    value; cfl = 0.8 gives the same dt as criterion 6's cfl = 0.2 at n = 512.
    """

    name = "ghs_periodic_2048"
    n = 2048

    def setup(self, bl, seed, workdir):
        rng = random.Random(seed)
        phase, centre = rng.random(), rng.random()
        start = time.perf_counter()
        cfg = bl.config.parse_config(_config_text(
            "ghs_run", "shallow_water", "cubic",
            f"topology = periodic\nn = {self.n}\nlength = 1.0", "cfl = 0.8\nt_end = 0.5"))
        grid = bl.config.build_grid(cfg)
        built = time.perf_counter() - start
        rho, u = _sine_bump(grid.x, phase, centre, 0.004, 0.002, 0.15, 0.0, 0.008)
        start = time.perf_counter()
        state = bl.GhsState(0.0, rho, u, grid).validate()
        built += time.perf_counter() - start
        return {"config": cfg, "state": state}, built

    def run(self, bl, ctx):
        cfg = ctx["config"]
        start = time.perf_counter()
        try:
            res = bl.ghs_run(ctx["state"], cfg.solver, cfg.regularizer, cfg.eos)
        except bl.BarolabError as exc:
            res = exc
        return time.perf_counter() - start, res

    def finish(self, ctx, res):
        if isinstance(res, Exception):
            return Result(1, 1, 0, info={"error": str(res)})
        out = Result(1, 0, 4 * res.steps,
                     info={"steps": res.steps, "series_sha256": _series_sha256(res.series)})
        if res.blowup:
            out.problems.append(f"blow-up at t = {res.blowup_time}")
        _check_drifts("ghs", [_drift(res.series, 4), None, None], out.problems)
        return out


class SweepLine8192:
    """``barolab sweep`` over two epsilons, in-process through ``cli.main``.

    Why: the only workload on the line topology, the CSV output path and the
    sweep thread pool (2 members, 2 threads, nproc = 2).  Isothermal +
    inverse at n = 8192 with a Gaussian bump read through
    ``[initial] kind = file`` and a uniform flow of 0.5, so that momentum is
    nonzero and its drift is a meaningful check.  The seeded bump centre
    stays within [-1, 1]: the operator's exponential tail (length about 0.45
    at eps = 0.1) reaching the edges of [-10, 10] leaks mass, and a bump at
    x = 1.9 already drifts by 1.6e-12 > 1e-12 in mass.  ``snapshot_every`` gives
    six snapshots per member, so snapshot output (``smooth`` and ``apply``
    of a freshly assembled operator, then formatting) is a sizable share.
    """

    name = "sweep_line_8192"
    n = 8192
    epsilons = ("0.1", "0.05")
    flow = 0.5

    def setup(self, bl, seed, workdir):
        centre = random.Random(seed).uniform(-1.0, 1.0)
        workdir = Path(workdir)
        init, cfg_path = workdir / "sweep_init.csv", workdir / "sweep.ini"
        out_dir = workdir / "sweep_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        x = -10.0 + (20.0 / self.n) * np.arange(self.n)
        rho = 1.0 + 0.1 * np.exp(-((x - centre) ** 2))
        with open(init, "w", encoding="utf-8", newline="\n") as f:
            f.write("x,rho,u\n")
            for row in zip(x, rho, np.full(self.n, self.flow)):
                f.write(",".join(format(v, ".17g") for v in row) + "\n")
        texts = {eps: _config_text(
            "rbe_run", "isothermal", "inverse",
            f"topology = line\nn = {self.n}\nx_min = -10\nx_max = 10\n"
            f"u_left = {self.flow}\nu_right = {self.flow}",
            "cfl = 0.5\nt_end = 0.1\nsnapshot_every = 25",
            f"[initial]\nkind = file\npath = {init.resolve()}\n", eps)
            for eps in self.epsilons}
        cfg_path.write_text(texts[self.epsilons[0]], encoding="utf-8")
        start = time.perf_counter()
        cfg = bl.config.parse_config(texts[self.epsilons[0]])
        bl.config.build_initial(cfg, bl.config.build_grid(cfg))
        built = time.perf_counter() - start
        return {"config": str(cfg_path), "out": out_dir, "texts": texts}, built

    def run(self, bl, ctx):
        argv = ["sweep", ctx["config"], "--param", "regularizer.epsilon",
                "--values", ",".join(self.epsilons), "--output", str(ctx["out"])]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = bl.cli.main(argv)
            except bl.BarolabError as exc:
                code = exc
        return time.perf_counter() - start, code

    def finish(self, ctx, code):
        out = Result(attempted=len(self.epsilons), failed=0, rhs_evals=0)
        if isinstance(code, Exception):
            out.failed = out.attempted
            out.info["error"] = str(code)
            return out
        report = json.loads((ctx["out"] / "sweep.json").read_text(encoding="utf-8"))
        for eps in self.epsilons:
            member = report.get(eps)
            if member is None or member["exit_code"] != 0:
                out.failed += 1
                out.info[eps] = f"failed: {member}"
                continue
            out.rhs_evals += 4 * member["steps"]
            _check_drifts(f"epsilon={eps}", [member["energy_drift"], member["mass_drift"],
                                             member["momentum_drift"]], out.problems)
            member_dir = ctx["out"] / f"epsilon={eps}"
            out.info[eps] = {
                "steps": member["steps"],
                "csv_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in sorted(member_dir.glob("*.csv"))},
            }
        shutil.rmtree(ctx["out"], ignore_errors=True)
        return out

    def reference(self, bl, ctx):
        """Seconds for the sweep's members run one after the other.

        The base of ``cli.sweep.speedup``: the same members through
        ``experiments.run_experiment``, as the pool runs them, without the pool.
        """
        start = time.perf_counter()
        for eps in self.epsilons:
            cfg = bl.config.parse_config(ctx["texts"][eps])
            bl.experiments.run_experiment(cfg, ctx["out"] / f"epsilon={eps}")
        elapsed = time.perf_counter() - start
        shutil.rmtree(ctx["out"], ignore_errors=True)
        return {"sequential_s": elapsed}


class Rhs65536:
    """Repeated ``barolab.rhs`` on seeded states, alternating topologies.

    Why: the ROADMAP's largest size, the only regime where per-element
    arithmetic outweighs call overhead.  Periodic sine-bump and line
    Gaussian-bump states of shallow water + cubic, eps = 0.1.  At the commit
    that introduced this benchmark every call raises
    ``NumericalBreakdownError`` at the solve's residual guard after the full
    computation, so the workload reports every call failed; it is kept at
    this size so that the defect shows.
    """

    name = "rhs_65536"
    n = 65536
    calls = 96

    def setup(self, bl, seed, workdir):
        rng = random.Random(seed)
        phase, centre, line_centre = rng.random(), rng.random(), rng.uniform(-2.0, 2.0)
        start = time.perf_counter()
        periodic = bl.config.parse_config(_config_text(
            "rbe_run", "shallow_water", "cubic",
            f"topology = periodic\nn = {self.n}\nlength = 1.0", "cfl = 0.2"))
        line = bl.config.parse_config(_config_text(
            "rbe_run", "shallow_water", "cubic",
            f"topology = line\nn = {self.n}\nx_min = -10\nx_max = 10\n"
            "u_left = 0.5\nu_right = 0.5", "cfl = 0.2"))
        grids = [bl.config.build_grid(c) for c in (periodic, line)]
        built = time.perf_counter() - start
        fields = [
            _sine_bump(grids[0].x, phase, centre, 0.05, 0.03, 0.1, 1.0, 0.05),
            (1.0 + 0.3 * np.exp(-((grids[1].x - line_centre) ** 2)), np.full(self.n, 0.5)),
        ]
        start = time.perf_counter()
        states = [bl.State(0.0, rho, u, g).validate() for g, (rho, u) in zip(grids, fields)]
        built += time.perf_counter() - start
        return {"cases": list(zip((periodic, line), states))}, built

    def run(self, bl, ctx):
        """Times the calls only; each completed output is checked between calls."""
        elapsed, failed, problems = 0.0, 0, []
        for i in range(self.calls):
            cfg, state = ctx["cases"][i % 2]
            start = time.perf_counter()
            try:
                drho, du = bl.rhs(state, cfg.regularizer, cfg.eos)
            except bl.BarolabError:
                elapsed += time.perf_counter() - start
                failed += 1
                continue
            elapsed += time.perf_counter() - start
            problems += self._check(state, drho, du)
        return elapsed, (failed, problems)

    def _check(self, state, drho, du):
        if not (np.all(np.isfinite(drho)) and np.all(np.isfinite(du))):
            return [f"{state.grid.topology}: non-finite output"]
        if state.grid.is_periodic:
            total, scale = abs(drho.sum()), np.max(np.abs(drho))
            if total > self.n * np.finfo(float).eps * scale:
                return [f"periodic: sum(drho) = {total:.3e} is not zero to roundoff"]
        return []

    def finish(self, ctx, outcome):
        failed, problems = outcome
        return Result(self.calls, failed, self.calls, problems,
                      info={"failed_calls": failed})


WORKLOADS = {w.name: w for w in (Crit1Periodic512(), GhsPeriodic2048(),
                                 SweepLine8192(), Rhs65536())}
