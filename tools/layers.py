#!/usr/bin/env python3
"""Print the µs per call and the minor page faults per call of the solver's layers.

Usage, from anywhere::

    python tools/layers.py

It measures the barolab of the checkout it sits in (``../src`` from this file).
The problem is the one of the ROADMAP's per-layer table: shallow water, cubic
regularizer, eps = 0.1, on a periodic domain of length 2 pi with
``rho = 1 + 0.2 sin x`` and ``u = 0.1 cos x``, at n = 512, 2048, 8192 and
65536.  The layers are ``ddx``, ``rhs``, one RK4 ``step``, ``SLSystem(...)``
(assembly and factorization), ``solve_dx`` and ``diagnostics`` of the regularized
Euler system, ``ghs_rhs`` and one ``ghs_step`` of the Hunter-Saxton system on a
``GhsState`` of the same fields, and ``run`` and ``ghs_run``, the run loops of both
systems.  A call of a run row is one whole run of ``RUN_STEPS`` steps, each with its
``cfl_dt`` and its ``diagnostics`` row, so its columns are per run, not per step.

Each (layer, n) cell is measured in a fresh interpreter, one cell at a time, so
that no cell sees the heap that an earlier one left.  There the layer is called
once to warm up and then timed in 7 loops of about 0.05 s each; the first table
gives the median µs per call.  The second gives ``ru_minflt`` of that
interpreter over the 7 loops, divided by the calls made: the pages that the
layer's arrays fault in again on every call.

Before the tables, one start-up line gives the median wall ms, over
``STARTUP_REPEATS`` fresh interpreters each, of ``import barolab.cli`` and of
``python -m barolab.cli validate`` on ``configs/rbe_periodic_cubic.cfg``,
interpreter start included, and ``ru_maxrss`` of the last import in MB.
"""

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import barolab as bl  # noqa: E402

SIZES = (512, 2048, 8192, 65536)
REPEATS = 7
LOOP_S = 0.05
RUN_STEPS = 20
STARTUP_REPEATS = 5


def layers(n):
    """``{name: zero-argument call}`` for the table's problem on ``n`` cells."""
    eos = bl.EquationOfState.shallow_water(1.0)
    reg = bl.Regularizer.cubic(0.1)
    grid = bl.Grid.periodic(2.0 * np.pi, n)
    state = bl.State(0.0, 1.0 + 0.2 * np.sin(grid.x), 0.1 * np.cos(grid.x), grid)
    ghs = bl.GhsState(state.t, state.rho, state.u, grid)
    system = bl.SLSystem(grid, state.rho, reg)
    psi = bl.reg_source(state, reg, eos)
    dt = bl.cfl_dt(state, eos, 0.5)
    # half a step short of RUN_STEPS first steps: dt moves by far less than that here
    config = bl.SolverConfig(t_end=(RUN_STEPS - 0.5) * dt, cfl=0.5)
    return {
        "ddx": lambda: grid.ddx(state.u),
        "rhs": lambda: bl.rhs(state, reg, eos),
        "step": lambda: bl.step(state, dt, reg, eos),
        "SLSystem(...)": lambda: bl.SLSystem(grid, state.rho, reg),
        "solve_dx": lambda: system.solve_dx(psi),
        "diagnostics": lambda: bl.diagnostics(state, reg, eos),
        "ghs_rhs": lambda: bl.ghs_rhs(ghs, reg, eos),
        "ghs_step": lambda: bl.ghs_step(ghs, dt, reg, eos),
        "run": lambda: bl.run(state, config, reg, eos),
        "ghs_run": lambda: bl.ghs_run(ghs, config, reg, eos),
    }


def measure(call):
    """``(median µs per call, minor faults per call)`` of ``call``."""
    call()
    start = time.perf_counter()
    call()
    number = max(1, int(LOOP_S / max(time.perf_counter() - start, 1e-9)))
    times, calls = [], 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number)
        calls += number
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e6 * statistics.median(times), faults / calls


def measure_alone(name, n):
    """:func:`measure` of layer ``name`` on ``n`` cells, run in a fresh interpreter."""
    code = f"import layers; print(*layers.measure(layers.layers({n})[{name!r}]))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return tuple(map(float, out.split()))


def startup(repeats=STARTUP_REPEATS):
    """``(import ms, validate ms, import MB)``: the medians over ``repeats`` fresh
    interpreters of the wall ms of ``import barolab.cli`` and of ``barolab validate``
    on the periodic cubic config, and ``ru_maxrss`` of the last import in MB."""
    src = os.pathsep.join(p for p in (str(HERE.parent / "src"), os.environ.get("PYTHONPATH")) if p)

    def median_ms(*args):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, *args], cwd=HERE / "configs",
                                 env=dict(os.environ, PYTHONPATH=src),
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            times.append(1e3 * (time.perf_counter() - start))
        return statistics.median(times), out

    probe = ("import resource, barolab.cli; "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    import_ms, maxrss_kib = median_ms("-c", probe)  # ru_maxrss is in KiB on Linux
    validate_ms, _ = median_ms("-m", "barolab.cli", "validate", "rbe_periodic_cubic.cfg")
    return import_ms, validate_ms, int(maxrss_kib) * 1024 / 1e6


def table(title, rows):
    print(f"| {title} | " + " | ".join(f"n = {n}" for n in SIZES) + " |")
    print("|---" * (len(SIZES) + 1) + "|")
    for name, values in rows.items():
        cells = (f"{v:.3g}" if v < 1000 else f"{v:.0f}" for v in values)
        print(f"| `{name}` | " + " | ".join(cells) + " |")


def main():
    import_ms, validate_ms, import_mb = startup()
    print(f"start-up: import barolab.cli {import_ms:.0f} ms, {import_mb:.1f} MB; "
          f"barolab validate {validate_ms:.0f} ms (medians of {STARTUP_REPEATS} interpreters)")
    us, faults = {}, {}
    for n in SIZES:
        for name in layers(min(SIZES)):
            t, f = measure_alone(name, n)
            us.setdefault(name, []).append(t)
            faults.setdefault(name, []).append(f)
    print(f"barolab at {Path(bl.__file__).resolve().parent}; numpy {np.__version__}")
    print()
    table("µs per call", us)
    print()
    table("minor faults per call", faults)


if __name__ == "__main__":
    main()
