"""Span tracing for the benchmark's traced runs, installed from outside barolab.

The tracer wraps public barolab functions and methods of exported classes.
Each call records a span ``(id, parent, layer, start, end, failed)`` in
memory; the spans are reduced to per-layer metrics and written out once, when
the repetition ends.  Nothing under ``src/`` knows about it.

Functions are found by the name the package exports, then every binding of
that function object in a loaded ``barolab`` module is replaced, so calls made
through ``from .euler import run`` style imports are traced too.  A renamed
private helper therefore cannot break the trace; a renamed public name fails
loudly at install time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# layer name -> (object the function is looked up on, attribute name).
# The object is a dotted path from the ``barolab`` package: the package itself
# for exported functions, an exported class for methods, or a public module.
LAYERS = {
    "eos.pressure": ("EquationOfState", "pressure"),
    "eos.potential_derivatives": ("EquationOfState", "potential_derivatives"),
    "eos.sound_speed": ("EquationOfState", "sound_speed"),
    "eos.enthalpy": ("EquationOfState", "enthalpy"),
    "regularizer.derivatives": ("Regularizer", "derivatives"),
    "regularizer.composite_coefficients": ("", "composite_coefficients"),
    "grid.ddx": ("Grid", "ddx"),
    "grid.integrate": ("Grid", "integrate"),
    "grid.antiderivative": ("Grid", "antiderivative"),
    "grid.check_boundary": ("Grid", "check_boundary"),
    "sturm_liouville.assemble": ("SLSystem", "__init__"),
    "sturm_liouville.solve": ("SLSystem", "solve"),
    "sturm_liouville.solve_dx": ("SLSystem", "solve_dx"),
    "sturm_liouville.apply": ("SLSystem", "apply"),
    "sturm_liouville.smooth": ("SLSystem", "smooth"),
    "euler.run": ("", "run"),
    "euler.step": ("", "step"),
    "euler.rhs": ("", "rhs"),
    "euler.reg_source": ("", "reg_source"),
    "euler.diagnostics": ("", "diagnostics"),
    "euler.cfl_dt": ("", "cfl_dt"),
    "euler.momentum_field": ("", "momentum_field"),
    "hunter_saxton.ghs_run": ("", "ghs_run"),
    "hunter_saxton.ghs_step": ("", "ghs_step"),
    "hunter_saxton.ghs_rhs": ("", "ghs_rhs"),
    "hunter_saxton.ghs_source": ("", "ghs_source"),
    "hunter_saxton.ghs_energy": ("", "ghs_energy"),
    "experiments.run_experiment": ("experiments", "run_experiment"),
    "experiments.write_csv": ("experiments", "write_csv"),
    "experiments.read_snapshot": ("experiments", "read_snapshot"),
    "config.parse_config": ("config", "parse_config"),
    "config.build_initial": ("config", "build_initial"),
    "cli.main": ("cli", "main"),
}
NAMES = list(LAYERS)
STEP_LAYERS = ("euler.step", "hunter_saxton.ghs_step")
EOS_LAYERS = tuple(name for name in NAMES if name.startswith("eos."))


def per_layer_spec():
    """Every per-layer metric of a traced run: ``{name: (unit, better)}``.

    ``us_per_call`` is the mean inclusive time of one call; ``self_s`` is the
    total time of the layer's spans minus the time covered by their child
    spans.  Counts are per repetition.  Ratios whose base is absent from a
    workload (no step, no snapshot, no sweep) read 0.
    """
    spec = {}
    for name in NAMES:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
        spec[f"{name}.us_per_call"] = ("us", "lower")
    spec.update({
        "sturm_liouville.solve.failed": ("count", "lower"),
        "sturm_liouville.assemblies_per_snapshot": ("count", "lower"),
        "grid.ddx.calls_per_step": ("count", "lower"),
        "eos.calls_per_step": ("count", "lower"),
        "experiments.write_csv.MB": ("MB", "lower"),
        "experiments.write_csv.MB_per_s": ("MB/s", "higher"),
        "cli.sweep.speedup": ("ratio", "higher"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return spec


def _resolve(package, path):
    obj = package
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self):
        self.spans = []
        self.csv_files = []       # (basename, bytes) of every write_csv call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the main
            # thread is waiting in (the sweep's pool.map inside cli.main)
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, start, end, failed))

    def record_csv(self, path):
        size = os.path.getsize(path)
        with self._lock:
            self.csv_files.append((os.path.basename(str(path)), size))

    def install(self, package):
        """Wrap every layer of ``LAYERS``; returns the tracer for chaining."""
        modules = [m for name, m in sys.modules.items()
                   if name == "barolab" or name.startswith("barolab.")]
        for index, name in enumerate(NAMES):
            owner_path, attr = LAYERS[name]
            owner = _resolve(package, owner_path)
            original = getattr(owner, attr)
            wrapped = self._wrap(index, name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            rebound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"could not bind a tracer for {name}")
        return self

    def _wrap(self, index, name, fn):
        if name == "experiments.write_csv":
            @functools.wraps(fn)
            def traced_csv(*args, **kwargs):
                out = self.call(index, fn, args, kwargs)
                self.record_csv(args[0] if args else kwargs["path"])
                return out
            return traced_csv

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(index, fn, args, kwargs)
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"layers": NAMES,
                       "fields": ["id", "parent", "layer", "start", "end", "failed"],
                       "spans": self.spans}, f)
            f.write("\n")


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer):
    """Per-layer counts and times of one repetition, as ``{name: value}``."""
    spans = tracer.spans
    children = {}
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children.setdefault(span[1], []).append((span[3], span[4]))
    calls = [0] * len(NAMES)
    incl = [0.0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    for sid, _, layer, start, end, _ in spans:
        calls[layer] += 1
        incl[layer] += end - start
        self_s[layer] += (end - start) - _covered(children.get(sid, ()))

    index = {name: i for i, name in enumerate(NAMES)}

    def ancestors(span):
        parent = span[1]
        while parent in by_id:
            span = by_id[parent]
            yield NAMES[span[2]]
            parent = span[1]

    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_s"] = self_s[i]
        out[f"{name}.us_per_call"] = 1e6 * incl[i] / calls[i] if calls[i] else 0.0

    out["sturm_liouville.solve.failed"] = sum(
        1 for s in spans if s[2] == index["sturm_liouville.solve"] and s[5])

    # assemblies made for snapshot output: inside run_experiment, outside the solver
    snapshots = sum(1 for base, _ in tracer.csv_files if base.startswith("snapshot_"))
    drivers = {"euler.run", "hunter_saxton.ghs_run"}
    for_output = 0
    for span in spans:
        if span[2] == index["sturm_liouville.assemble"]:
            above = set(ancestors(span))
            if "experiments.run_experiment" in above and not above & drivers:
                for_output += 1
    out["sturm_liouville.assemblies_per_snapshot"] = for_output / snapshots if snapshots else 0.0

    steps = sum(calls[index[name]] for name in STEP_LAYERS)
    out["grid.ddx.calls_per_step"] = calls[index["grid.ddx"]] / steps if steps else 0.0
    out["eos.calls_per_step"] = (
        sum(calls[index[name]] for name in EOS_LAYERS) / steps if steps else 0.0)

    csv_mb = sum(size for _, size in tracer.csv_files) / 1e6
    csv_s = incl[index["experiments.write_csv"]]
    out["experiments.write_csv.MB"] = csv_mb
    out["experiments.write_csv.MB_per_s"] = csv_mb / csv_s if csv_s else 0.0

    return out
