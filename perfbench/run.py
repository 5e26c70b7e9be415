"""barolab benchmark: time to solution and cell-update throughput, with traced layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload crit1_periodic_512 --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 33 --trace 0

Every repetition runs in a fresh child interpreter, one at a time, so that
set-up time and peak memory belong to one workload; repetitions continue
until the next one would end after ``--seconds``.  The load is one process
with at most two threads (the sweep pool); BLAS threads are pinned to one.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

* ``run_s``               seconds of one repetition, first call into barolab
                          to its return (no interpreter start, no import)
* ``cell_updates_per_s``  n * right-hand-side evaluations performed / run_s
* ``setup_s``             import of barolab and its CLI modules, config parse
                          and initial-state build, in a fresh interpreter
* ``peak_rss_mb``         peak resident memory of the child process

``run_s`` and ``setup_s`` are wall seconds scaled to the host's reference
speed, measured by a fixed kernel around each run (``calibrate.py``): on a
shared host the speed drifts by more than the bounds over minutes.  The
unscaled medians are printed as ``wall run_s`` and ``wall setup_s``.

``fail_frac`` (failed / attempted operations; an operation is a run, a sweep
member or one ``rhs`` call) is printed and carried by the result's
``attempted`` and ``failed`` fields.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``spans.py``) plus
``trace.overhead_frac``, the traced over the untraced median ``run_s``, minus 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (machine and software facts,
every repetition, CSV and series hashes) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import per_layer_spec  # noqa: E402  (stdlib only; no barolab import)

WORKLOAD_NAMES = ("crit1_periodic_512", "ghs_periodic_2048", "sweep_line_8192", "rhs_65536")
END_TO_END = {
    "run_s": "s",
    "cell_updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_REPS = 3
MIN_REPS_TRACE = 4    # two untraced and two traced
CHILD_TIMEOUT_S = 150
# ROADMAP item 2 baseline at n = 512, microseconds per call
ROADMAP_BASELINE_US = {
    "euler.step": 2260.0,
    "euler.rhs": 480.0,
    "sturm_liouville.assemble": 154.0,
    "sturm_liouville.solve": 96.0,
    "euler.reg_source": 162.0,
    "euler.diagnostics": 195.0,
}


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def machine_facts(root):
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = f"{size} per instance"
    facts["git_commit"] = "unknown"
    if (root / ".git").exists():
        try:
            facts["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root, env, workdir, workload, seed, mode):
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(workdir), mode]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} repetition exited with {proc.returncode}:\n"
                             + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(root, env, workdir, workload, seed, seconds, trace):
    """Run children until the next one would end after ``seconds``."""
    reps = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        mode = "traced" if traced else "reference" if trace else "plain"
        t0 = time.perf_counter()
        rep = run_child(root, env, workdir, workload, seed, mode)
        rep["traced"] = traced
        rep["wall_s"] = time.perf_counter() - t0
        reps.append(rep)
        elapsed = time.perf_counter() - started
        enough = len(reps) >= (MIN_REPS_TRACE if trace else MIN_REPS)
        if enough and elapsed + rep["wall_s"] > seconds:
            return reps


def summarize(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def end_to_end(reps):
    per_rep = {
        "run_s": [r["run_s"] for r in reps],
        "cell_updates_per_s": [r["n"] * r["rhs_evals"] / r["run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {name: summarize(values) for name, values in per_rep.items()}


def per_layer(reps):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    keys = traced[0]["layers"].keys()
    out = {key: statistics.median(r["layers"][key] for r in traced) for key in keys}
    plain_run_s = statistics.median(r["run_s"] for r in plain)
    out["trace.overhead_frac"] = statistics.median(r["run_s"] for r in traced) / plain_run_s - 1.0
    speedups = [r["reference"]["sequential_s"] / r["wall_run_s"] for r in plain if r["reference"]]
    out["cli.sweep.speedup"] = statistics.median(speedups) if speedups else 0.0
    return out


def bench_one(root, env, workdir, workload, seed, seconds, trace):
    reps = repetitions(root, env, workdir, workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "software": reps[0]["software"],
        "end_to_end": end_to_end([r for r in reps if not r["traced"]]),
        "fail_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": problems,
        "outputs_identical_across_reps": all(r["info"] == reps[0]["info"] for r in reps),
        "info": reps[0]["info"], "repetitions": reps,
    }
    if trace:
        record["per_layer"] = per_layer(reps)
        metrics = {name: (record["per_layer"][name], unit)
                   for name, (unit, _) in per_layer_spec().items()}
    else:
        metrics = {name: (record["end_to_end"][name]["median"], unit)
                   for name, unit in END_TO_END.items()}
    return record, metrics


def print_block(record, metrics):
    w = record["workload"]
    print(f"== {w}  seed={record['seed']}  repetitions={len(record['repetitions'])}"
          f"  trace={record['trace']}")
    if not record["trace"]:
        for name, unit in END_TO_END.items():
            s = record["end_to_end"][name]
            print(f"  {name:<20} {s['median']:>14.6g} {unit:<4} median of {s['samples']}"
                  f"  (min {s['min']:.6g}, max {s['max']:.6g})")
        plain = record["repetitions"]
        for name in ("run_s", "setup_s"):
            wall = statistics.median(r[f"wall_{name}"] for r in plain)
            print(f"  {'wall ' + name:<20} {wall:>14.6g} s    median, not scaled to reference speed")
    else:
        for name, (value, unit) in metrics.items():
            if not name.endswith(".calls") or value:
                print(f"  {name:<48} {value:>14.6g} {unit}")
        if w == "crit1_periodic_512":
            print("  cross-check with ROADMAP item 2 (n = 512, us per call):")
            for layer, base in ROADMAP_BASELINE_US.items():
                got = record["per_layer"][f"{layer}.us_per_call"]
                print(f"    {layer:<28} harness {got:9.1f}   ROADMAP {base:7.1f}"
                      f"   ratio {got / base:5.2f}")
    print(f"  {'fail_frac':<20} {record['fail_frac']:>14.6g} 1    "
          f"({record['failed']} of {record['attempted']} operations failed)")
    print(f"  correct: {not record['problems']}"
          + "".join(f"\n    problem: {p}" for p in record["problems"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "barolab" / "__init__.py").is_file():
        print("perfbench: no barolab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    env = child_env(root)
    facts = machine_facts(root)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record, metrics = bench_one(root, env, workdir, name, args.seed,
                                        args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        record["machine"] = facts
        with open(workdir / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print_block(record, metrics)
        combined["correct"] &= not record["problems"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in metrics.items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"machine": facts, "software": record["software"], "seed": args.seed}))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
