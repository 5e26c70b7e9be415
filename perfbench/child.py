"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py WORKLOAD SEED WORKDIR MODE``, with
``src`` on ``PYTHONPATH``.  Prints one JSON object on its last stdout line.
``MODE`` is ``plain``, ``traced``, or ``reference``: an untraced repetition
followed by the workload's reference measurement, if it has one (the sweep's
members run one after the other).

``setup_s`` is the import of the ``barolab`` package and its CLI modules plus
the workload's config parse and initial-state build; ``run_s`` is the
repetition itself.  Both are wall seconds scaled to the host's reference
speed by the kernel of ``calibrate.py``, timed just before and just after
the run; the unscaled wall seconds are reported as ``wall_setup_s`` and
``wall_run_s``.  In ``traced`` mode the tracer is installed after the
import, so the per-layer metrics also cover the set-up calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _software():
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}).get("name", "?") + " " + deps.get(k, {}).get("version", "?")
                 for k in ("blas", "lapack")},
    }


def main(argv):
    name, seed, workdir, mode = argv[0], int(argv[1]), argv[2], argv[3]

    start = time.perf_counter()
    import barolab
    import barolab.cli  # noqa: F401  (a CLI user pays for config and experiments too)
    import_s = time.perf_counter() - start

    import calibrate
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer().install(barolab)

    ctx, build_s = workload.setup(barolab, seed, workdir)
    kernel_before = calibrate.kernel_s()
    run_s, outcome = workload.run(barolab, ctx)
    kernel_after = calibrate.kernel_s()
    scale = calibrate.REFERENCE_S / (0.5 * (kernel_before + kernel_after))
    result = workload.finish(ctx, outcome)
    reference = {}
    if mode == "reference" and hasattr(workload, "reference"):
        reference = workload.reference(barolab, ctx)

    report = {
        "setup_s": scale * (import_s + build_s),
        "run_s": scale * run_s,
        "wall_setup_s": import_s + build_s,
        "wall_import_s": import_s,
        "wall_run_s": run_s,
        "kernel_s": [kernel_before, kernel_after],
        "n": workload.n,
        "rhs_evals": result.rhs_evals,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "info": result.info,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "software": _software(),
        "reference": reference,
    }
    if tracer is not None:
        from spans import layer_metrics
        report["layers"] = layer_metrics(tracer)
        tracer.dump(f"{workdir}/spans-{name}.json")
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
