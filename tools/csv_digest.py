#!/usr/bin/env python3
"""Run every config in ``tools/configs`` and print a digest of the files it writes.

Usage, from the repository root::

    PYTHONPATH=src python tools/csv_digest.py OUT

Each ``tools/configs/<name>.cfg`` runs as ``python -m barolab.cli run <name>.cfg
--output OUT/<name>``, started inside ``tools/configs`` (so that a config can
name a committed snapshot by a relative path) and importing the barolab found
on the current ``PYTHONPATH``.  The script then prints ``<sha256>  <name>/<file>``
for every CSV, ``fit.json`` and ``summary.json`` written, sorted by path.  A CSV or
``fit.json`` digest covers the file's bytes; a ``summary.json`` digest covers the
summary without its ``wall_clock_s``, the one value that changes between runs,
serialised with ``json.dumps(..., sort_keys=True)``.  It exits 1 if any run exits
non-zero or runs longer than ``TIMEOUT_S`` seconds (the run is then killed), and 2
if ``OUT`` is not empty.

The first line, ``# key=value ...``, names the environment that made the
digests: the Python, numpy and SciPy versions, the machine, the C library and
numpy's runtime SIMD features, on which the bits of the outputs depend.
``tools/digests.txt`` is the listing of the current tree, checked by
``tests/test_tools.py`` wherever the environment matches its first line::

    PYTHONPATH=src python tools/csv_digest.py /tmp/out > tools/digests.txt

Two source trees write byte-identical CSV and ``fit.json`` files and equal
summaries over the config set when the digests of their runs are equal::

    PYTHONPATH=src python tools/csv_digest.py /tmp/new > new.txt
    PYTHONPATH=/path/to/other/src python tools/csv_digest.py /tmp/old > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"
TIMEOUT_S = 60  # per run; each committed config runs in about 1 s on a 2-vCPU x86-64 host


def environment():
    """The facts the digests depend on beyond the source tree, as ``{key: value}``."""
    import numpy
    import scipy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "libc": "-".join(platform.libc_ver()) or "unknown",
        "simd": ",".join(sorted(name for name, found in __cpu_features__.items() if found)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="an empty or new directory for the run outputs")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    # the runs start inside CONFIGS, where relative PYTHONPATH entries would not resolve
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in entries if p))
    print("# " + " ".join(f"{key}={value}" for key, value in environment().items()))
    failed = False
    for config in sorted(CONFIGS.glob("*.cfg")):
        try:
            run = subprocess.run(
                [sys.executable, "-m", "barolab.cli", "run", config.name,
                 "--output", str(out / config.stem)],
                cwd=CONFIGS, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failed = True
            print(f"{config.name}: no exit within {TIMEOUT_S} s", file=sys.stderr)
            continue
        if run.returncode != 0:
            failed = True
            print(f"{config.name}: exit code {run.returncode}\n{run.stderr}", file=sys.stderr)
    for path in sorted(out.glob("*/*")):
        if path.suffix == ".csv" or path.name == "fit.json":
            data = path.read_bytes()
        elif path.name == "summary.json":
            summary = json.loads(path.read_text(encoding="utf-8"))
            del summary["wall_clock_s"]
            data = json.dumps(summary, sort_keys=True).encode()
        else:
            continue
        print(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
