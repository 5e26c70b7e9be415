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
non-zero and 2 if ``OUT`` is not empty.

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
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="an empty or new directory for the run outputs")
    out = Path(parser.parse_args(argv).out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    # the runs start inside CONFIGS, where relative PYTHONPATH entries would not resolve
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in entries if p))
    failed = False
    for config in sorted(CONFIGS.glob("*.cfg")):
        run = subprocess.run(
            [sys.executable, "-m", "barolab.cli", "run", config.name,
             "--output", str(out / config.stem)],
            cwd=CONFIGS, env=env, capture_output=True, text=True)
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
