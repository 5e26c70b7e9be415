"""Batch command-line front end.

Commands
--------
``barolab run <config>``        execute the configured experiment
``barolab validate <config>``   check a configuration, its initial data and its output
                                directory, without making it; report every problem
``barolab sweep <config> --param section.key --values a,b,c``
                                run the experiment once per value, one after another,
                                in the order given

Exit codes: 0 success; 1 a configuration error, raised before the first step:
the config, a file it names or the output directory is unusable; 2 any failure
after that: an integration failure, a steady profile whose integration leaves
the admissible densities, or a measurement or fit that fails its own check;
3 blow-up detected while the configuration demands completion
(``[solver] on_blowup = fail``).  The environment variable
``BAROLAB_OUTPUT_ROOT`` prefixes every relative output directory.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .config import parse_config, read_ini
from .errors import ConfigError
from .experiments import (EXIT_CONFIG, EXIT_OK, check_output_dir, initial_states,
                          resolve_output_dir, run_experiment, write_json)


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc


def _cmd_validate(args):
    config = parse_config(_read(args.config))
    initial_states(config)
    check_output_dir(config)
    print(f"OK: {config.kind} experiment, output -> {config.output_directory}")
    return EXIT_OK


def _cmd_run(args):
    config = parse_config(_read(args.config))
    code, _ = run_experiment(config, args.output)
    print((resolve_output_dir(config, args.output) / "summary.json").read_text(), end="")
    return code


def _override_config_text(text, param, value):
    if "." not in param:
        raise ConfigError([f"--param must look like section.key, got {param!r}"])
    section, key = param.split(".", 1)
    parser = read_ini(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _cmd_sweep(args):
    text = _read(args.config)
    values = [v for v in map(str.strip, args.values.split(",")) if v]
    if not values or len(set(values)) < len(values):
        raise ConfigError([f"--values must list distinct values, got {args.values!r}"])
    # each value names its member's directory, <output>/<key>=<value>, which must stay there
    if any(sep in value for value in values for sep in (os.sep, os.altsep) if sep):
        raise ConfigError([f"--values must not contain a path separator, got {args.values!r}"])
    base = parse_config(text)
    members = [(value, parse_config(_override_config_text(text, args.param, value)))
               for value in values]
    base_dir = resolve_output_dir(base, args.output)
    key = args.param.split(".", 1)[1]
    # every member's directory is made before the first member runs, so one that
    # cannot be made is a config error before any step
    member_dirs = [resolve_output_dir(member, base_dir / f"{key}={value}")
                   for value, member in members]
    outcomes = [(value, run_experiment(member, member_dir))
                for (value, member), member_dir in zip(members, member_dirs)]
    report = {value: {"exit_code": code, **summary} for value, (code, summary) in outcomes}
    print(write_json(base_dir / "sweep.json", report), end="")
    return max(code for _, (code, _) in outcomes)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="barolab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run once per parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="section.key to override")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--output", help="override the base output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
