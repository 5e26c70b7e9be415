"""Batch command-line front end.

Commands
--------
``barolab run <config>``        execute the configured experiment
``barolab validate <config>``   check a configuration and its initial data; report every problem
``barolab sweep <config> --param section.key --values a,b,c``
                                run the experiment once per value, one after another,
                                in the order given

Exit codes: 0 success, 1 invalid configuration (also a config file that cannot
be read), 2 a run that fails: an integration failure, or a measurement or fit
that fails its own check; 3 blow-up detected while the configuration demands
completion (``[solver] on_blowup = fail``).  The environment variable
``BAROLAB_OUTPUT_ROOT`` prefixes every relative output directory.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .config import build_initial, parse_config, read_ini
from .errors import ConfigError, DomainError
from .euler import State
from .experiments import EXIT_CONFIG, EXIT_OK, resolve_output_dir, run_experiment


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc


def _cmd_validate(args):
    config = parse_config(_read(args.config))
    if config.kind not in ("dispersion_study", "steady_profile"):  # they build no initial data
        try:
            State(0.0, *build_initial(config, config.grid), config.grid).validate()
        except (ConfigError, DomainError) as exc:
            problems = getattr(exc, "problems", [str(exc)])
            raise ConfigError([f"[initial] {p}" for p in problems]) from exc
    print(f"OK: {config.kind} experiment, output -> {config.output_directory}")
    return EXIT_OK


def _cmd_run(args):
    code, summary = run_experiment(parse_config(_read(args.config)), args.output)
    print(json.dumps(summary, indent=2, sort_keys=True))
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
    if not values:
        raise ConfigError([f"--values lists no value: {args.values!r}"])
    base = parse_config(text)
    members = [(value, parse_config(_override_config_text(text, args.param, value)))
               for value in values]
    base_dir = resolve_output_dir(base, args.output)
    key = args.param.split(".", 1)[1]
    outcomes = [(value, run_experiment(member, base_dir / f"{key}={value}"))
                for value, member in members]
    report = {value: {"exit_code": code, **summary} for value, (code, summary) in outcomes}
    with open(base_dir / "sweep.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
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
