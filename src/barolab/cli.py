"""Batch command-line front end.

Commands
--------
``barolab run <config>``        execute the configured experiment
``barolab validate <config>``   check a configuration, its initial data and its output
                                directory, without making it; report every problem
``barolab sweep <config> --param section.key --values a,b,c``
                                run the experiment once per value of a key of the
                                grammar (the section as written, the key in any
                                case); every member's config, initial data and output
                                directory are checked before the first member runs;
                                the members run in worker processes, up to one per
                                CPU, and their results, warnings and exit code come
                                back in the order given

Exit codes: 0 success (``--help`` included); 1 a usage error, such as a missing
command or config, an unknown option or an option without its value (one line
on stderr; write a ``--values`` list that starts with ``-`` as
``--values=-10,-4``), or a configuration error, raised before the first step
(of any member, in a sweep): the config, a file it names, its initial data or
the output directory is unusable; 2 any failure after that: an integration
failure, a steady profile whose integration leaves the admissible densities, or
a measurement or fit that fails its own check;
3 blow-up detected while the configuration demands completion
(``[solver] on_blowup = fail``).  The environment variable
``BAROLAB_OUTPUT_ROOT`` prefixes every relative output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from .config import _SCHEMA, _parse, parse_config, read_ini
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


def _member_config(text, param, value):
    """The config of ``text`` with ``param`` set to ``value``, the value taken as
    written: a ``#`` in it starts no comment."""
    section, _, key = param.partition(".")
    if key.lower() not in _SCHEMA.get(section, ()):  # configparser reads keys in lower case
        raise ConfigError([f"--param must look like section.key of the grammar, got {param!r}"])
    parser = read_ini(text)
    parser.read_dict({section: {key: value}})  # which adds a missing section
    return _parse(parser)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _member(config, output_dir):
    """One sweep member in a worker: ``(warnings, run_experiment's outcome)``.

    The warnings are recorded under the filters the worker inherited, so an
    ``error`` filter still raises inside the member.  An exception that
    escapes the member reaches the caller through the pool, with the worker's
    traceback as its cause; the warnings recorded before it are dropped.
    """
    with warnings.catch_warnings(record=True) as caught:
        outcome = run_experiment(config, output_dir)
    return [(w.message, w.category, w.filename, w.lineno) for w in caught], outcome


def _warn_again(message, category, filename, lineno):
    """Emit a worker's warning here, as the module that warned would have.

    The module is the one loaded from ``filename``.  Its name lets a filter on
    the module match, and its ``__warningregistry__``, which the plain loop
    also fills, shows a warning once per place over all members and sweeps.
    """
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    warnings.warn_explicit(message, category, filename, lineno, module and module.__name__,
                           module and vars(module).setdefault("__warningregistry__", {}))


def _run_members(jobs):
    """``run_experiment(config, output_dir)`` for each job; the outcomes in job order.

    With two or more workers, ``min(jobs, CPUs)``, and ``fork``, the jobs run
    in a forked process pool: each worker has its own stage workspace and helper
    thread (see :mod:`barolab.euler`).  Each member's warnings are
    emitted here, member by member in job order, and the first exception that
    escaped a member is raised in that order, as the plain loop would.  A
    worker that dies raises ``BrokenProcessPool``.  Every worker is joined
    before this returns.  Otherwise the plain loop runs in this process.

    ``fork``, not ``spawn``: a spawned worker imports numpy and barolab afresh,
    which made a two-member sweep at n = 8192 slower than the loop.
    """
    workers = min(len(jobs), _cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [run_experiment(*job) for job in jobs]
    # here, not at the top: the pool's modules would cost every CLI start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    outcomes = []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        with warnings.catch_warnings():
            # Python 3.12+ warns when it forks a process with live threads.  The
            # executor forks every worker at the first submit, before it starts
            # its own thread.  barolab's stage helper is idle between stages and
            # restarts in a forked child; OpenBLAS's pool is parked around a fork
            # by its own pthread_atfork handler.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            done = pool.map(_member, *zip(*jobs))
        for caught, outcome in done:
            for warning in caught:
                _warn_again(*warning)
            outcomes.append(outcome)
    return outcomes


def _cmd_sweep(args):
    text = _read(args.config)
    values = [v for v in map(str.strip, args.values.split(",")) if v]
    if not values or len(set(values)) < len(values):
        raise ConfigError([f"--values must list distinct values, got {args.values!r}"])
    # each value names its member's directory, <output>/<key>=<value>, which must stay there
    if any(sep in value for value in values for sep in (os.sep, os.altsep) if sep):
        raise ConfigError([f"--values must not contain a path separator, got {args.values!r}"])
    base = parse_config(text)
    members = [(value, _member_config(text, args.param, value)) for value in values]
    # before the first member runs, every member's initial data is checked, as validate
    # does, and then every member's directory is made: a member that cannot start is a
    # config error before any step, and bad initial data leaves no directory
    for _, member in members:
        initial_states(member)
    base_dir = resolve_output_dir(base, args.output)
    key = args.param.split(".", 1)[1]
    member_dirs = [resolve_output_dir(member, base_dir / f"{key}={value}")
                   for value, member in members]
    outcomes = _run_members([(member, member_dir)
                             for (_, member), member_dir in zip(members, member_dirs)])
    report = {value: {"exit_code": code, **summary}
              for (value, _), (code, summary) in zip(members, outcomes)}
    print(write_json(base_dir / "sweep.json", report), end="")
    return max(code for code, _ in outcomes)


class _UsageError(Exception):
    """A command line that argparse cannot read: exit 1, as a configuration error."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`_UsageError`, not exit 2.

    Its subparsers are of this class too, as ``add_subparsers`` makes them.
    """

    def error(self, message):
        if message.startswith("argument --values"):  # argparse reads "-10,-4" as an option
            message += "; write a list that starts with '-' as --values=-10,-4"
        raise _UsageError(f"{self.prog}: error: {message}")


def main(argv=None):
    parser = _Parser(prog="barolab", description=__doc__,
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

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
