import importlib.util
import sys
from pathlib import Path

import barolab
import barolab.cli  # noqa: F401  (binds the cli, config and experiments modules)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, unedited, loaded by path and registered in ``sys.modules``
    (a module's dataclasses look their module up there while they are built)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    # the traced benchmark run wraps each LAYERS entry and fails at install on
    # a missing name, so a public name that a span wraps must not go away
    spans = _load("spans")
    missing = [name for name, (owner, attr) in spans.LAYERS.items()
               if not hasattr(spans._resolve(barolab, owner), attr)]
    assert missing == []


def test_every_workload_sets_up(tmp_path):
    # each setup builds its inputs through the package (config parse, grid and
    # initial build, State(...).validate()), so a name it uses must not go away
    for name, workload in _load("workloads").WORKLOADS.items():
        ctx, seconds = workload.setup(barolab, 1, tmp_path)
        assert ctx and seconds >= 0.0, name
