import barolab
import barolab.cli  # noqa: F401  (binds the cli, config and experiments modules)
from conftest import load_script


def test_every_span_resolves():
    # the traced benchmark run wraps each LAYERS entry and fails at install on
    # a missing name, so a public name that a span wraps must not go away
    spans = load_script("perfbench", "spans")
    missing = [name for name, (owner, attr) in spans.LAYERS.items()
               if not hasattr(spans._resolve(barolab, owner), attr)]
    assert missing == []


def test_every_workload_sets_up(tmp_path):
    # each setup builds its inputs through the package (config parse, grid and
    # initial build, State(...).validate()), so a name it uses must not go away
    for name, workload in load_script("perfbench", "workloads").WORKLOADS.items():
        ctx, seconds = workload.setup(barolab, 1, tmp_path)
        assert ctx and seconds >= 0.0, name
