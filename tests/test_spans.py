import importlib.util
from pathlib import Path

import barolab
import barolab.cli  # noqa: F401  (binds the cli, config and experiments modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_resolves():
    # the traced benchmark run wraps each LAYERS entry and fails at install on
    # a missing name, so a public name that a span wraps must not go away
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (owner, attr) in spans.LAYERS.items()
               if not hasattr(spans._resolve(barolab, owner), attr)]
    assert missing == []
