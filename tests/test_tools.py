import os
from pathlib import Path

import pytest

import barolab as bl
from conftest import ROOT, load_script


def test_every_layer_runs():
    # the layer table calls public names of the package; one that went away
    # would otherwise break the tool only when someone runs it
    for name, call in load_script("tools", "layers").layers(64).items():
        assert call() is not None, name


def test_loc_counts_code_lines_only():
    text = '''"""Module docstring,
over two lines."""

# a comment line
x = 1  # a trailing comment


def f():
    """Docstring."""
    return x
'''
    assert load_script("tools", "loc").count(text) == (10, 3)


def test_outputs_match_the_committed_digests(tmp_path, capsys, monkeypatch):
    # every CSV, fit.json and summary.json of tools/configs, byte for byte, where
    # the environment is the one that made the listing: the bits depend on it
    digest = load_script("tools", "csv_digest")
    listing = (ROOT / "tools" / "digests.txt").read_text().splitlines()
    made = dict(field.split("=", 1) for field in listing[0].removeprefix("# ").split())
    differ = [f"{key} {made.get(key)} (here {value})"
              for key, value in digest.environment().items() if made.get(key) != value]
    if differ:
        pytest.skip("tools/digests.txt was made with " + "; ".join(differ))
    src = str(Path(bl.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    assert digest.main([str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == listing
