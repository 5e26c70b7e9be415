import os
from pathlib import Path

import pytest

import barolab as bl
from conftest import ROOT, load_script


def test_every_layer_runs():
    # the layer table calls public names of the package; one that went away
    # would otherwise break the tool only when someone runs it
    layers = load_script("tools", "layers")
    for name, call in layers.layers(64).items():
        result = call()
        assert result is not None, name
        if name.endswith("run"):
            assert result.steps == layers.RUN_STEPS, name


def test_startup_line_measures():
    # the start-up line times interpreters of its own, which the layer calls above never start
    import_ms, validate_ms, import_mb = load_script("tools", "layers").startup(repeats=1)
    assert import_ms > 0 and validate_ms > 0 and import_mb > 0


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


# numpy dispatches only its float16 kernels to these (numpy 2.4: ``HALF_*_AVX512_SPR``),
# and barolab computes in float64, so they cannot move a bit of the listing
HALF_PRECISION_SIMD = {"AVX512FP16", "AVX512_SPR"}


def _differences(made, here):
    """The environment fields of ``here`` that differ from ``made`` and may move a bit."""
    def comparable(key, value):
        if key == "simd":
            return set(value.split(",")) - HALF_PRECISION_SIMD if value else set()
        return value
    return [f"{key} {made.get(key)} (here {value})" for key, value in here.items()
            if comparable(key, made.get(key)) != comparable(key, value)]


def test_environment_differences_ignore_half_precision_simd():
    made = {"numpy": "2.4.6", "simd": "AVX2,AVX512F,AVX512FP16,AVX512_SPR"}
    assert _differences(made, {"numpy": "2.4.6", "simd": "AVX2,AVX512F"}) == []
    assert _differences(made, {"numpy": "2.4.6", "simd": "AVX2,AVX512_SPR"}) == [
        "simd AVX2,AVX512F,AVX512FP16,AVX512_SPR (here AVX2,AVX512_SPR)"]
    assert _differences(made, {"numpy": "1.26.4", "simd": made["simd"]}) == [
        "numpy 2.4.6 (here 1.26.4)"]


def _digest_tool(monkeypatch):
    """``tools/csv_digest.py``, with this barolab first on its runs' ``PYTHONPATH``."""
    src = str(Path(bl.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return load_script("tools", "csv_digest")


def test_outputs_match_the_committed_digests(tmp_path, capsys, monkeypatch):
    # every CSV, fit.json and summary.json of tools/configs, byte for byte. Equal
    # digests pass on any host; unequal ones fail where nothing that sets the bits
    # differs from the environment that made the listing, and skip elsewhere
    digest = _digest_tool(monkeypatch)
    header, *listing = (ROOT / "tools" / "digests.txt").read_text().splitlines()
    assert digest.main([str(tmp_path / "out")]) == 0
    body = capsys.readouterr().out.splitlines()[1:]
    if body == listing:
        return
    made = dict(field.split("=", 1) for field in header.removeprefix("# ").split())
    differ = _differences(made, digest.environment())
    if differ:
        pytest.skip("outputs differ from tools/digests.txt, made with " + "; ".join(differ))
    assert body == listing


def test_a_run_past_the_timeout_fails_the_digest(tmp_path, capsys, monkeypatch):
    # a step of about 4.2e-322 still moves t, so the run's own guard does not fire,
    # and it would take about 2.4e319 steps; the timeout kills it
    digest = _digest_tool(monkeypatch)
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "endless.cfg").write_text(
        "[experiment]\nkind = rbe_run\n[grid]\nn = 16\n[solver]\nt_end = 0.01\ncfl = 1e-320\n")
    monkeypatch.setattr(digest, "CONFIGS", configs)
    monkeypatch.setattr(digest, "TIMEOUT_S", 3)
    assert digest.main([str(tmp_path / "out")]) == 1
    assert "endless.cfg: no exit within 3 s" in capsys.readouterr().err
