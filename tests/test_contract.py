"""The validate/run/sweep contract, drawn at random: every config ends in a documented exit.

Exit 1 is a config error and comes before the first step, so a config that
``validate`` rejects is rejected by ``run`` too; a config that ``validate``
accepts runs to 0, 2 or 3 and leaves a ``summary.json``.  A sweep that does not
exit 1 leaves a ``sweep.json`` with each member's ``summary.json`` beside it.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barolab import BoundaryContaminationWarning, cli
from barolab.config import _SCHEMA, EXPERIMENT_KINDS, INITIAL_KINDS

SNAPSHOT = Path(__file__).resolve().parents[1] / "tools" / "configs" / "snapshot_periodic_64.csv"

# Plausible values of every key, as config text.  Sizes stay small (n <= 32,
# modes in {1, 2}, resolutions <= 32, points <= 101), so no draw allocates a
# large array; the sizes and t_end are always written, because their defaults
# are large.
_PLAUSIBLE = {
    "experiment": {"kind": EXPERIMENT_KINDS},
    "eos": {"kind": ("isentropic", "isothermal", "shallow_water"),
            "gamma": ("1e-4", "1.4", "2", "3"), "rho_bar": ("0.5", "1", "2"),
            "p_bar": ("0.5", "1"), "g": ("0.5", "1", "9.81")},
    "regularizer": {"kind": ("cubic", "inverse", "power"), "epsilon": ("0", "0.01", "0.1", "1"),
                    "a": ("0.5", "1"), "p": ("-1", "2", "3")},
    "grid": {"topology": ("periodic", "line"), "n": ("8", "16", "32"),
             "length": ("1", "6.283185307179586"), "x_min": ("-10", "-4"), "x_max": ("4", "10"),
             "rho_left": ("1", "1.2"), "rho_right": ("1",), "u_left": ("0", "0.1"),
             "u_right": ("0", "-0.1")},
    "initial": {"kind": INITIAL_KINDS, "amplitude": ("0.01", "0.05", "0.3"),
                "u_amplitude": ("0", "0.05"), "mode": ("1", "2"), "width": ("0.05", "0.1", "1"),
                "bump_amplitude": ("0.03", "0.3"), "mean_velocity": ("0", "0.5"),
                "rho_value": ("0.5", "1", "2"), "u_value": ("0", "0.1"),
                "path": (str(SNAPSHOT), "missing.csv")},
    "solver": {"cfl": ("0.3", "0.5", "1"), "t_end": ("0.01", "0.05"),
               "blowup_factor": ("2", "1000"), "blowup_threshold": ("10", "1e6"),
               "snapshot_every": ("0", "5"), "on_blowup": ("report", "fail")},
    "study": {"modes": ("1", "2", "1, 2"), "amplitude": ("1e-6", "1e-3", "0.5"),
              "epsilons": ("0.1", "0.1, 0.01"), "mass_flux": ("1", "0.5", "1.6"),
              "momentum_flux": ("1.25", "0.25", "0.6"), "energy_flux": ("0.5", "0.0625", "0.4"),
              "rho_start": ("1.3", "1.5", "0.7"), "x_max": ("1", "10"),
              "points": ("17", "65", "101"), "variant": ("spatial", "temporal"),
              "solver": ("rbe", "ghs"), "resolutions": ("8, 16", "16, 32", "4, 8")},
    "output": {"directory": ("out",)},
}
_ALWAYS = {("experiment", "kind"), ("grid", "n"), ("solver", "t_end"), ("study", "modes"),
           ("study", "points"), ("study", "resolutions"), ("output", "directory")}
_TOKENS = ("0", "-1", "nan", "inf", "1e300", "1e-300")
# No token goes into the kind or the output directory, nor into a key where it
# can ask for an unbounded number of steps: a tiny cfl or a huge t_end directly,
# a large sound speed or velocity scale through the CFL step, and a steady x_max
# through the ODE's length.  A small speed asks for few steps, not many: the step
# grows as the speeds fall, and one period of a dispersion mode k takes about
# max(256, 64 k) / (0.3 k) steps at any sound speed, so gamma = 1e-4 (c0 = 0.01)
# is plausible.  What a run will cost is not checked at parse time, so these keys
# keep plausible values.
_NO_TOKEN = {("experiment", "kind"), ("output", "directory"),
            ("solver", "t_end"), ("solver", "cfl"), ("study", "x_max"),
            *(("eos", key) for key in _PLAUSIBLE["eos"]),
            *(("initial", key) for key in ("amplitude", "u_amplitude", "bump_amplitude",
                                           "mean_velocity", "rho_value", "u_value")),
            *(("grid", key) for key in ("rho_left", "rho_right", "u_left", "u_right"))}


_TOKEN_KEYS = sorted((section, key) for section, keys in _PLAUSIBLE.items() for key in keys
                     if (section, key) not in _NO_TOKEN)


@st.composite
def configs(draw):
    """``{section: {key: text}}``: each key left out (its default) or plausible, and then
    at most two keys set to a token."""
    config = {}
    for section, keys in _PLAUSIBLE.items():
        for key, plausible in keys.items():
            value = draw(st.sampled_from(plausible) if (section, key) in _ALWAYS
                         else st.one_of(st.none(), st.sampled_from(plausible)))
            if value is not None:
                config.setdefault(section, {})[key] = value
    for section, key in draw(st.lists(st.sampled_from(_TOKEN_KEYS), max_size=2)):
        config.setdefault(section, {})[key] = draw(st.sampled_from(_TOKENS))
    return config


def _text(config):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in config.items())


def _main(tmp, *commands):
    """``cli.main`` of each command, run in ``tmp`` under the relative output root ``root``:
    ``(exit codes, stdout, stderr)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # a relative output root resolves here
    try:
        with mock.patch.dict(os.environ, {"BAROLAB_OUTPUT_ROOT": "root"}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes = [cli.main(argv) for argv in commands]
    finally:
        os.chdir(cwd)
    return codes, stdout.getvalue(), stderr.getvalue()


def _cfg(kind, **sections):
    """A repro config: the small sizes, then ``sections``."""
    config = {"experiment": {"kind": kind}, "grid": {"n": "16"}, "solver": {"t_end": "0.01"},
              "study": {"modes": "1", "points": "65", "resolutions": "8, 16"},
              "output": {"directory": "out"}}
    for section, keys in sections.items():
        config.setdefault(section, {}).update(keys)
    return config


def _reject_constant(name):
    raise ValueError(f"{name} in JSON")


def test_fuzz_table_covers_the_schema():
    assert {s: set(k) for s, k in _PLAUSIBLE.items()} == {s: set(k) for s, k in _SCHEMA.items()}
    assert _ALWAYS | _NO_TOKEN <= {(s, k) for s, keys in _PLAUSIBLE.items() for k in keys}


# The explicit examples: a steady profile that rises from below its sonic
# density to its cusp, one too short to fit, a dispersion wave that reaches
# vacuum, two periodic spacings and a line spacing whose squares leave the
# doubles; then eps = 0, eps = 1 and a density contrast of 1e3; then two laws
# whose constants overflow, an isothermal steady profile whose sonic density
# is tiny, and a dispersion study at slow sound (c0 = 0.01), whose long
# periods take the same steps as at any c0; last, a cfl whose step underflows
# to 0, which cannot move t and so exits 2.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=configs(), absolute=st.booleans())
@example(config=_cfg("steady_profile", study={"mass_flux": "1.6", "momentum_flux": "0.6",
                                              "energy_flux": "0.4", "rho_start": "0.7"}),
         absolute=False)
@example(config=_cfg("steady_profile", study={"points": "2"}), absolute=False)
@example(config=_cfg("dispersion_study", study={"amplitude": "1.0"}), absolute=True)
@example(config=_cfg("rbe_run", grid={"length": "1e-300"}), absolute=False)
@example(config=_cfg("rbe_run", grid={"n": "8", "length": "1e300"}), absolute=False)
@example(config=_cfg("rbe_run", grid={"topology": "line", "n": "8", "x_min": "-1e300",
                                      "x_max": "1e300"}, initial={"kind": "constant"}),
         absolute=True)
@example(config=_cfg("rbe_run", regularizer={"epsilon": "0"}), absolute=False)
@example(config=_cfg("rbe_run", regularizer={"epsilon": "1"}), absolute=False)
@example(config=_cfg("rbe_run", initial={"kind": "gaussian_bump", "amplitude": "999"}),
         absolute=False)  # a density contrast of 1e3
@example(config=_cfg("rbe_run", eos={"kind": "shallow_water", "rho_bar": "1e160"}),
         absolute=False)
@example(config=_cfg("rbe_run", eos={"kind": "isentropic", "gamma": "3", "rho_bar": "1e200"}),
         absolute=False)
@example(config=_cfg("steady_profile", eos={"kind": "isothermal", "rho_bar": "1e-300"}),
         absolute=False)
@example(config=_cfg("dispersion_study", eos={"gamma": "1e-4"}, study={"modes": "1, 2"}),
         absolute=False)
@example(config=_cfg("rbe_run", solver={"cfl": "5e-324"}), absolute=False)
def test_every_config_ends_in_a_documented_exit(config, absolute):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning must not become an escaping error
        tmp = Path(tmp)
        path = tmp / "case.cfg"
        path.write_text(_text(config))
        root = tmp / "root"
        output = ["--output", str(root / "abs")] if absolute else []
        (validated, ran), stdout, stderr = _main(
            tmp, ["validate", str(path)], ["run", str(path), *output])
        assert validated in (0, 1)
        if validated == 1:
            assert ran == 1, stdout
        else:
            assert ran in (0, 2, 3), stderr
            outdir = root / "abs" if absolute else root / config["output"]["directory"]
            assert "kind" in json.loads((outdir / "summary.json").read_text())
        _check_written(tmp, stderr)
    _check_warnings(caught)


def _check_written(tmp, stderr):
    """No traceback, strict JSON only, and every file under the output root."""
    assert "Traceback" not in stderr
    for written in (tmp / "root").rglob("*.json"):
        json.loads(written.read_text(), parse_constant=_reject_constant)
    assert sorted(p.name for p in tmp.iterdir()) in (["case.cfg"], ["case.cfg", "root"])


def _check_warnings(caught):
    # a front reaching a line grid's edge is the one documented warning
    assert all(issubclass(w.category, BoundaryContaminationWarning) for w in caught), \
        [str(w.message) for w in caught]


# Every key with two plausible values that --values can carry: no comma, which
# separates the values, and no path separator, which a member directory refuses.
_SWEPT = {(section, key): values for section, keys in _SCHEMA.items() for key in keys
          if len(values := [v for v in _PLAUSIBLE[section][key]
                            if "," not in v and os.sep not in v]) >= 2}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config=configs(), param=st.sampled_from(sorted(_SWEPT)), data=st.data())
def test_every_sweep_ends_in_a_documented_exit(config, param, data):
    values = data.draw(st.lists(st.sampled_from(_SWEPT[param]), min_size=2, max_size=2,
                                unique=True))
    # "--values=", so that argparse takes "-10,-4" as the option's value; the split
    # form "--values -10,-4" is a usage error (test_every_usage_error_exits_1)
    argv = ["sweep", "case.cfg", "--param", ".".join(param), f"--values={','.join(values)}"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tmp = Path(tmp)
        (tmp / "case.cfg").write_text(_text(config))
        root = tmp / "root"
        # once under the relative output root, once with an absolute --output
        codes, _, stderr = _main(tmp, argv, [*argv, "--output", str(root / "abs")])
        assert codes[0] == codes[1] and codes[0] in (0, 1, 2, 3), (codes, stderr)
        if codes[0] != 1:
            for base in (root / config["output"]["directory"], root / "abs"):
                report = json.loads((base / "sweep.json").read_text())
                assert sorted(report) == sorted(values)
                for value in values:  # each member beside the sweep.json, as it reports
                    summary = (base / f"{param[1]}={value}" / "summary.json").read_text()
                    assert json.loads(summary)["kind"] == report[value]["kind"]
        _check_written(tmp, stderr)
    _check_warnings(caught)


@st.composite
def usage_errors(draw):
    """``(form, argv)``: a command line that argparse cannot read, with a drawn command,
    swept key and values; the config it names is ``case.cfg``."""
    command = draw(st.sampled_from(("validate", "run", "sweep")))
    param = ["--param", ".".join(draw(st.sampled_from(sorted(_SWEPT))))]
    # a list that starts with "-" and holds a comma, which no negative number does
    values = draw(st.sampled_from(("-10,-4", "-1,1", "-0.5,-1e-3")))
    options = {"validate": [], "run": draw(st.sampled_from(([], ["--output", "o"]))),
               "sweep": [*param, f"--values={values}"]}[command]
    form = draw(st.sampled_from(("no command", "no config", "unknown option",
                                 "no values", "split values")))
    return form, {
        "no command": draw(st.sampled_from(([], ["--output", "o"], ["case.cfg"]))),
        "no config": [command, *options],
        "unknown option": [command, "case.cfg", *options, "--bogus"],
        "no values": ["sweep", "case.cfg", *param],
        "split values": ["sweep", "case.cfg", *param, "--values", values],
    }[form]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=configs(), drawn=usage_errors())
def test_every_usage_error_exits_1(config, drawn):
    form, argv = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "case.cfg").write_text(_text(config))
        (code,), stdout, stderr = _main(tmp, argv)
        assert (code, stdout) == (1, ""), (argv, stderr)
        assert stderr.startswith("barolab") and stderr.count("\n") == 1, stderr
        if form == "split values":
            assert "--values=-10,-4" in stderr
        _check_written(tmp, stderr)
