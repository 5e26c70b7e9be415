import dataclasses
import errno
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import barolab as bl
from barolab import BoundaryContaminationWarning, ConfigError, analysis, cli, sturm_liouville
from barolab.config import _SCHEMA, build_grid, build_initial, parse_config, read_ini
from barolab.experiments import _drift, read_snapshot, resolve_output_dir, run_experiment
from barolab.grid import BOUNDARY_TOL
from conftest import child_env

# a steady profile that starts below its sonic density, on the default law and regularizer
STEADY_BELOW = ("[experiment]\nkind = steady_profile\n[study]\nmass_flux = 1.6\n"
                "momentum_flux = 0.6\nenergy_flux = 0.4\nrho_start = 0.7\n")

MINIMAL_RBE = """
[experiment]
kind = rbe_run

[eos]
kind = shallow_water

[regularizer]
kind = cubic
epsilon = 0.1

[grid]
n = 128

[initial]
kind = sine_bump
amplitude = 0.05
mean_velocity = 1.0

[solver]
t_end = 0.05
cfl = 0.3
"""

# two line-grid members whose bump reaches the outer 5% of the domain, so each warns
LINE_BUMP = """
[experiment]
kind = rbe_run

[eos]
kind = shallow_water

[regularizer]
kind = cubic
epsilon = 0.1

[grid]
topology = line
n = 256
x_min = -10
x_max = 10

[initial]
kind = gaussian_bump
width = 2.4

[solver]
t_end = 0.05
cfl = 0.3
"""

CONFIGS = Path(__file__).resolve().parents[1] / "tools" / "configs"  # the byte-identity set
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, cwd, env_root, timeout=None):
    return subprocess.run([sys.executable, "-m", "barolab.cli", *args], capture_output=True,
                          text=True, cwd=cwd, env=child_env(BAROLAB_OUTPUT_ROOT=str(env_root)),
                          timeout=timeout)


class TestParsing:
    def test_minimal_config_defaults(self):
        cfg = parse_config(MINIMAL_RBE)
        assert cfg.kind == "rbe_run"
        assert cfg["solver"]["cfl"] == 0.3
        assert cfg["solver"]["blowup_factor"] == 1e3
        defaults = parse_config("[experiment]\nkind = rbe_run\n")
        assert defaults["solver"]["cfl"] == 0.5

    def test_gamma_zero_named_error(self):
        bad = MINIMAL_RBE.replace("kind = shallow_water", "kind = isentropic\ngamma = 0")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("gamma must be > 0" in p for p in err.value.problems)

    def test_negative_epsilon_named_error(self):
        bad = MINIMAL_RBE.replace("epsilon = 0.1", "epsilon = -0.5")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("epsilon must be >= 0" in p for p in err.value.problems)

    def test_unknown_keys_rejected_and_all_errors_reported(self):
        bad = MINIMAL_RBE.replace("cfl = 0.3", "cfl = 0.3\ncfll = 0.2")
        bad = bad.replace("epsilon = 0.1", "epsilon = -1")
        bad = bad.replace("t_end = 0.05", "t_end = -2")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = "\n".join(err.value.problems)
        assert "cfll" in text and "epsilon" in text and "t_end" in text
        assert len(err.value.problems) >= 3

    @pytest.mark.parametrize("section, old, new", [
        ("regularizer", "kind = cubic", "kind = power\np = nan"),
        ("regularizer", "kind = cubic", "kind = inverse\na = inf"),
        ("eos", "kind = shallow_water", "kind = shallow_water\ng = inf"),
        ("eos", "kind = shallow_water", "kind = isentropic\ngamma = nan"),
        ("eos", "kind = shallow_water", "kind = shallow_water\nrho_bar = 1e160"),
        ("eos", "kind = shallow_water", "kind = isentropic\ngamma = 3\nrho_bar = 1e200"),
        ("eos", "kind = shallow_water", "kind = isentropic\ngamma = 3\nrho_bar = 1e-200"),
        ("grid", "n = 128", "n = 128\ntopology = line\nu_left = nan"),
        ("grid", "n = 128", "n = 128\ntopology = line\nrho_left = -1"),
        ("solver", "t_end = 0.05", "t_end = inf"),
        ("solver", "t_end = 0.05", "t_end = 0.05\nsnapshot_every = -1"),
    ], ids=["p_nan", "a_inf", "g_inf", "gamma_nan", "p_bar_overflows", "scale_overflows",
            "scale_underflows", "u_left_nan", "rho_left_negative", "t_end_inf",
            "snapshot_every_negative"])
    def test_broken_domain_rule_names_its_section(self, tmp_path, capsys, section, old, new):
        text = MINIMAL_RBE.replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(p.startswith(f"[{section}] ") for p in err.value.problems), err.value.problems
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 1
        assert f"[{section}] " in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, prefix", [
        ("[experiment]\nkind = rbe_run\n", "", "[experiment] kind"),
        ("kind = rbe_run", "kind = no_such_run", "[experiment] kind"),
        ("kind = sine_bump", "kind = no_such_preset", "[initial] kind"),
        ("kind = sine_bump", "kind = file", "[initial] path"),
        ("kind = sine_bump", "kind = sine_bump\nmode = 0", "[initial] mode"),
        ("cfl = 0.3", "cfl = 0.3\non_blowup = ignore", "[solver] on_blowup"),
        ("[solver]", "[study]\nvariant = both\n\n[solver]", "[study] variant"),
        ("[solver]", "[study]\nsolver = euler\n\n[solver]", "[study] solver"),
        ("[solver]", "[study]\namplitude = 0\n\n[solver]", "[study] amplitude"),
        ("kind = shallow_water", "kind = polytropic", "[eos] kind"),
        ("n = 128", "topology = ring\nn = 128", "[grid] topology"),
        ("epsilon = 0.1", "epsilon = 0.1 ; note",
         "[regularizer] epsilon: cannot parse '0.1 ; note' as float"),
        # the grammar is key = value lines only: no [DEFAULT] whose keys every section
        # inherits, no ':' delimiter, and no value continued onto an indented line
        ("[solver]", "[DEFAULT]\ncfl = 0.3\n\n[solver]", "unknown section [DEFAULT]"),
        ("[solver]", "[DEFAULT]\n\n[solver]", "unknown section [DEFAULT]"),
        ("kind = rbe_run", "kind: rbe_run", "syntax: "),
        ("[solver]", "[output]\ndirectory = out\n    more\n\n[solver]", "[output] directory"),
    ], ids=["no_experiment_kind", "unknown_experiment_kind", "unknown_initial_kind",
            "file_without_path", "zero_mode", "unknown_on_blowup", "unknown_variant",
            "unknown_study_solver", "zero_amplitude", "unknown_eos_kind", "unknown_topology",
            "semicolon_after_a_scalar", "default_section", "empty_default_section",
            "colon_delimiter", "continuation_line"])
    def test_every_rule_names_its_key(self, old, new, prefix):
        assert old in MINIMAL_RBE
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RBE.replace(old, new))
        assert any(p.startswith(prefix) for p in err.value.problems), err.value.problems

    @pytest.mark.parametrize("text, prefix", [
        ("kind = rbe_run\n", "syntax: "),
        (MINIMAL_RBE + "\n[nosuch]\nkey = 1\n", "unknown section [nosuch]"),
    ], ids=["no_section_header", "unknown_section"])
    def test_unreadable_text_is_named(self, text, prefix):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(p.startswith(prefix) for p in err.value.problems), err.value.problems

    def test_every_broken_rule_reported_across_sections(self):
        bad = MINIMAL_RBE.replace("kind = shallow_water",
                                  "kind = isentropic\nrho_bar = nan\np_bar = -1")
        bad = bad.replace("n = 128", "n = 128\nlength = inf")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        eos = [p for p in err.value.problems if p.startswith("[eos] ")]
        assert len(eos) == 1 and "rho_bar must" in eos[0] and "p_bar must" in eos[0]
        assert any(p.startswith("[grid] length must") for p in err.value.problems)

    def test_ghs_on_line_grid_rejected(self):
        bad = MINIMAL_RBE.replace("kind = rbe_run", "kind = ghs_run")
        bad = bad.replace("n = 128", "topology = line\nn = 128")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("periodic" in p for p in err.value.problems)

    @pytest.mark.parametrize("kind", ["ghs_run", "epsilon_sweep", "convergence_study"])
    def test_periodic_only_kinds_reject_a_line_grid(self, kind):
        bad = MINIMAL_RBE.replace("kind = rbe_run", f"kind = {kind}")
        bad = bad.replace("n = 128", "topology = line\nn = 128")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.problems == [f"[grid] topology must be periodic for {kind}"]

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_constant_density_must_be_positive_and_finite(self, value):
        bad = MINIMAL_RBE.replace("kind = sine_bump", f"kind = constant\nrho_value = {value}")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.problems == ["[initial] rho_value must be > 0 and finite"]

    @pytest.mark.parametrize("rho_bar", ["nan", "inf", "0"])
    def test_broken_rho_bar_reported_once(self, rho_bar):
        # the line far densities and the inverse family default to rho_bar
        bad = (MINIMAL_RBE
               .replace("kind = shallow_water", f"kind = shallow_water\nrho_bar = {rho_bar}")
               .replace("kind = cubic", "kind = inverse")
               .replace("n = 128", "topology = line\nn = 128"))
        broken = "[eos] rho_bar must be > 0 and finite"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.problems == [broken]
        # the dependent sections still check their own keys
        with pytest.raises(ConfigError) as err:
            parse_config(bad.replace("epsilon = 0.1", "epsilon = 0.1\na = -1"))
        assert err.value.problems == [broken, "[regularizer] a must be > 0 and finite"]

    def test_parsed_config_keeps_its_grid(self):
        cfg = parse_config(MINIMAL_RBE.replace("n = 128", "topology = line\nn = 128"))
        grid = build_grid(cfg)
        assert (cfg.grid.topology, cfg.grid.n, cfg.grid.dx, cfg.grid.x_min) == \
            (grid.topology, grid.n, grid.dx, grid.x_min)
        assert (cfg.grid.rho_far, cfg.grid.u_far) == (grid.rho_far, grid.u_far)

    def test_nonpositive_constant_density_rejected(self):
        bad = MINIMAL_RBE.replace("kind = sine_bump", "kind = constant\nrho_value = -1")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any("rho_value" in p for p in err.value.problems)

    def test_initial_presets_build(self):
        for kind, extra in [("constant", ""), ("sine", ""), ("gaussian_bump", ""),
                            ("tanh_front", "width = 0.05")]:
            text = MINIMAL_RBE.replace("kind = sine_bump", f"kind = {kind}\n{extra}")
            cfg = parse_config(text)
            grid = build_grid(cfg)
            rho, u = build_initial(cfg, grid)
            assert rho.shape == (128,) and u.shape == (128,)
            assert np.min(rho) > 0

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_one_far_field_tolerance(self, factor):
        # build_initial and check_boundary accept exactly the same edge offsets
        value = 1.0 + factor * BOUNDARY_TOL
        cfg = parse_config(MINIMAL_RBE.replace("n = 128", "topology = line\nn = 128").replace(
            "kind = sine_bump", f"kind = constant\nrho_value = {value!r}"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warned = cfg.grid.check_boundary(np.full(cfg.grid.n, value), cfg.grid.rho_far)
        assert warned is (factor > 1.0) and len(caught) == int(factor > 1.0)
        if factor < 1.0:
            rho, _ = build_initial(cfg, cfg.grid)
            assert rho[0] == value
        else:
            with pytest.raises(bl.DomainError, match="rho_left"):
                build_initial(cfg, cfg.grid)

    def test_study_lists_are_typed_once(self):
        cfg = parse_config(MINIMAL_RBE + "\n[study]\nmodes = 1, 3;5\n")
        assert cfg["study"]["modes"] == [1, 3, 5]
        cfg = parse_config(MINIMAL_RBE + "\n[study]\nmodes = 1 ; 2\nepsilons = 0.1 ; 0.01\n")
        assert cfg["study"]["modes"] == [1, 2] and cfg["study"]["epsilons"] == [0.1, 0.01]
        st = parse_config("[experiment]\nkind = rbe_run\n")["study"]
        assert st["modes"] == [1, 2, 4, 8] and st["resolutions"] == [64, 128, 256]
        assert st["epsilons"] == [0.1, 0.01, 0.001]
        assert all(type(v) is int for v in st["modes"] + st["resolutions"])
        assert all(type(v) is float for v in st["epsilons"])
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RBE + "\n[study]\nmodes = 1,x\n")
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith("[study] modes: cannot parse '1,x'")

    def test_readme_grammar_lists_every_key_with_its_default(self):
        text = README.read_text().split("### Configuration grammar\n", 1)[1]
        grammar = read_ini(text.split("```ini\n", 1)[1].split("```", 1)[0])
        assert {section: set(grammar[section]) for section in grammar.sections()} == \
            {section: set(keys) for section, keys in _SCHEMA.items()}
        for section, keys in _SCHEMA.items():
            for key, (conv, default, *_) in keys.items():
                if default is not None:
                    assert conv(grammar[section][key]) == default, (section, key)

    def test_solver_and_regularizer_keys_are_their_objects_fields(self):
        # both sections become their objects by keyword, so a key added without its
        # field fails here, not as a TypeError on every parse
        def fields(cls):
            return sorted(f.name for f in dataclasses.fields(cls))
        assert sorted(_SCHEMA["solver"]) == fields(bl.SolverConfig)
        assert sorted([*_SCHEMA["regularizer"], "rho_bar"]) == fields(bl.Regularizer)

    def test_tanh_front_is_continuous_across_wrap(self):
        cfg = parse_config(MINIMAL_RBE.replace("kind = sine_bump",
                                               "kind = tanh_front\nwidth = 0.03"))
        grid = build_grid(cfg)
        _, u = build_initial(cfg, grid)
        assert abs(u[0] - u[-1]) < 1e-8


class TestExperiments:
    def test_constant_run_trivial_summary(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = sine_bump", "kind = constant")
        code, summary = run_experiment(parse_config(text), tmp_path / "c")
        assert code == 0
        assert summary["energy_drift"] == 0.0
        assert summary["blowup"] is False

    def test_zero_initial_mass_has_no_relative_drift(self, tmp_path):
        # the line perturbation mass starts at exactly 0 and inflow moves it
        text = MINIMAL_RBE.replace(
            "n = 128", "topology = line\nn = 256\nu_left = 0.2\nu_right = -0.2")
        text = text.replace("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
                            "kind = tanh_front\namplitude = 0.2\nwidth = 1.0")
        code, summary = run_experiment(parse_config(text.replace("t_end = 0.05", "t_end = 0.2")),
                                       tmp_path / "z")
        assert code == 0
        assert summary["mass_drift"] is None
        written = json.loads((tmp_path / "z" / "summary.json").read_text())
        assert written["mass_drift"] is None and written["energy_drift"] > 0.0

    @pytest.mark.parametrize("last", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("first", [1.0, 0.0])
    def test_a_drift_to_a_non_finite_end_value_is_null(self, first, last):
        # summary.json stays strict JSON: NaN and Infinity are not JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _drift([(0.0, first), (1.0, np.float64(last))], 1) is None
            assert _drift([(0.0, np.float64(last)), (1.0, first)], 1) is None
        assert _drift([(0.0, 2.0), (1.0, 2.5)], 1) == 0.25

    def test_failed_operator_solve_is_an_integration_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sturm_liouville, "RESIDUAL_TOL", -1.0)  # every solve fails
        cfg = parse_config(MINIMAL_RBE)
        initial = bl.State(0.0, *build_initial(cfg, cfg.grid), cfg.grid)
        with pytest.raises(bl.IntegrationError) as err:
            bl.run(initial, cfg.solver, cfg.regularizer, cfg.eos)
        assert isinstance(err.value.__cause__, bl.NumericalBreakdownError)
        assert [row[0] for row in err.value.series] == [0.0]  # the rows before the failure
        code, summary = run_experiment(cfg, tmp_path / "b")
        assert code == 2
        written = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert "solve residual" in written["error"] and written["failure_time"] == 0.0

    @pytest.mark.parametrize("kind, study, message", [
        ("dispersion_study", "modes = 1\namplitude = 0.2", "harmonic content"),
        ("steady_profile", "points = 65", "usable points"),
        ("steady_profile", "points = 17", "fit window is empty"),
        ("steady_profile", "points = 1", "too short to fit"),
        ("steady_profile", "points = 2", "too short to fit"),
    ], ids=["wave_leaves_the_linear_regime", "fit_with_too_few_points", "empty_fit_window",
            "one_point_profile", "two_point_profile"])
    def test_failed_measurement_is_a_run_failure(self, tmp_path, kind, study, message):
        text = MINIMAL_RBE.replace("kind = rbe_run", f"kind = {kind}") + f"\n[study]\n{study}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a failed measurement warns nothing on its way
            code, summary = run_experiment(parse_config(text), tmp_path / "m")
        assert code == 2
        written = json.loads((tmp_path / "m" / "summary.json").read_text())
        assert message in written["error"] and written["failure_time"] is None
        assert [p.name for p in (tmp_path / "m").iterdir()] == ["summary.json"]

    @pytest.mark.parametrize("kind, epsilon, study, member, csv", [
        ("epsilon_sweep", "0.1", "epsilons = 0.1, 0.001", "epsilon = 0.1", "epsilon_sweep.csv"),
        ("convergence_study", "0.01", "resolutions = 32, 64", "n = 32", "convergence.csv"),
    ], ids=["epsilon_sweep", "spatial_convergence"])
    def test_study_member_that_blows_up_fails_the_study(self, tmp_path, kind, epsilon, study,
                                                        member, csv):
        text = MINIMAL_RBE.replace("kind = rbe_run", f"kind = {kind}")
        text = text.replace("epsilon = 0.1", f"epsilon = {epsilon}").replace("n = 128", "n = 64")
        text = text.replace("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
                            "kind = sine\namplitude = 0.3")
        text = text.replace("t_end = 0.05", "t_end = 1.0\nblowup_factor = 2")
        code, _ = run_experiment(parse_config(text + f"\n[study]\n{study}\n"), tmp_path / "s")
        assert code == 2
        written = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert f"study member {member} blew up before t_end" in written["error"]
        assert 0.0 < written["failure_time"] < 1.0
        assert not (tmp_path / "s" / csv).exists()

    def test_rbe_run_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_RBE + "snapshot_every = 20\n")
        code, summary = run_experiment(cfg, tmp_path / "r")
        assert code == 0
        out = tmp_path / "r"
        assert (out / "diagnostics.csv").exists()
        assert (out / "summary.json").exists()
        head = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert head == "t,dt,mass,momentum,energy,sup_Wx"
        snap = (out / "snapshot_000000.csv").read_text().splitlines()[0]
        assert snap == "x,rho,u,m,R"
        assert summary["energy_drift"] < 1e-6

    def test_ghs_snapshot_drops_flux_column(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = ghs_run")
        text = text.replace("amplitude = 0.05", "amplitude = 0.004")
        text = text.replace("mean_velocity = 1.0", "mean_velocity = 0.0")
        code, _ = run_experiment(parse_config(text), tmp_path / "g")
        assert code == 0
        snap = (tmp_path / "g" / "snapshot_000000.csv").read_text().splitlines()[0]
        assert snap == "x,rho,u,m"

    def test_determinism_byte_identical(self, tmp_path):
        cfg_text = MINIMAL_RBE + "snapshot_every = 25\n"
        for d in ("a", "b"):
            run_experiment(parse_config(cfg_text), tmp_path / d)
        for name in ("diagnostics.csv", "snapshot_000001.csv", "snapshots_index.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_snapshot_restart_reproduces_trajectory(self, tmp_path):
        cfg = parse_config(MINIMAL_RBE + "snapshot_every = 30\n")
        code, _ = run_experiment(cfg, tmp_path / "full")
        assert code == 0
        index = (tmp_path / "full" / "snapshots_index.csv").read_text().splitlines()
        idx, t_snap, fname = index[2].split(",")  # first snapshot after t = 0
        t_snap = float(t_snap)
        assert 0.0 < t_snap < 0.05
        restart_text = MINIMAL_RBE.replace(
            "kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
            f"kind = file\npath = {tmp_path / 'full' / fname}",
        ).replace("t_end = 0.05", f"t_end = {0.05 - t_snap:.17g}")
        code, _ = run_experiment(parse_config(restart_text), tmp_path / "restart")
        assert code == 0
        grid = build_grid(cfg)
        rho_a, u_a = read_snapshot(sorted((tmp_path / "full").glob("snapshot_*.csv"))[-1], grid)
        rho_b, u_b = read_snapshot(sorted((tmp_path / "restart").glob("snapshot_*.csv"))[-1], grid)
        assert np.max(np.abs(rho_a - rho_b)) <= 1e-12
        assert np.max(np.abs(u_a - u_b)) <= 1e-12

    def test_line_far_fields_must_match_initial_data(self, tmp_path):
        text = MINIMAL_RBE.replace(
            "n = 128", "topology = line\nn = 128\nu_left = 0.05\nu_right = -0.05")
        text = text.replace("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
                            "kind = tanh_front\namplitude = 0.05\nwidth = 1.0")
        code, _ = run_experiment(parse_config(text), tmp_path / "match")
        assert code == 0
        bad = text.replace("u_left = 0.05", "u_left = 0.05\nrho_left = 1.2")
        code, summary = run_experiment(parse_config(bad), tmp_path / "mismatch")
        assert code == 1
        assert "left edge" in summary["error"] and "rho_left" in summary["error"]
        written = json.loads((tmp_path / "mismatch" / "summary.json").read_text())
        assert written["error"] == summary["error"]

    @pytest.mark.parametrize("body", [None, "x,y\n0,1\n", "x,rho,u\n0,1,0\n"],
                             ids=["missing", "no_rho_u_columns", "row_count_mismatch"])
    def test_unreadable_snapshot_file_is_a_config_error(self, tmp_path, body):
        path = tmp_path / "snap.csv"
        if body is not None:
            path.write_text(body)
        text = MINIMAL_RBE.replace("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
                                   f"kind = file\npath = {path}")
        code, summary = run_experiment(parse_config(text), tmp_path / "out")
        assert code == 1
        assert "snap.csv" in summary["error"]
        written = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert written["error"] == summary["error"]

    def test_snapshot_with_an_empty_field_exits_1_with_the_error_in_the_summary(
            self, tmp_path, capsys):
        grid = build_grid(parse_config(MINIMAL_RBE))
        path = tmp_path / "snap.csv"
        path.write_text("x,rho,u\n" + "".join(f"{x},1,{'' if i == 5 else 0}\n"
                                              for i, x in enumerate(grid.x.tolist())))
        cfg = tmp_path / "restart.cfg"
        cfg.write_text(MINIMAL_RBE.replace(
            "kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0", f"kind = file\npath = {path}"))
        assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        written = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "snap.csv cannot be read" in written["error"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("topology", ["periodic", "line"])
    def test_snapshot_columns_hold_momentum_and_flux(self, tmp_path, topology):
        text = MINIMAL_RBE + "snapshot_every = 20\n"
        if topology == "line":
            # moving far field, and a short domain so the edge velocity leaves
            # it: m must take the far-field velocity, not the edge sample, as ghost
            text = text.replace("n = 128", "topology = line\nn = 128\nx_min = -4.0\n"
                                "x_max = 4.0\nu_left = 1.0\nu_right = 1.0")
            text = text.replace("kind = sine_bump", "kind = gaussian_bump\nwidth = 0.8")
        cfg = parse_config(text)
        code, _ = run_experiment(cfg, tmp_path / "r")
        assert code == 0
        last = sorted((tmp_path / "r").glob("snapshot_*.csv"))[-1]
        data = np.genfromtxt(last, delimiter=",", names=True)
        state = bl.State(0.0, data["rho"], data["u"], cfg.grid)
        reg, eos = cfg.regularizer, cfg.eos
        assert np.array_equal(data["m"], bl.momentum_field(state, reg))
        want_r = bl.SLSystem(cfg.grid, state.rho, reg).smooth(bl.reg_source(state, reg, eos))
        assert np.array_equal(data["R"], want_r)

    def test_dispersion_study_csv(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = dispersion_study")
        text += "\n[study]\nmodes = 1,2\namplitude = 1e-6\n"
        code, summary = run_experiment(parse_config(text), tmp_path / "d")
        assert code == 0
        lines = (tmp_path / "d" / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "k,c_theory,c_measured,rel_err"
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 0.01

    def test_epsilon_sweep_monotone(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = epsilon_sweep")
        text = text.replace("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
                            "kind = sine\namplitude = 0.3\nu_amplitude = 0.3")
        text = text.replace("t_end = 0.05", "t_end = 0.15")
        text += "\n[study]\nepsilons = 0.1,0.01,0.001\n"
        code, summary = run_experiment(parse_config(text), tmp_path / "e")
        assert code == 0
        assert summary["monotone_decreasing"] is True

    def test_convergence_study(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = convergence_study")
        text = text.replace("t_end = 0.05", "t_end = 0.1")
        text += "\n[study]\nvariant = spatial\nsolver = rbe\nresolutions = 64,128,256\n"
        code, summary = run_experiment(parse_config(text), tmp_path / "cs")
        assert code == 0
        assert all(abs(o - 2.0) < 0.3 for o in summary["observed_orders"])

    def test_zero_error_study_has_no_order(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = convergence_study")
        text = text.replace("n = 128", "n = 64").replace("kind = sine_bump", "kind = constant")
        text = text.replace("t_end = 0.05", "t_end = 0.01")
        text += "\n[study]\nvariant = temporal\nresolutions = 4, 8\n"
        code, summary = run_experiment(parse_config(text), tmp_path / "z")
        assert code == 0
        assert summary["errors"] == [0.0, 0.0] and summary["observed_orders"] == [None]

    def test_steady_profile_experiment(self, tmp_path):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = steady_profile")
        text += "\n[study]\nmass_flux = 1.0\nmomentum_flux = 1.25\nenergy_flux = 0.5\n"
        code, summary = run_experiment(parse_config(text), tmp_path / "sp")
        assert code == 0
        report = json.loads((tmp_path / "sp" / "fit.json").read_text())
        assert set(report) == {"alpha_left", "alpha_right", "rho_amp_left",
                               "rho_amp_right", "r2_left", "r2_right", "window"}
        assert abs(report["alpha_left"] - 2 / 3) < 0.05
        assert abs(summary["alpha"] - 2 / 3) < 0.05

    @pytest.mark.parametrize("fluxes, rho_start, stop", [
        ("1.0, 1.25, 0.5", 1.3, "sonic"),
        ("0.5, 0.25, 0.0625", 1.5, "turning"),
        ("2, 3.5, 3", 2.5, "end"),
        ("0.5, 0.25, 0.0625", 1.0, "equilibrium"),
    ], ids=["sonic", "turning", "end", "equilibrium"])
    def test_steady_profile_integrates_once(self, tmp_path, monkeypatch, fluxes, rho_start,
                                            stop):
        calls = []
        integrate = analysis.integrate_steady_profile

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(analysis, "integrate_steady_profile", counted)
        i, s, f = fluxes.split(", ")
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = steady_profile")
        text += (f"\n[study]\nmass_flux = {i}\nmomentum_flux = {s}\nenergy_flux = {f}\n"
                 f"rho_start = {rho_start}\n")
        out = tmp_path / "sp"
        code, summary = run_experiment(parse_config(text), out)
        assert code == 0 and len(calls) == 1
        assert summary.get("stop", "sonic") == stop
        assert (summary["alpha"] is None) == (stop != "sonic")
        assert (out / "fit.json").exists() == (stop == "sonic")
        assert (out / "profile.csv").exists()


def loaded_by_cli_import(cwd, *modules, then="pass"):
    """Those of ``modules`` that a fresh ``import barolab.cli``, followed by the statement
    ``then``, loads."""
    probe = (f"import json, sys, barolab.cli; {then}; "
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=cwd, env=child_env(), check=True)
    return json.loads(out.stdout.splitlines()[-1])  # after what ``then`` prints


def require_pool():
    """Skip unless a sweep of two members runs them in the forked pool here."""
    if not hasattr(os, "fork"):
        pytest.skip("the sweep pool needs the fork start method, which this platform lacks")
    if cli._cpus() < 2:
        pytest.skip(f"the sweep pool needs 2 or more CPUs; this process may run on {cli._cpus()}")


def pin_to_one_cpu(monkeypatch):
    """Make ``barolab sweep`` run its members in the plain loop, in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


class TestCli:
    def test_validate_ok_and_bad(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text(MINIMAL_RBE)
        r = run_cli(["validate", str(good)], tmp_path, tmp_path)
        assert r.returncode == 0 and "OK" in r.stdout, r.stderr
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_RBE.replace("epsilon = 0.1", "epsilon = -1"))
        r = run_cli(["validate", str(bad)], tmp_path, tmp_path)
        assert r.returncode == 1 and "epsilon" in r.stderr, r.stderr

    @pytest.mark.parametrize("old, new", [
        ("kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
         "kind = file\npath = {tmp}/missing.csv"),
        ("kind = sine_bump\namplitude = 0.05", "kind = sine\namplitude = 2.0"),
        ("n = 128", "topology = line\nn = 128\nrho_left = 1.2"),
    ], ids=["missing_snapshot", "vacuum", "far_field_mismatch"])
    def test_validate_checks_the_initial_data(self, tmp_path, capsys, old, new):
        text = MINIMAL_RBE.replace(old, new.format(tmp=tmp_path))
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "[initial] " in captured.err and "OK" not in captured.out
        code, _ = run_experiment(parse_config(text), tmp_path / "out")
        assert code == 1  # a run rejects the same data

    @pytest.mark.parametrize("variant, resolutions", [
        ("spatial", "48, 64"), ("spatial", ""), ("temporal", "0, 8"), ("temporal", "8, 8"),
        ("spatial", "2, 4"),
    ], ids=["not_dividing_the_reference", "empty", "zero_steps", "repeated", "below_grid_minimum"])
    def test_study_resolutions_are_checked(self, tmp_path, capsys, variant, resolutions):
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = convergence_study")
        path = tmp_path / "res.cfg"
        path.write_text(text + f"\n[study]\nvariant = {variant}\nresolutions = {resolutions}\n")
        assert cli.main(["validate", str(path)]) == 1
        assert "[study] resolutions" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert "[study] resolutions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, old, new, prefix", [
        ("rbe_run", "kind = sine_bump", "kind = sine_bump\nwidth = 0", "[initial] width"),
        ("steady_profile", "epsilon = 0.1", "epsilon = 0", "[regularizer] epsilon"),
        ("steady_profile", "[solver]", "[study]\nmass_flux = 0\n\n[solver]", "[study] mass_flux"),
        ("steady_profile", "[solver]", "[study]\nrho_start = 0.8\n\n[solver]",
         "[study] rho_start: squared slope is negative"),
        ("steady_profile", "[solver]", "[study]\nrho_start = -1\n\n[solver]",
         "[study] rho_start: density reached vacuum"),
        ("steady_profile", "[solver]", "[study]\nrho_start = 1.0\n\n[solver]",
         "[study] rho_start: squared slope is not finite"),
        ("steady_profile", "[solver]", "[study]\nenergy_flux = inf\n\n[solver]",
         "[study] energy_flux must be finite"),
        ("steady_profile", "[solver]", "[study]\nmomentum_flux = nan\n\n[solver]",
         "[study] momentum_flux must be finite"),
    ], ids=["sine_bump_zero_width", "steady_zero_epsilon", "steady_zero_mass_flux",
            "steady_negative_start_slope", "steady_negative_start", "steady_sonic_start",
            "steady_infinite_energy_flux", "steady_nan_momentum_flux"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, kind, old, new, prefix):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL_RBE.replace("kind = rbe_run", f"kind = {kind}").replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", str(path)]) == 1
        assert prefix in capsys.readouterr().err
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert prefix in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, prefix", [
        ("[experiment]\nkind = dispersion_study\n[study]\nmodes = 1\namplitude = 1.0\n",
         "[study] amplitude must be < [eos] rho_bar"),
        ("[experiment]\nkind = rbe_run\n[grid]\nn = 16\nlength = 1e-300\n"
         "[solver]\nt_end = 0.01\n", "[grid] length must"),
        ("[experiment]\nkind = rbe_run\n[grid]\nn = 8\nlength = 1e300\n"
         "[solver]\nt_end = 0.01\n", "[grid] length must"),
        ("[experiment]\nkind = rbe_run\n[grid]\ntopology = line\nn = 8\nx_min = -1e300\n"
         "x_max = 1e300\n[initial]\nkind = constant\n[solver]\nt_end = 0.01\n",
         "[grid] x_min and x_max must"),
    ], ids=["dispersion_amplitude_reaches_vacuum", "spacing_squared_underflows",
            "spacing_squared_overflows", "line_spacing_squared_overflows"])
    def test_inputs_the_run_cannot_use_are_rejected_before_it(self, tmp_path, capsys, text,
                                                                prefix):
        # validate and run both exit 1 with the prefixed problem, and no directory is made
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 1
        assert prefix in capsys.readouterr().err
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert prefix in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_dispersion_amplitude_is_bounded_only_for_the_study(self):
        study = "\n[study]\namplitude = 2.0\n"
        parse_config(MINIMAL_RBE + study)  # an rbe_run does not use [study] amplitude
        text = MINIMAL_RBE.replace("kind = rbe_run", "kind = dispersion_study")
        parse_config(text + "\n[study]\namplitude = 0.999\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("kind = shallow_water", "kind = shallow_water\nrho_bar = 2")
                         + "\n[study]\namplitude = 2.0\n")
        assert err.value.problems == [
            "[study] amplitude must be < [eos] rho_bar for dispersion_study"]

    def test_steady_profile_below_the_sonic_density_reaches_its_cusp(self, tmp_path, capsys):
        # rho_start lies below the sonic density 1.0858, so the density rises to its cusp
        path = tmp_path / "below.cfg"
        path.write_text(STEADY_BELOW)
        assert cli.main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        fit = json.loads((out / "fit.json").read_text())
        assert len((out / "profile.csv").read_text().splitlines()) == 1 + 4097
        assert summary["sonic_density"] > 0.7
        assert abs(summary["alpha"] - 2.0 / 3.0) <= 0.05
        assert summary["predicted_amplitude"] < 0.0 < fit["rho_amp_left"]

    def test_steady_profile_that_reaches_vacuum_is_a_run_failure(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the start is admissible, so validate accepts it; a profile that then leaves the
        # admissible densities is a failed run (exit 2), not a bad config
        def vacuum(*args, **kwargs):
            raise bl.VacuumError("density reached vacuum")

        monkeypatch.setattr(analysis, "integrate_steady_profile", vacuum)
        path = tmp_path / "vacuum.cfg"
        path.write_text(STEADY_BELOW)
        assert cli.main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "density reached vacuum"
        assert summary["failure_time"] is None and summary["kind"] == "steady_profile"
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--param", "regularizer.epsilon", "--values", "0.1,0.05"],
    ], ids=["run", "sweep"])
    def test_output_directory_under_a_regular_file_is_a_config_error(self, tmp_path, capsys,
                                                                     command):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "sub"
        assert cli.main([command[0], str(cfg), *command[1:], "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"output directory {out} cannot be created" in err and "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "ok.cfg"]

    @pytest.mark.parametrize("sub", ["file/sub", "file", "a\0b", "b" * 300],
                             ids=["under_a_file", "a_file", "null_byte", "too_long"])
    def test_validate_rejects_an_output_directory_that_run_cannot_make(self, tmp_path, capsys,
                                                                        sub):
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / sub
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL_RBE + f"\n[output]\ndirectory = {out}\n")
        assert cli.main(["validate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "OK" not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "ok.cfg"]
        # the text run reports when its mkdir fails
        with pytest.raises((OSError, ValueError)) as made:
            out.mkdir(parents=True, exist_ok=True)
        assert f"output directory {out} cannot be created: {made.value}" in err

    def test_sweep_makes_every_member_directory_before_the_first_member_runs(self, tmp_path,
                                                                             capsys):
        # a name too long for the file system fails before the member ahead of it runs
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        out = tmp_path / "sw"
        code = cli.main(["sweep", str(cfg), "--param", "output.directory",
                         "--values", "a," + "b" * 300, "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot be created" in err and "Traceback" not in err
        assert not list(out.rglob("summary.json")) and not (out / "sweep.json").exists()

    def test_sweep_checks_every_member_initial_data_before_the_first_member_runs(
            self, tmp_path, capsys, monkeypatch):
        # the snapshot has the rows of member 64 only: member 96 fails before 64 runs a step
        monkeypatch.chdir(CONFIGS)  # a file preset names its snapshot relative to here
        out = tmp_path / "sw"
        code = cli.main(["sweep", "rbe_file_restart.cfg", "--param", "grid.n",
                         "--values", "64,96", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[initial] snapshot snapshot_periodic_64.csv has 64 rows, grid has 96" in err
        assert "Traceback" not in err and not out.exists()

    def test_output_directory_that_mkdir_refuses_is_a_config_error(self, tmp_path, capsys,
                                                                   monkeypatch):
        # a parent without write permission passes check_output_dir; only mkdir fails
        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL_RBE)
        out = tmp_path / "out"
        monkeypatch.setattr(Path, "mkdir", refuse)
        assert cli.main(["run", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"output directory {out} cannot be created: [Errno {errno.EACCES}] "
                f"{os.strerror(errno.EACCES)}: '{out}'") in err
        assert "Traceback" not in err and not out.exists()

    def test_output_directory_with_a_null_byte_is_a_config_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the path cannot even be given to the OS, which is a ValueError, not an OSError
        monkeypatch.setenv("BAROLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "nul.cfg"
        cfg.write_text(MINIMAL_RBE + "\n[output]\ndirectory = a\0b\n")
        assert cli.main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "cannot be created: embedded null byte" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_validate_builds_every_grid_a_study_integrates(self, tmp_path, capsys,
                                                           monkeypatch):
        # a spatial study integrates its resolutions and their reference, not [grid] n
        monkeypatch.chdir(CONFIGS)  # where the 64-row snapshot lives
        path = tmp_path / "study.cfg"
        path.write_text("[experiment]\nkind = convergence_study\n\n[grid]\nn = 64\n\n"
                        "[initial]\nkind = file\npath = snapshot_periodic_64.csv\n\n"
                        "[solver]\nt_end = 0.01\n\n"
                        "[study]\nvariant = spatial\nresolutions = 16, 32\n")
        message = "[initial] snapshot snapshot_periodic_64.csv has 64 rows, grid has 16"
        assert cli.main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        capsys.readouterr()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert message in summary["error"]

    @pytest.mark.parametrize("kind, line, key", [
        ("dispersion_study", "modes = 0, 2", "modes"),
        ("dispersion_study", "modes =", "modes"),
        ("epsilon_sweep", "epsilons = 0.1, -0.5", "epsilons"),
        ("epsilon_sweep", "epsilons =", "epsilons"),
        ("steady_profile", "x_max = 0", "x_max"),
        ("steady_profile", "x_max = -1", "x_max"),
        ("steady_profile", "points = 0", "points"),
    ], ids=["zero_mode", "no_modes", "negative_epsilon", "no_epsilons", "zero_x_max",
            "negative_x_max", "zero_points"])
    def test_study_modes_and_epsilons_are_checked(self, tmp_path, capsys, kind, line, key):
        path = tmp_path / "study.cfg"
        path.write_text(MINIMAL_RBE.replace("kind = rbe_run", f"kind = {kind}")
                        + f"\n[study]\n{line}\n")
        assert cli.main(["validate", str(path)]) == 1
        assert f"[study] {key}" in capsys.readouterr().err

    def test_overflowing_mass_flux_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the steady relation squares the mass flux; 1e160**2 overflows a double
        monkeypatch.setenv("BAROLAB_OUTPUT_ROOT", str(tmp_path))
        path = tmp_path / "flux.cfg"
        path.write_text(MINIMAL_RBE.replace("kind = rbe_run", "kind = steady_profile")
                        + "\n[study]\nmass_flux = 1e160\n")
        for command in ("validate", "run"):
            assert cli.main([command, str(path)]) == 1
            assert "[study] mass_flux" in capsys.readouterr().err

    def test_cli_import_leaves_the_steady_profile_solvers_unloaded(self, tmp_path):
        # scipy.integrate and scipy.optimize serve steady profiles only, so
        # they are imported by the functions that use them
        assert loaded_by_cli_import(tmp_path, "scipy.integrate", "scipy.optimize") == []

    def test_cli_import_and_validate_leave_scipy_linalg_unloaded(self, tmp_path):
        # the operator's two LAPACK kernels come from SciPy's extension module alone,
        # loaded at the first factorization, so neither start-up nor a validate pays
        # for the scipy.linalg package or for LAPACK
        linalg = ("scipy.linalg", "scipy.linalg._flapack")
        assert loaded_by_cli_import(tmp_path, *linalg) == []
        config = str(CONFIGS / "rbe_periodic_cubic.cfg")
        validate = f"assert barolab.cli.main(['validate', {config!r}]) == 0"
        assert loaded_by_cli_import(tmp_path, *linalg, then=validate) == []

    def test_only_the_first_factorization_loads_lapack(self, tmp_path):
        # a Hunter-Saxton run never factors the operator; one Euler stage does
        flapack = sturm_liouville.FLAPACK
        config, out = str(CONFIGS / "ghs_periodic.cfg"), str(tmp_path / "ghs")
        run = f"assert barolab.cli.main(['run', {config!r}, '--output', {out!r}]) == 0"
        assert loaded_by_cli_import(tmp_path, flapack, then=run) == []
        assert (tmp_path / "ghs" / "summary.json").exists()
        stage = ("import barolab as bl; g = bl.Grid.periodic(1.0, 64); "
                 "bl.rhs(bl.State(0.0, 1.0 + 0.0 * g.x, 0.0 * g.x, g), "
                 "bl.Regularizer.cubic(0.1), bl.EquationOfState.shallow_water(1.0))")
        assert loaded_by_cli_import(tmp_path, flapack, then=stage) == [flapack]

    def test_cpus_without_affinity_counts_the_machine(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert cli._cpus() == 1

    def test_cli_import_leaves_the_pool_unloaded(self, tmp_path):
        # only a sweep that runs its pool imports it, so no other command pays for it
        pool = ("multiprocessing", "concurrent.futures.process")
        assert loaded_by_cli_import(tmp_path, *pool) == []

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BAROLAB_OUTPUT_ROOT", str(tmp_path))
        path = tmp_path / "pct.cfg"
        path.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01")
                        + "\n[output]\ndirectory = out_100%\n")
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 0
        assert cli.main(["sweep", str(path), "--param", "regularizer.epsilon",
                         "--values", "0.05"]) == 0
        capsys.readouterr()
        assert (tmp_path / "out_100%" / "summary.json").exists()
        assert (tmp_path / "out_100%" / "epsilon=0.05" / "summary.json").exists()

    @pytest.mark.parametrize("command", [
        ["validate"], ["run"], ["sweep", "--param", "regularizer.epsilon", "--values", "0.1"],
    ], ids=["validate", "run", "sweep"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nosuch.cfg")
        assert cli.main([command[0], missing, *command[1:]]) == 1
        assert f"cannot read {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ([], "barolab: error: the following arguments are required: command"),
        (["run"], "barolab run: error: the following arguments are required: config"),
        (["run", "x.cfg", "--bogus"], "barolab: error: unrecognized arguments: --bogus"),
        (["sweep", str(CONFIGS / "rbe_line_power.cfg"), "--param", "grid.x_min",
          "--values", "-10,-4"], "barolab sweep: error: argument --values: expected one "
                                 "argument; write a list that starts with '-' as --values=-10,-4"),
    ], ids=["no_command", "no_config", "unknown_option", "values_split_from_a_leading_minus"])
    def test_usage_errors_exit_1_with_one_line(self, tmp_path, monkeypatch, capsys, argv,
                                               message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exits_1_from_the_module(self, tmp_path):
        r = run_cli([], tmp_path, tmp_path)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "barolab: error: the following arguments are required: command\n"

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0 and "usage: barolab" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_committed_configs_validate(self, monkeypatch, capsys, name):
        monkeypatch.chdir(CONFIGS)  # a file preset names its snapshot relative to here
        assert cli.main(["validate", name]) == 0, capsys.readouterr().err

    def test_run_and_exit_codes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_RBE + "\n[output]\ndirectory = ok\n")
        r = run_cli(["run", str(cfg)], tmp_path, tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "ok" / "summary.json").exists()

    def test_blowup_exit_code_when_completion_demanded(self, tmp_path):
        text = MINIMAL_RBE.replace(
            "kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
            "kind = tanh_front\namplitude = 0.5\nwidth = 0.04",
        )
        text = text.replace("epsilon = 0.1", "epsilon = 1e-4")
        text = text.replace("t_end = 0.05", "t_end = 1.0")
        text = text.replace("n = 128", "n = 512")
        text += "blowup_threshold = 100\non_blowup = fail\n[output]\ndirectory = bu\n"
        cfg = tmp_path / "bu.cfg"
        cfg.write_text(text)
        r = run_cli(["run", str(cfg)], tmp_path, tmp_path)
        assert r.returncode == 3, r.stderr
        summary = json.loads((tmp_path / "bu" / "summary.json").read_text())
        assert summary["blowup"] is True

    def test_integration_failure_exit_code(self, tmp_path):
        text = MINIMAL_RBE.replace(
            "kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
            "kind = tanh_front\namplitude = 5.0\nwidth = 0.005",
        )
        text = text.replace("epsilon = 0.1", "epsilon = 0.0")
        text = text.replace("t_end = 0.05", "t_end = 1.0")
        text = text.replace("cfl = 0.3", "cfl = 0.9")
        text += "blowup_threshold = 1e12\n[output]\ndirectory = fail\n"
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(text)
        r = run_cli(["run", str(cfg)], tmp_path, tmp_path)
        assert r.returncode == 2, r.stderr
        summary = json.loads((tmp_path / "fail" / "summary.json").read_text())
        assert summary["failure_time"] > 0.0
        # the rows up to the failure are kept; no snapshot is written
        header, *rows = (tmp_path / "fail" / "diagnostics.csv").read_text().splitlines()
        assert header == "t,dt,mass,momentum,energy,sup_Wx" and len(rows) >= 2
        assert float(rows[0].split(",")[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == summary["failure_time"]
        assert not list((tmp_path / "fail").glob("snapshot*"))

    def test_a_step_that_cannot_move_t_exit_code(self, tmp_path, capsys):
        # cfl = 5e-324 passes validate, but its step cfl * dx / max(|u| + c_s) underflows
        # to 0: the run keeps its t = 0 row and exits 2 instead of looping forever
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[experiment]\nkind = rbe_run\n[grid]\nn = 16\n"
                       "[solver]\nt_end = 0.01\ncfl = 5e-324\n")
        assert cli.main(["validate", str(cfg)]) == 0, capsys.readouterr().err
        r = run_cli(["run", str(cfg)], tmp_path, tmp_path, timeout=60)
        assert r.returncode == 2, r.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["error"] == "a step of 0.000e+00 leaves t unchanged (at t = 0)"
        _, *rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows] == [0.0]

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE + "\n[output]\ndirectory = sw\n")
        r = run_cli(["sweep", str(cfg), "--param", "regularizer.epsilon",
                     "--values", "0.05,0.2"], tmp_path, tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "sw" / "epsilon=0.05" / "summary.json").exists()
        assert (tmp_path / "sw" / "epsilon=0.2" / "summary.json").exists()
        report = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        assert set(report) == {"0.05", "0.2"}

    def test_sweep_is_a_loop_of_single_runs(self, tmp_path, capsys):
        # in process: every member's CSV output equals a plain run_experiment
        # of the same overridden config
        text = MINIMAL_RBE + "snapshot_every = 10\n"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        values = ("0.2", "0.05")
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", ",".join(values), "--output", str(tmp_path / "sw")])
        capsys.readouterr()
        assert code == 0
        for value in values:
            single = tmp_path / "single" / value
            run_experiment(parse_config(text.replace("epsilon = 0.1", f"epsilon = {value}")),
                           single)
            member = tmp_path / "sw" / f"epsilon={value}"
            names = sorted(p.name for p in single.glob("*.csv"))
            assert len(names) > 3
            assert names == sorted(p.name for p in member.glob("*.csv"))
            for name in names:
                assert (member / name).read_bytes() == (single / name).read_bytes(), name

    def test_pool_and_loop_give_the_same_sweep(self, tmp_path, capsys, monkeypatch):
        require_pool()
        # the first member reaches vacuum (exit 2), the second completes (exit 0)
        text = MINIMAL_RBE.replace(
            "kind = sine_bump\namplitude = 0.05\nmean_velocity = 1.0",
            "kind = tanh_front\namplitude = 5.0\nwidth = 0.005",
        ).replace("cfl = 0.3", "cfl = 0.9") + "snapshot_every = 10\n"
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(text)

        def sweep(out):
            code = cli.main(["sweep", str(cfg), "--param", "initial.amplitude",
                             "--values", "5.0,0.05", "--output", str(out)])
            capsys.readouterr()
            report = json.loads((out / "sweep.json").read_text())
            for member in report.values():
                del member["wall_clock_s"]
            csvs = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.csv")}
            return code, report, csvs

        pooled = sweep(tmp_path / "pool")
        assert multiprocessing.active_children() == []
        pin_to_one_cpu(monkeypatch)
        looped = sweep(tmp_path / "loop")
        assert {value: member["exit_code"] for value, member in pooled[1].items()} == {
            "5.0": 2, "0.05": 0}
        assert len(pooled[2]) > 3
        assert pooled == looped

    def test_members_run_in_worker_processes(self, tmp_path, capsys, monkeypatch):
        require_pool()
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config, output_dir: (0, {"pid": os.getpid()}))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE)

        def pids(values, out):
            code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                             "--values", values, "--output", str(tmp_path / out)])
            capsys.readouterr()
            assert code == 0
            assert multiprocessing.active_children() == []
            report = json.loads((tmp_path / out / "sweep.json").read_text())
            return {member["pid"] for member in report.values()}

        assert os.getpid() not in pids("0.1,0.05", "pool")
        # one member starts no process, and neither does a one-CPU process
        assert pids("0.1", "one") == {os.getpid()}
        pin_to_one_cpu(monkeypatch)
        assert pids("0.1,0.05", "loop") == {os.getpid()}

    def test_a_worker_that_dies_fails_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a worker killed mid-member raises at once, rather than leaving the sweep waiting
        require_pool()
        from concurrent.futures.process import BrokenProcessPool
        monkeypatch.setattr(cli, "run_experiment", lambda config, output_dir: os._exit(9))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE)
        with pytest.raises(BrokenProcessPool):
            cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                      "--values", "0.1,0.05", "--output", str(tmp_path / "sw")])
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "sw" / "sweep.json").exists()

    def test_the_pool_forks_under_an_error_filter(self, tmp_path, capsys, monkeypatch):
        # Python 3.12+ warns when it forks a process with threads, as numpy's
        # BLAS threads make this one; that warning must not fail the sweep
        require_pool()
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                             "--values", "0.1,0.05", "--output", str(tmp_path / "sw")]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["pool", "loop"])
    def test_member_warnings_reach_the_caller(self, tmp_path, capsys, monkeypatch, mode):
        if mode == "loop":
            pin_to_one_cpu(monkeypatch)
        else:
            require_pool()
        cfg = tmp_path / "bump.cfg"
        cfg.write_text(LINE_BUMP)
        argv = ["sweep", str(cfg), "--param", "regularizer.epsilon", "--values", "0.1,0.05"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([*argv, "--output", str(tmp_path / "always")]) == 0
        assert [w.category for w in caught] == [BoundaryContaminationWarning] * 2
        # an error filter raises inside the member, and the sweep raises it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundaryContaminationWarning):
                cli.main([*argv, "--output", str(tmp_path / "error")])
        assert not (tmp_path / "error" / "sweep.json").exists()
        capsys.readouterr()

    def test_a_member_warning_prints_once_on_the_command_line(self, tmp_path, monkeypatch):
        # the default filter shows a warning once per place, over all members
        monkeypatch.delenv("PYTHONWARNINGS", raising=False)
        cfg = tmp_path / "bump.cfg"
        cfg.write_text(LINE_BUMP)
        r = run_cli(["sweep", str(cfg), "--param", "regularizer.epsilon",
                     "--values", "0.1,0.05", "--output", "sw"], tmp_path, tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stderr.count("BoundaryContaminationWarning") == 1, r.stderr

    def test_sweep_applies_a_relative_output_root_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BAROLAB_OUTPUT_ROOT", "res")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", "0.1,0.05", "--output", "o"])
        capsys.readouterr()
        assert code == 0
        for value in ("0.1", "0.05"):
            assert (tmp_path / "res" / "o" / f"epsilon={value}" / "summary.json").exists()
        assert (tmp_path / "res" / "o" / "sweep.json").exists()
        assert not (tmp_path / "res" / "res").exists()
        config = parse_config(cfg.read_text())
        once = resolve_output_dir(config, "o")
        assert once == Path.cwd() / "res" / "o" and resolve_output_dir(config, once) == once

    def test_sweep_values_are_stripped_and_must_not_be_empty(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        out = tmp_path / "sw"
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", " , ", "--output", str(out)])
        assert code == 1
        assert "--values" in capsys.readouterr().err
        assert not out.exists()
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", "0.1, 0.1", "--output", str(out)])
        assert code == 1
        assert "--values" in capsys.readouterr().err
        assert not out.exists()
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", "0.1, 0.05", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["epsilon=0.05",
                                                                       "epsilon=0.1"]
        assert set(json.loads((out / "sweep.json").read_text())) == {"0.1", "0.05"}

    @pytest.mark.parametrize("values, altsep", [
        ("a/../../..,b", None), ("b,..\\..\\x", "\\"),
    ], ids=["sep", "altsep"])
    def test_sweep_values_stay_inside_the_sweep_directory(self, tmp_path, capsys, monkeypatch,
                                                          values, altsep):
        monkeypatch.setattr(os, "altsep", altsep)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        code = cli.main(["sweep", str(cfg), "--param", "output.directory",
                         "--values", values, "--output", str(tmp_path / "x" / "y" / "sw")])
        assert code == 1
        assert "path separator" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_override_adds_a_missing_section(self):
        assert "[output]" not in MINIMAL_RBE
        config = cli._member_config(MINIMAL_RBE, "output.directory", "elsewhere")
        assert config.output_directory == "elsewhere"

    def test_sweep_takes_each_value_literally(self, tmp_path, capsys):
        # each value is taken as written, so its "#" starts no inline comment
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        code = cli.main(["sweep", str(cfg), "--param", "regularizer.epsilon",
                         "--values", "0.1 #x,0.2", "--output", str(tmp_path / "sw")])
        err = capsys.readouterr().err
        assert code == 1
        assert "[regularizer] epsilon: cannot parse '0.1 #x' as float" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_param_must_name_a_section_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL_RBE.replace("t_end = 0.05", "t_end = 0.01"))
        # a section and key of the grammar, the section as written: configparser would
        # take DEFAULT as its own, write an empty key as a line continuing the one above
        # it, and read "[]" as a syntax error
        for param in ("epsilon", "DEFAULT.n", "output.", "grid.", ".n", "grid.nn", "GRID.n"):
            code = cli.main(["sweep", str(cfg), "--param", param, "--values", "64",
                             "--output", str(tmp_path / "sw")])
            err = capsys.readouterr().err
            assert code == 1, param
            assert "--param must look like section.key" in err and "Traceback" not in err
            assert list(tmp_path.iterdir()) == [cfg], param
        # keys, as configparser reads them, are not case-sensitive
        code = cli.main(["sweep", str(cfg), "--param", "grid.N", "--values", "16,24",
                         "--output", str(tmp_path / "sw")])
        capsys.readouterr()
        assert code == 0
        for n in (16, 24):  # a header, then one row per node
            rows = (tmp_path / "sw" / f"N={n}" / "snapshot_000000.csv").read_text().splitlines()
            assert len(rows) == 1 + n
