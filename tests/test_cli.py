"""Config parsing, subcommand dispatch, exit codes, determinism."""

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowfast_spde.cli import main
from slowfast_spde.config import (_KEYS, MAX_DRIFT_DEPTH, ResolvedConfig,
                                  parse_config, parse_drift_expression)
from slowfast_spde.errors import ConfigError

MINIMAL = "model = heat_example\nr1 = 0.1\nr2 = 0.1\nn_modes = 32\n"

SECTIONED = """\
[model]
model = heat_example
r1 = 0.1
r2 = 0.1
n_modes = 8

[scheme]
dt = 2e-3

[run]
seed = 7
eps = 5e-2
t_final = 0.1
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "heat.cfg"
    p.write_text(SECTIONED)
    return p


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestParseConfig:
    def test_minimal_defaults_filled(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text(MINIMAL)
        rc = parse_config(p)
        assert rc.theta == 0.55
        assert rc.seed == 2026
        assert rc.model.n_modes == 32
        assert rc.model.m_points == 64  # 2x padding default
        assert rc.echo["t_final"] == 1.0
        assert set(rc.echo) >= {"model", "r1", "r2", "n_modes", "theta", "seed"}

    def test_sections_accepted(self, cfg_path):
        rc = parse_config(cfg_path)
        assert rc.scheme.dt_macro == 2e-3
        assert rc.eps == 5e-2

    def test_r1_out_of_range(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model = heat_example\nr1 = 0.2\n")
        with pytest.raises(ConfigError, match=r"r1.*\(0, 1/7\)"):
            parse_config(p)

    def test_eps_out_of_range(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "eps = 1.5\n")
        with pytest.raises(ConfigError, match=r"eps.*\(0, 1\)"):
            parse_config(p)

    def test_transform_size_limit(self, tmp_path):
        # n_modes * m_points may not exceed spectral.MAX_TRANSFORM_SIZE = 2^17
        head = "model = heat_example\nr1 = 0.1\nr2 = 0.1\n"
        p = tmp_path / "big.cfg"
        p.write_text(head + "n_modes = 256\n")
        assert parse_config(p).model.m_points == 512
        p.write_text(head + "n_modes = 257\n")
        with pytest.raises(ConfigError, match="n_modes \\* m_points"):
            parse_config(p)
        p.write_text(MINIMAL + "m_points = 4097\n")
        with pytest.raises(ConfigError, match="n_modes \\* m_points"):
            parse_config(p)

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "bogus_knob = 3\n")
        with pytest.raises(ConfigError, match="bogus_knob"):
            parse_config(p)

    @settings(deadline=None, max_examples=300)
    @example({"n_modes": "1000000000"})
    @example({"n_modes": "1000000000", "m_points": "-1"})
    @example({"m_points": "9" * 5000})
    @given(st.dictionaries(
        st.sampled_from(sorted(_KEYS)),
        st.one_of(st.text(), st.text(alphabet="0123456789.-+e_ infa[]=#;\n"),
                  st.integers(-10, 300).map(str), st.floats(-1, 2).map(repr))))
    def test_whole_file_is_config_or_config_error(self, values):
        # any mapping of known keys to arbitrary text: a ConfigError or a
        # resolved config, never another exception
        text = "".join(f"{key} = {raw}\n" for key, raw in values.items())
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fuzz.cfg"
            path.write_text(text, encoding="utf-8")
            try:
                rc = parse_config(path)
            except ConfigError:
                return
        assert isinstance(rc, ResolvedConfig)
        assert sorted(rc.echo) == sorted(_KEYS)

    def test_drift_expression_override(self, tmp_path):
        p = tmp_path / "expr.cfg"
        p.write_text(MINIMAL + "drift_b = sin(sqrt(abs(x)) + sqrt(abs(y)))\n")
        rc = parse_config(p)
        xg = np.array([0.0, 1.0, 4.0])
        yg = np.zeros(3)
        assert np.allclose(rc.model.drift_b(xg, yg), np.sin(np.sqrt(xg)))


class TestDriftExpressions:
    def test_vocabulary(self):
        f = parse_drift_expression("0.5 * cos(sqrt(abs(x)) + abs(y))")
        assert f(np.zeros(3), np.zeros(3)) == pytest.approx(0.5)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="unknown name"):
            parse_drift_expression("x + z")

    def test_rejects_calls_outside_vocabulary(self):
        with pytest.raises(ConfigError):
            parse_drift_expression("__import__('os').system('true')")
        with pytest.raises(ConfigError):
            parse_drift_expression("exp(x)")

    def test_pi_is_numpy_pi(self):
        x = np.linspace(-3.0, 3.0, 101)
        f = parse_drift_expression("sin(pi*x)")
        assert np.array_equal(f(x, np.zeros_like(x)), np.sin(np.pi * x))

    def test_average_runs_on_a_pi_drift(self, cfg_path, tmp_path):
        cfg = tmp_path / "pi.cfg"
        cfg.write_text(SECTIONED + "drift_b = 0.5*sin(pi*x) + 0.5*sin(sqrt(abs(y)))\n")
        out = tmp_path / "bbar.csv"
        assert main(["average", "--config", str(cfg), "--Tb", "1", "--Ta", "1",
                     "--replicas", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 9 and all(np.isfinite(float(r.split(",")[1]))
                                      for r in rows[1:])

    def test_deep_nesting_is_config_error(self):
        with pytest.raises(ConfigError, match="recursion"):
            parse_drift_expression("-" * 5000 + "x")

    def test_nesting_cap_leaves_room_on_the_stack(self):
        # an integrator calls the drift from deep inside its own frames
        drift = parse_drift_expression("-" * MAX_DRIFT_DEPTH + "x")

        def call_from_depth(frames):
            if frames == 0:
                return drift(np.ones(3), np.zeros(3))
            return call_from_depth(frames - 1)

        assert np.all(call_from_depth(200) == 1.0)
        with pytest.raises(ConfigError, match=f"deeper than {MAX_DRIFT_DEPTH}"):
            parse_drift_expression("-" * (MAX_DRIFT_DEPTH + 1) + "x")
        # parentheses add no depth
        assert callable(parse_drift_expression(
            "(" * 150 + "-" * MAX_DRIFT_DEPTH + "x" + ")" * 150))

    @pytest.mark.parametrize("text", ["\x00", "x + \x00", "9" * 400],
                             ids=["nul", "nul-in-sum", "int-overflows-float"])
    def test_unparseable_text_is_config_error(self, text):
        with pytest.raises(ConfigError, match="cannot parse drift expression"):
            parse_drift_expression(text)

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("text", ["1if", "1and x"])
    def test_syntax_warning_is_config_error(self, text, action):
        # Python's parser warns "invalid decimal literal" on these; the
        # warning must not escape as a warning (a stray stderr line)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(ConfigError, match="cannot parse drift expression"):
                parse_drift_expression(text)
        assert caught == []

    @settings(deadline=None, max_examples=300)
    @example("\x00")
    @example("9" * 400)
    @given(st.one_of(st.text(), st.text(alphabet="xyp0123456789.e+-*/() sincoqrtab,")))
    def test_arbitrary_text_compiles_or_is_config_error(self, text):
        try:
            drift = parse_drift_expression(text)
        except ConfigError:
            return
        assert callable(drift)


_COMMON = {"--config": ("config", None, None, None, True),
           "--seed": ("seed", int, None, None, False)}
_LEMMA_NAMES = ("contraction", "increments", "aux-fast", "correlation",
                "moments", "ergodicity", "holder")

# subcommand -> option string -> (dest, type, default, choices, required)
CLI_SURFACE = {
    "simulate": {**_COMMON,
                 "--out": ("out", None, "trajectory.csv", None, False),
                 "--eps": ("eps", float, None, None, False),
                 "--T": ("t_final", float, None, None, False),
                 "--dt": ("dt", float, None, None, False)},
    "average": {**_COMMON,
                "--out": ("out", None, "bbar.csv", None, False),
                "--x": ("x", None, "zero", None, False),
                "--Tb": ("t_burn", float, None, None, False),
                "--Ta": ("t_avg", float, None, None, False),
                "--dt-frozen": ("dt_frozen", float, None, None, False),
                "--replicas": ("replicas", int, None, None, False)},
    "check": {**_COMMON,
              "--out": ("out", None, None, None, False),
              "--theta": ("theta", float, None, None, False),
              "--kappa1": ("kappa1", float, None, None, False)},
    "converge": {**_COMMON,
                 "--out": ("out", None, "strong_error.json", None, False),
                 "--eps-grid": ("eps_grid", None, "1e-1,3e-2,1e-2,3e-3", None, False),
                 "--T": ("t_final", float, None, None, False),
                 "--dt": ("dt", float, None, None, False),
                 "--n-mc": ("n_mc", int, None, None, False)},
    "verify": {**_COMMON,
               "--out": ("out", None, "verify.json", None, False),
               "--lemma": ("lemma", None, None, _LEMMA_NAMES, True),
               "--eps": ("eps", float, None, None, False),
               "--n-mc": ("n_mc", int, None, None, False),
               "--Tb": ("t_burn", float, None, None, False),
               "--Ta": ("t_avg", float, None, None, False)},
    "zvonkin": {**_COMMON,
                "--out": ("out", None, "zvonkin.csv", None, False),
                "--dim": ("dim", int, 1, None, False),
                "--lambda": ("lam", None, "1,10,100", None, False),
                "--grid": ("grid", int, 129, None, False),
                "--Tb": ("t_burn", float, None, None, False)},
}


def test_cli_surface_is_pinned():
    # every subcommand's options: strings, dest, type, default, choices
    # and whether required; only their order is free
    import argparse

    from slowfast_spde.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, p in sub.choices.items():
        options = {}
        for a in p._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            assert len(a.option_strings) == 1, a.option_strings
            choices = None if a.choices is None else tuple(a.choices)
            options[a.option_strings[0]] = (a.dest, a.type, a.default, choices,
                                            a.required)
        surface[name] = options
        assert callable(p.get_default("handler"))
    assert surface == CLI_SURFACE


class TestDispatch:
    def test_no_arguments_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("model = heat_example\nr1 = 0.3\n")
        code = main(["check", "--config", str(p)])
        assert code == 2
        assert "r1" in capsys.readouterr().err

    def test_check_passes_on_heat(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--config", str(cfg_path), "--theta", "0.55",
                     "--out", str(out)])
        assert code == 0
        assert "A6_spectral_gap: holds" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["A6_spectral_gap"]["status"] == "holds"

    def test_check_draws_from_the_run_seed(self, cfg_path, tmp_path):
        # A1's random field pairs come from the run's seed
        def run(seed, name):
            out = tmp_path / name
            assert main(["check", "--config", str(cfg_path), "--theta", "0.55",
                         "--seed", seed, "--out", str(out)]) == 0
            return out

        first, again, other = run("1", "a.json"), run("1", "b.json"), run("2", "c.json")
        assert first.read_bytes() == again.read_bytes()
        a1, a1_other = (json.loads(p.read_text())["A1_drift_regularity"]
                        for p in (first, other))
        assert a1["witness"]["b_max_quotient"] != a1_other["witness"]["b_max_quotient"]
        assert a1["status"] == a1_other["status"] == "holds"

    def test_check_fails_on_bad_theta(self, cfg_path):
        # theta beyond the admissible trace interval: checker reports fails
        code = main(["check", "--config", str(cfg_path), "--theta", "0.9"])
        assert code == 1

    def test_simulate_writes_csv_and_manifest(self, cfg_path, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--T", "0.05"])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["t", "x_norm", "x_hnorm_theta_0.55",
                                         "y_norm"]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert str(out) in manifest["outputs"]
        assert manifest["outputs"][str(out)] == sha(out)

    def test_simulate_horizon_not_a_step_multiple_exit_2(self, cfg_path,
                                                         tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--T", "0.0105", "--dt", "0.01"])
        assert code == 2
        assert "t_final" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["average"], ["check"], ["converge"],
        ["verify", "--lemma", "contraction"], ["zvonkin"],
    ], ids=lambda argv: argv[0])
    def test_out_in_missing_directory_exit_2_before_work(
            self, cfg_path, tmp_path, capsys, monkeypatch, argv):
        from slowfast_spde import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command started before checking --out")

        monkeypatch.setattr(cli, "parse_config", no_work)
        out = tmp_path / "no_such_dir" / "x.csv"
        code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "no_such_dir" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_simulate_rerun_bit_identical(self, cfg_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--config", str(cfg_path), "--out",
                         str(out), "--T", "0.05", "--seed", "99"]) == 0
        assert sha(a) == sha(b)

    def test_env_seed_override(self, cfg_path, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SPDE_SEED", "123")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(a),
                     "--T", "0.05"]) == 0
        monkeypatch.setenv("SPDE_SEED", "124")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(b),
                     "--T", "0.05"]) == 0
        assert sha(a) != sha(b)

    @pytest.mark.parametrize("argv,env,cfg_seed", [
        (["simulate", "--T", "0.05", "--seed", str(2**64 + 1)], None, "7"),
        (["simulate", "--T", "0.05", f"--seed={1 - 2**64}"], None, "7"),
        (["check", "--seed", "-1"], None, "7"),
        (["verify", "--lemma", "contraction", "--n-mc", "2"], "-2", "7"),
        (["verify", "--lemma", "holder", "--n-mc", "2"], None, "-3"),
        (["check"], "abc", "7"),
    ], ids=["flag-above-range", "flag-below-range", "check-flag-negative",
            "contraction-env-negative", "holder-config-negative", "env-not-a-number"])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch, argv, env, cfg_seed):
        # NoiseStream keys on the seed mod 2^64 and numpy refuses negative
        # seeds, so such a seed would alias another run or crash
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED.replace("seed = 7", f"seed = {cfg_seed}"))
        if env is None:
            monkeypatch.delenv("SPDE_SEED", raising=False)
        else:
            monkeypatch.setenv("SPDE_SEED", env)
        out = tmp_path / "out.csv"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err.lower()
        assert list(tmp_path.iterdir()) == [cfg]

    def test_largest_64_bit_seed_is_accepted(self, cfg_path, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--T", "0.05", "--seed", str(2**64 - 1)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["seed"] == 2**64 - 1

    def test_ergodicity_runs_at_the_largest_64_bit_seed(self, cfg_path, tmp_path):
        # its mixing run takes the next seed, which wraps to 0
        out = tmp_path / "ergodicity.json"
        code = main(["verify", "--lemma", "ergodicity", "--config", str(cfg_path),
                     "--Tb", "1", "--Ta", "2", "--seed", str(2**64 - 1),
                     "--out", str(out)])
        assert code in (0, 1)
        assert json.loads(out.read_text())["seed"] == 2**64 - 1

    def test_average_outputs_modes(self, cfg_path, tmp_path):
        out = tmp_path / "bbar.csv"
        code = main(["average", "--config", str(cfg_path), "--x", "zero",
                     "--Tb", "4", "--Ta", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["mode", "bbar_coeff", "stderr"]
        assert len(lines) == 1 + 8

    @pytest.mark.parametrize("flag", ["--Ta", "--replicas", "--dt-frozen"])
    def test_average_zero_value_is_config_error(self, cfg_path, tmp_path,
                                                 capsys, flag):
        out = tmp_path / "bbar.csv"
        code = main(["average", "--config", str(cfg_path), "--x", "zero",
                     "--Tb", "1", flag, "0", "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_avg,code", [("0.05", 2), ("0.04", 0)])
    def test_average_window_is_whole_frozen_steps(self, cfg_path, tmp_path,
                                                  capsys, t_avg, code):
        # 0.05 / 0.02 = 2.5 steps is refused, not rounded to 2
        out = tmp_path / "bbar.csv"
        assert main(["average", "--config", str(cfg_path), "--x", "zero",
                     "--Tb", "0.1", "--Ta", t_avg, "--dt-frozen", "0.02",
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "t_avg = 0.05 is not a nonnegative multiple" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.1," * 39 + "0.1", "0.1,nan,0.2", "inf",
                                        "0.1,0.2\n0.3,0.4"],
                             ids=["too-many", "nan", "inf", "two-rows"])
    def test_average_bad_x_is_config_error(self, cfg_path, tmp_path, capsys,
                                           values):
        x = tmp_path / "x.csv"
        x.write_text(values + "\n")
        out = tmp_path / "bbar.csv"
        code = main(["average", "--config", str(cfg_path), "--x", str(x),
                     "--Tb", "1", "--Ta", "1", "--out", str(out)])
        assert code == 2
        assert "at most 8 finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_average_pads_a_short_x_with_zeros(self, cfg_path, tmp_path):
        outs = []
        for name, values in (("short", "0.3,-0.2"), ("column", "0.3\n-0.2"),
                             ("full", "0.3,-0.2" + ",0" * 6)):
            x, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            x.write_text(values + "\n")
            assert main(["average", "--config", str(cfg_path), "--x", str(x),
                         "--Tb", "1", "--Ta", "1", "--out", str(out)]) == 0
            outs.append(sha(out))
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("cfg_line,argv", [
        ("", ["verify", "--lemma", "contraction", "--n-mc", "0"]),
        ("", ["verify", "--lemma", "holder", "--n-mc", "0"]),
        ("", ["verify", "--lemma", "contraction", "--n-mc", "1"]),
        ("", ["converge", "--n-mc", "0"]),
        ("n_mc = 1\n", ["verify", "--lemma", "contraction"]),
    ], ids=["verify-0", "holder-0", "verify-1", "converge-0", "config-1"])
    def test_n_mc_below_two_is_config_error(self, tmp_path, capsys, cfg_line,
                                            argv):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED + cfg_line)
        out = tmp_path / "report.json"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "n_mc" in capsys.readouterr().err
        assert not out.exists()

    def test_ergodicity_ignores_n_mc(self, tmp_path, monkeypatch):
        from slowfast_spde import cli
        from slowfast_spde.experiments import ExperimentReport

        def stub(model, params, seed):
            return ExperimentReport("ergodic-consistency", [1.0], [0.0], [0.0],
                                    0.0, 0.0, 0.0, "pass", seed)

        monkeypatch.setattr(cli, "ergodic_consistency", stub)
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED + "n_mc = 1\n")
        out = tmp_path / "report.json"
        code = main(["verify", "--lemma", "ergodicity", "--config", str(cfg),
                     "--Tb", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("cfg_text,argv,key", [
        (SECTIONED, ["simulate", "--T", "nan"], "'t_final'"),
        (SECTIONED, ["simulate", "--dt", "nan"], "'dt'"),
        (SECTIONED, ["simulate", "--dt", "inf"], "'dt'"),
        (SECTIONED.replace("dt = 2e-3", "dt = nan"), ["simulate"], "'dt'"),
        (SECTIONED, ["average", "--Ta", "nan"], "t_avg"),
        (SECTIONED, ["average", "--dt-frozen", "nan"], "dt"),
        (SECTIONED, ["average", "--Tb", "inf"], "t_burn"),
        (SECTIONED, ["zvonkin", "--grid", "9", "--Tb", "1", "--lambda", "nan"],
         "lambda"),
        (SECTIONED, ["zvonkin", "--grid", "9", "--Tb", "1", "--lambda", "inf"],
         "lambda"),
    ], ids=["T-nan", "dt-nan", "dt-inf", "config-dt-nan", "Ta-nan",
            "dt-frozen-nan", "Tb-inf", "zvonkin-lambda-nan", "zvonkin-lambda-inf"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, cfg_text,
                                              argv, key):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "out.csv"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg_text,argv,message", [
        (SECTIONED, ["converge", "--eps-grid", "0.1,0.01"],
         "--eps-grid needs at least 3 values for a rate fit"),
        (SECTIONED, ["converge", "--eps-grid", "0.1,0.01,abc"],
         "--eps-grid takes comma-separated numbers, got '0.1,0.01,abc'"),
        (SECTIONED, ["converge", "--eps-grid", "0.1,,0.01"],
         "--eps-grid takes comma-separated numbers"),
        (SECTIONED, ["converge", "--eps-grid", "0.1,0.1,0.1"],
         "--eps-grid needs at least 3 values for a rate fit, distinct"),
        (SECTIONED, ["converge", "--eps-grid", "0.1,0.01,2"],
         "distinct and in (0, 1), got '0.1,0.01,2'"),
        (SECTIONED, ["zvonkin", "--lambda", "1,abc", "--grid", "9"],
         "--lambda takes comma-separated numbers, got '1,abc'"),
        (SECTIONED, ["zvonkin", "--lambda", ",", "--grid", "9"],
         "--lambda takes comma-separated numbers"),
        (SECTIONED, ["zvonkin", "--dim", "4", "--grid", "9"],
         "dim must be 1, 2 or 3"),
        (SECTIONED, ["average", "--Tb", "-1", "--Ta", "1"],
         "t_burn must be finite and nonnegative, got -1.0"),
        (SECTIONED + "[extra]\nn_modes = 16\n", ["check"],
         "duplicate config key 'n_modes'"),
    ], ids=["converge-two-eps", "converge-eps-not-a-number", "converge-eps-empty",
            "converge-eps-repeated", "converge-eps-out-of-range",
            "zvonkin-lambda-not-a-number", "zvonkin-lambda-empty",
            "zvonkin-dim-4", "average-Tb-negative", "key-in-two-sections"])
    def test_refused_value_is_config_error(self, tmp_path, capsys, monkeypatch,
                                           cfg_text, argv, message):
        from slowfast_spde import experiments

        def no_work(*args, **kwargs):
            raise AssertionError("the averaged path was built before the refusal")

        monkeypatch.setattr(experiments, "simulate_averaged", no_work)
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "out.json"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        ["average", "--Tb", "1", "--Ta", "1"],
        ["verify", "--lemma", "holder", "--n-mc", "2"],
        ["zvonkin", "--grid", "9"],
    ], ids=["average", "holder", "zvonkin"])
    def test_one_replica_is_config_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED + "replicas = 1\n")
        out = tmp_path / "out.csv"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "at least 2 replicas" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_check_non_finite_kappa1_is_config_error(self, cfg_path, tmp_path,
                                                     capsys, value):
        out = tmp_path / "report.json"
        code = main(["check", "--config", str(cfg_path), "--kappa1", value,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "kappa1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,section,key,runs", [
        (["average", "--Tb", "1", "--dt-frozen", "0.1", "--replicas", "2"],
         "--Ta", "config", "t_avg", [("1", 1.0), ("2", 2.0)]),
        (["converge", "--T", "0.004", "--eps-grid", "0.1,0.05,0.02"],
         "--n-mc", "config", "n_mc", [("2", 2), ("3", 3)]),
        (["verify", "--lemma", "contraction", "--n-mc", "4"],
         "--eps", "config", "eps", [("0.1", 0.1), ("0.2", 0.2)]),
        (["zvonkin", "--lambda", "1,10"],
         "--grid", "flags", "grid", [("9", 9), ("17", 17)]),
        (["zvonkin", "--grid", "9"],
         "--lambda", "flags", "lam", [("1,10", "1,10"), ("2,10", "2,10")]),
        (["zvonkin", "--grid", "9", "--lambda", "1,10"],
         "--Tb", "config", "t_burn", [("4", 4.0), ("2", 2.0)]),
        (["check"], "--kappa1", "flags", "kappa1", [("0.5", 0.5), ("0.75", 0.75)]),
    ], ids=["average-Ta", "converge-n-mc", "verify-eps", "zvonkin-grid",
            "zvonkin-lambda", "zvonkin-Tb", "check-kappa1"])
    def test_manifest_records_the_flag(self, cfg_path, tmp_path, argv, flag,
                                       section, key, runs):
        # two runs that differ in one flag write manifests that differ in it
        for i, (value, recorded) in enumerate(runs):
            out = tmp_path / f"run{i}.out"
            code = main(argv + [flag, value, "--config", str(cfg_path),
                                "--seed", "3", "--out", str(out)])
            assert code in (0, 1)
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest[section][key] == recorded
            assert manifest["seed"] == 3

    def test_verify_contraction(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "contraction.json"
        code = main(["verify", "--lemma", "contraction", "--config",
                     str(cfg_path), "--n-mc", "20", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        assert report["name"] == "fast-contraction"
        # exit code and verdict agree by construction; timing lives in the
        # manifest so the report file itself is deterministic
        assert set(report) >= {"name", "grid", "estimates", "stderrs", "slope",
                               "slope_ci", "target", "verdict", "seed"}
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["wall_clock_s"] >= 0.0
        assert out.with_suffix(".csv").exists()

    def test_verify_report_json_stable_key_order(self, cfg_path, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["verify", "--lemma", "contraction", "--config",
                         str(cfg_path), "--n-mc", "10", "--seed", "5",
                         "--out", str(out)]) == 0
        assert sha(out1) == sha(out2)


class TestConstantDrifts:
    """A drift given as a constant runs in every command that steps or
    samples it."""

    @pytest.fixture(params=["drift_f", "drift_b"])
    def const_cfg(self, tmp_path, request):
        p = tmp_path / "const.cfg"
        p.write_text("model = heat_example\nr1 = 0.1\nr2 = 0.1\nn_modes = 8\n"
                     f"{request.param} = 0.25\n[run]\neps = 0.1\n")
        return p

    @pytest.mark.parametrize("argv", [
        ["simulate", "--T", "0.01"],
        ["average", "--x", "zero", "--Tb", "1", "--Ta", "1"],
    ], ids=lambda argv: argv[0])
    def test_command_runs(self, const_cfg, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", str(const_cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_check_reports_a1_holds(self, const_cfg, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "--config", str(const_cfg), "--out", str(out)]) == 0
        assert "A1_drift_regularity: holds" in capsys.readouterr().out
        assert json.loads(out.read_text())["A1_drift_regularity"]["status"] == "holds"


class TestConstantDivisionByZero:
    """``1/0`` in a drift expression is inf, not a ZeroDivisionError."""

    @pytest.fixture(params=["1/0", "x*(1/0)"])
    def inf_cfg(self, tmp_path, request):
        p = tmp_path / "inf.cfg"
        p.write_text(f"n_modes = 8\ndrift_b = {request.param}\n")
        return p

    def test_check_reports_a1_fails(self, inf_cfg, tmp_path, capsys):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["check", "--config", str(inf_cfg), "--out", str(out)])
        assert code == 1
        assert "A1_drift_regularity: fails" in capsys.readouterr().out
        assert json.loads(out.read_text())["A1_drift_regularity"]["status"] == "fails"

    def test_average_exits_1_naming_the_grid_point(self, inf_cfg, tmp_path,
                                                   capsys):
        out = tmp_path / "bbar.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["average", "--config", str(inf_cfg), "--Tb", "0.1",
                         "--Ta", "0.1", "--replicas", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite value at xi=" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonFiniteDriftReportsOnce:
    """A non-finite drift expression gives the package's own report and no
    numpy warning: the checker's A1 "fails" or the located error."""

    @pytest.fixture(params=["1/0", "x*(1/0)", "x/(x-x)"])
    def bad_cfg(self, tmp_path, request):
        p = tmp_path / "bad.cfg"
        p.write_text(f"n_modes = 8\ndrift_b = {request.param}\n")
        return p

    def test_check_reports_a1_fails(self, bad_cfg, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--config", str(bad_cfg)])
        assert code == 1
        assert "A1_drift_regularity: fails" in capsys.readouterr().out

    def test_average_reports_the_grid_point(self, bad_cfg, tmp_path, capsys):
        out = tmp_path / "bbar.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["average", "--config", str(bad_cfg), "--Tb", "0.1",
                         "--Ta", "0.1", "--replicas", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: slow drift returned a non-finite value at xi=")
        assert not out.exists()


class TestVerifyLemmas:
    """Reduced-scale runs of the lemmas that step the coupled system or
    the frozen dynamics, at the default macro step dt = 1e-3."""

    @pytest.mark.parametrize("lemma,name", [
        ("increments", "time-increment-scaling"),
        ("aux-fast", "fast-freeze-error"),
        ("correlation", "correlation-decay"),
        ("moments", "moment-uniformity"),
    ])
    def test_writes_report_with_matching_exit_code(self, tmp_path, lemma, name):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text("n_modes = 8\neps = 5e-2\nt_final = 0.128\n")
        out = tmp_path / "report.json"
        code = main(["verify", "--lemma", lemma, "--config", str(cfg),
                     "--n-mc", "4", "--seed", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["name"] == name
        assert code == (0 if report["verdict"] == "pass" else 1)
        assert out.with_suffix(".csv").exists()
        assert Path(str(out) + ".manifest.json").exists()
        if lemma in ("increments", "aux-fast"):
            # blocks of 64 .. 4 macro steps of dt = 1e-3
            assert report["grid"] == [1e-3 * 2.0**k for k in range(6, 1, -1)]


class TestLongBurnAndEps:
    @pytest.mark.parametrize("cfg_line,argv,t_burn", [
        ("", ["verify", "--lemma", "holder", "--n-mc", "2", "--Tb", "4"], 4.0),
        ("t_burn = 4\n", ["verify", "--lemma", "holder", "--n-mc", "2"], 4.0),
        ("", ["verify", "--lemma", "holder", "--n-mc", "2"], 16.0),
        ("t_burn = 4\n", ["zvonkin", "--dim", "1", "--grid", "9"], 4.0),
        ("", ["zvonkin", "--dim", "1", "--grid", "9"], 16.0),
        ("", ["zvonkin", "--dim", "1", "--grid", "9", "--Tb", "4"], 4.0),
    ], ids=["holder-Tb", "holder-config", "holder-default", "zvonkin-config",
            "zvonkin-default", "zvonkin-Tb"])
    def test_estimates_use_the_given_burn_in(self, tmp_path, monkeypatch,
                                             cfg_line, argv, t_burn):
        # 16 only when neither the config nor --Tb sets t_burn
        from slowfast_spde import averaging, experiments

        seen = []
        estimate = averaging.estimate_bbar_batch

        def recording(config, xs, params, seed, **kwargs):
            seen.append(params.t_burn)
            short = replace(params, t_burn=0.0, t_avg=0.2, dt=0.1)
            return estimate(config, xs, short, seed, **kwargs)

        monkeypatch.setattr(averaging, "estimate_bbar_batch", recording)
        monkeypatch.setattr(experiments, "estimate_bbar_batch", recording)
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED + cfg_line)
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out.json")])
        assert code in (0, 1)
        assert seen and set(seen) == {t_burn}

    def test_average_without_tb_takes_the_bias_rule_burn_in(self, cfg_path,
                                                            tmp_path):
        # neither --Tb nor t_burn: AveragingParams.for_model's burn-in,
        # 2 / ((lambda_1 - l_f) beta) log(1e3) = 55.3 on the heat model
        from slowfast_spde.averaging import AveragingParams, estimate_bbar
        from slowfast_spde.model import heat_example

        out = tmp_path / "bbar.csv"
        assert main(["average", "--config", str(cfg_path), "--Ta", "1",
                     "--replicas", "2", "--seed", "5", "--out", str(out)]) == 0
        model = heat_example(0.1, 0.1, 8)
        params = AveragingParams.for_model(model, t_avg=1.0, dt=0.02,
                                           n_replicas=2)
        assert params.t_burn == pytest.approx(55.26, abs=0.01)
        est = estimate_bbar(model, np.zeros(8), params, 5)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == est.value.tolist()
        assert {float(r[2]) for r in rows} == {est.stderr}

    @pytest.mark.parametrize("cfg_line,argv,t_burn", [
        ("", ["average", "--Ta", "1", "--replicas", "2"], "bias rule"),
        ("", ["verify", "--lemma", "ergodicity"], "bias rule"),
        ("", ["verify", "--lemma", "holder", "--n-mc", "2"], 16.0),
        ("", ["zvonkin", "--dim", "1", "--grid", "9"], 16.0),
        ("t_burn = 4\n", ["zvonkin", "--dim", "1", "--grid", "9"], 4.0),
    ], ids=["average", "ergodicity", "holder", "zvonkin", "zvonkin-config"])
    def test_manifest_records_the_burn_in_used(self, tmp_path, monkeypatch,
                                               cfg_line, argv, t_burn):
        # the manifest's t_burn is the burn-in the estimates ran, also
        # when neither the config nor --Tb sets it
        from slowfast_spde import averaging, experiments
        from slowfast_spde.averaging import AveragingParams
        from slowfast_spde.model import heat_example

        if t_burn == "bias rule":
            t_burn = AveragingParams.for_model(heat_example(0.1, 0.1, 8)).t_burn
        seen = []
        estimate = averaging.estimate_bbar_batch

        def recording(config, xs, params, seed, **kwargs):
            seen.append(params.t_burn)
            short = replace(params, t_burn=0.0, t_avg=0.2, dt=0.1)
            return estimate(config, xs, short, seed, **kwargs)

        monkeypatch.setattr(averaging, "estimate_bbar_batch", recording)
        monkeypatch.setattr(experiments, "estimate_bbar_batch", recording)
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED + cfg_line)
        out = tmp_path / "out.json"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code in (0, 1)
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["config"]["t_burn"] == t_burn
        assert set(seen) == {t_burn}

    @pytest.mark.parametrize("lemma", ["increments", "aux-fast"])
    def test_verify_without_eps_is_config_error(self, tmp_path, capsys, lemma):
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(SECTIONED.replace("eps = 5e-2\n", ""))
        out = tmp_path / "report.json"
        code = main(["verify", "--lemma", lemma, "--config", str(cfg),
                     "--n-mc", "2", "--out", str(out)])
        assert code == 2
        assert ("eps is required (flag --eps or config key eps)"
                in capsys.readouterr().err)
        assert not out.exists()


def test_converge_reports_its_oracle_burn_in(tmp_path):
    # converge builds the oracle of strong_error's defaults, whatever the
    # config's t_burn, and its report says so
    reports = []
    for t_burn in ("1", "50"):
        cfg = tmp_path / f"burn{t_burn}.cfg"
        cfg.write_text(SECTIONED + f"t_burn = {t_burn}\n")
        out = tmp_path / f"conv{t_burn}.json"
        code = main(["converge", "--config", str(cfg), "--T", "0.004",
                     "--n-mc", "4", "--eps-grid", "0.1,0.03,0.01",
                     "--out", str(out)])
        assert code in (0, 1)
        reports.append(json.loads(out.read_text()))
    assert reports[0]["estimates"] == reports[1]["estimates"]
    for report in reports:
        assert report["extra"]["oracle_params"] == {
            "t_burn": 10.0, "t_avg": 20.0, "dt": 0.05, "n_replicas": 2}


class TestZvonkinCommand:
    def test_one_averaged_drift_estimate_per_run(self, cfg_path, tmp_path,
                                                 monkeypatch):
        # the tabulated drift serves every lambda and the final solve
        from slowfast_spde import averaging

        calls = []
        estimate = averaging.estimate_bbar_batch

        def counting(*args, **kwargs):
            calls.append(None)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(averaging, "estimate_bbar_batch", counting)
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "1",
                     "--grid", "17", "--out", str(tmp_path / "zv.csv")])
        assert code == 0
        assert len(calls) == 1

    def test_one_picard_solve_per_lambda(self, cfg_path, tmp_path, monkeypatch):
        from slowfast_spde import cli, zvonkin

        lams = []
        solve = zvonkin.picard_solve

        def counting(g, bbar, lam, *args, **kwargs):
            lams.append(lam)
            return solve(g, bbar, lam, *args, **kwargs)

        monkeypatch.setattr(zvonkin, "picard_solve", counting)
        monkeypatch.setattr(cli, "picard_solve", counting, raising=False)
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "1",
                     "--lambda", "10,1,100", "--grid", "17",
                     "--out", str(tmp_path / "zv.csv")])
        assert code == 0
        assert lams == [1.0, 10.0, 100.0]
        data = json.loads((tmp_path / "zv.json").read_text())
        assert data["iterations"] == data["lambda_table"][0]["iterations"]
        assert data["residual"] == data["lambda_table"][0]["residual"]

    def test_repeated_lambda_is_config_error(self, cfg_path, tmp_path):
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "1",
                     "--lambda", "1,1", "--grid", "17",
                     "--out", str(tmp_path / "zv.csv")])
        assert code == 2

    @pytest.mark.parametrize("lam", ["1,nan", "1,1"])
    def test_bad_lambda_refused_before_any_work(self, cfg_path, tmp_path,
                                                monkeypatch, lam):
        from slowfast_spde import averaging, zvonkin

        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(averaging, "estimate_bbar_batch",
                            counting("estimate", averaging.estimate_bbar_batch))
        monkeypatch.setattr(zvonkin, "picard_solve",
                            counting("solve", zvonkin.picard_solve))
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "1",
                     "--lambda", lam, "--grid", "17",
                     "--out", str(tmp_path / "zv.csv")])
        assert code == 2
        assert calls == []

    def test_grid_over_node_cap_is_config_error(self, cfg_path, tmp_path,
                                                monkeypatch):
        # refused before the averaged drift is tabulated on 129^2 nodes
        from slowfast_spde import averaging

        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated the drift on a refused grid")

        monkeypatch.setattr(averaging, "estimate_bbar_batch", no_estimate)
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "2",
                     "--out", str(tmp_path / "zv.csv")])
        assert code == 2
        assert not (tmp_path / "zv.csv").exists()

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two_is_config_error(self, cfg_path, tmp_path, capsys,
                                            monkeypatch, grid):
        from slowfast_spde import averaging

        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated the drift on a refused grid")

        monkeypatch.setattr(averaging, "estimate_bbar_batch", no_estimate)
        code = main(["zvonkin", "--config", str(cfg_path), "--grid", grid,
                     "--out", str(tmp_path / "zv.csv")])
        assert code == 2
        assert f"at least 2 points per axis, got {grid}" in capsys.readouterr().err
        assert not (tmp_path / "zv.csv").exists()

    def test_d1_solve_emits_tables(self, cfg_path, tmp_path):
        out = tmp_path / "zv.csv"
        code = main(["zvonkin", "--config", str(cfg_path), "--dim", "1",
                     "--lambda", "2,20", "--grid", "65", "--out", str(out),
                     "--seed", "3"])
        assert code == 0
        data = json.loads(out.with_suffix(".json").read_text())
        tbl = data["lambda_table"]
        assert tbl[0]["sup_u"] > tbl[1]["sup_u"]
        assert data["residual"] < 1e-2
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["x_1", "u_1"]


def test_simulate_runs_without_importing_scipy(tmp_path):
    # the package imports no scipy (the tests use it as an oracle), so the
    # package, the CLI, a coupled run and a Zvonkin solve load none of it
    import subprocess
    import sys

    import slowfast_spde

    script = f"""
import sys
import slowfast_spde, slowfast_spde.cli
from slowfast_spde.config import parse_config
from slowfast_spde.model import heat_example
heat_example(0.1, 0.1, 8)
parse_config({str(Path(__file__).parents[1] / "configs" / "heat.cfg")!r})
code = slowfast_spde.cli.main(["simulate", "--config", sys.argv[1], "--T", "0.002",
                               "--out", sys.argv[2]])
assert code == 0, code
code = slowfast_spde.cli.main(["zvonkin", "--config", sys.argv[1], "--grid", "9",
                               "--Tb", "1", "--out", sys.argv[3]])
assert code == 0, code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(SECTIONED)
    src = str(Path(slowfast_spde.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(cfg),
                           str(tmp_path / "path.csv"), str(tmp_path / "zv.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "path.csv").exists() and (tmp_path / "zv.csv").exists()


def test_check_and_average_run_without_importing_scipy(tmp_path):
    # the assumption checker's incomplete gamma is the package's own, so
    # the acceptance config's check and an averaged-drift estimate load
    # no scipy either
    import subprocess
    import sys

    import slowfast_spde

    script = """
import sys
import slowfast_spde.cli
code = slowfast_spde.cli.main(["check", "--config", sys.argv[1]])
assert code == 0, code
code = slowfast_spde.cli.main(["average", "--config", sys.argv[1], "--Tb", "0.1",
                               "--Ta", "0.1", "--replicas", "2",
                               "--out", sys.argv[2]])
assert code == 0, code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    cfg = Path(__file__).parents[1] / "configs" / "heat.cfg"
    src = str(Path(slowfast_spde.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(cfg),
                           str(tmp_path / "bbar.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "bbar.csv").exists()
