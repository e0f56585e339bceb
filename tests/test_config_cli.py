"""Config parsing and the command-line surface."""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from liqshock import (ModelParams, ValidationError, ode_oracle,
                      tavella_randall_grid, time_grid_from_space,
                      uniform_grid)
from liqshock import analysis
from liqshock.cli import (ConfigError, RunConfig, _build_parser, _load_config,
                          main)

SRC = Path(__file__).resolve().parents[1] / "src"
RESTRICTION_WARNING = ("warning: reaction time-step restriction violated; "
                       "positivity of the march is no longer guaranteed\n")
OVERFLOWING_LEVEL = (RESTRICTION_WARNING + "numerical failure: time step 0: "
                     "non-finite entries in grid state\n")
UNDECODABLE = ("'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")
FLOAT_KEYS = ("sigma", "mu", "gamma", "nu01", "nu10", "strike", "horizon",
              "s_min", "s_max", "alpha", "dt")


@pytest.fixture
def load(tmp_path):
    """Config text as ``liqshock converge --config FILE`` loads it: the
    file's keys checked as a ladder uses them."""
    def load(text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        args = _build_parser().parse_args(["converge", "--config", str(path)])
        return _load_config(args, one_grid=False)
    return load


class TestParseConfig:
    def test_minimal_with_defaults(self, load):
        cfg = load("sigma=0.3\nnu01=1\nnu10=12\n")
        assert cfg.sigma == 0.3
        assert cfg.strike == 2.0
        assert cfg.horizon == 1.0
        assert cfg.grid == "uniform"
        assert cfg.scheme == "linear"

    def test_comments_and_blanks(self, load):
        cfg = load("# settings\n\nsigma=0.4   # vol\n\n")
        assert cfg.sigma == 0.4

    def test_negative_sigma_names_key(self, load):
        with pytest.raises(ConfigError) as exc:
            load("sigma=-1\n")
        assert "sigma" in str(exc.value)

    def test_unknown_key_with_line_number(self, load):
        with pytest.raises(ConfigError) as exc:
            load("sigma=0.3\nbogus=1\n")
        assert exc.value.entries[0][0] == 2
        assert exc.value.entries[0][1] == "bogus"

    def test_collects_every_error(self, load):
        with pytest.raises(ConfigError) as exc:
            load("bogus=1\nsigma=abc\nno_equals_here\n")
        assert len(exc.value.entries) == 3

    def test_duplicate_key(self, load):
        with pytest.raises(ConfigError) as exc:
            load("sigma=0.3\nsigma=0.4\n")
        assert "duplicate" in str(exc.value)

    @pytest.mark.parametrize("key,message", [
        ("grid", "must be uniform or tavella"),
        ("scheme", "must be linear or linearized"),
        ("left_bc", "must be natural or dirichlet"),
    ])
    def test_bad_word_value_lists_allowed(self, load, key, message):
        with pytest.raises(ConfigError) as exc:
            load(f"sigma=0.3\n{key}=bogus\n")
        assert exc.value.entries == [(2, key, message)]

    def test_dt_alone_sets_explicit_step(self, load):
        assert load("dt=0.01\n").dt == 0.01
        assert load("sigma=0.3\n").dt is None
        with pytest.raises(ConfigError) as exc:
            load("tau_rule=explicit\ndt=0.01\n")
        assert exc.value.entries == [(1, "tau_rule", "unknown key")]

    def test_dt_above_horizon_names_key(self, load):
        with pytest.raises(ConfigError) as exc:
            load("dt=2\n")
        assert exc.value.entries == [(1, "dt", "must not exceed the horizon")]
        assert load("dt=2\nhorizon=2\n").dt == 2.0

    def test_runaway_steps_are_left_to_the_run(self, load):
        # 10 x 10**6 cells fit, 11 x 10**6 do not; but the file alone
        # cannot tell, as --I may replace intervals and a ladder ignores
        # both keys
        assert time_grid_from_space(uniform_grid(0, 5, 10), 1.0,
                                    1e-6).steps == 10**6
        with pytest.raises(ValidationError, match="MAX_CELLS"):
            time_grid_from_space(uniform_grid(0, 5, 11), 1.0, 1e-6)
        assert load("dt=1e-6\nintervals=11\n").dt == 1e-6

    @pytest.mark.parametrize("text,entries", [
        ("sigma=0.3\nmu=nan\n", [(2, "mu", "must be finite")]),
        ("gamma=-1\nnu10=0\n", [(1, "gamma", "must be > 0"),
                                 (2, "nu10", "must be > 0")]),
        ("sigma=nan\n", [(1, "sigma", "must be > 0")]),
        ("strike=9\n", [(0, "model",
                         "domain must satisfy s_min < strike < s_max")]),
    ], ids=["mu-nan", "two-keys", "sigma-nan", "domain"])
    def test_model_errors_name_key_and_line(self, load, text, entries):
        with pytest.raises(ConfigError) as exc:
            load(text)
        assert exc.value.entries == entries

    def test_every_key_parses_by_its_annotation(self, load):
        text = """
sigma=0.25
mu=-0.04
gamma=2.5
nu01=0.5
nu10=7
strike=3
horizon=2
s_min=0.5
s_max=9
grid=tavella
intervals=77
alpha=4.5
dt=0.01
scheme=linearized
left_bc=dirichlet
output_path=prices.csv
"""
        cfg = load(text)
        assert cfg == RunConfig(
            sigma=0.25, mu=-0.04, gamma=2.5, nu01=0.5, nu10=7.0, strike=3.0,
            horizon=2.0, s_min=0.5, s_max=9.0, grid="tavella", intervals=77,
            alpha=4.5, dt=0.01, scheme="linearized", left_bc="dirichlet",
            output_path="prices.csv")
        # "7" is the float 7.0 for nu10 and "77" the int 77 for intervals
        assert [type(getattr(cfg, f.name)) for f in fields(cfg)] == (
            [float] * 9 + [str, int, float, float, str, str, str])


class TestCliSolve:
    def test_csv_shape_and_terminal_column(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code = main(["solve", "--I", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "S,p_at_t0,q_at_t0,p_at_T,q_at_T"
        assert len(lines) == 42
        first = lines[1].split(",")
        last = lines[-1].split(",")
        # terminal prices equal the payoff at both ends of the domain
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(0.0, abs=1e-12)
        assert float(first[4]) == pytest.approx(0.0, abs=1e-12)
        assert float(last[0]) == 5.0
        assert float(last[3]) == pytest.approx(3.0, abs=1e-12)
        assert float(last[4]) == pytest.approx(3.0, abs=1e-12)

    def test_issue_prices_near_positive(self, tmp_path):
        # at-issue columns may dip below zero only by the known O(dt)
        # boundary artifact, never by more
        out = tmp_path / "surface.csv"
        assert main(["solve", "--I", "240", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 1].min() >= -1e-6
        assert rows[:, 2].min() >= -1e-6

    def test_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["solve", "--I", "60", "--grid", "tavella",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_path(self, capsys):
        assert main(["solve", "--I", "48"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("S,p_at_t0")


class TestCliTables:
    def test_converge_columns(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["converge", "--levels", "30,60", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("I,value_R0,diff_R0,ratio_R0,order_R0,"
                            "value_R1,diff_R1,ratio_R1,order_R1")
        row30 = lines[1].split(",")
        # first row has no difference/ratio/order
        assert row30[0] == "30"
        assert row30[2] == "" and row30[3] == "" and row30[4] == ""
        row60 = lines[2].split(",")
        assert row60[2] != "" and row60[3] == ""

    def test_extrapolate_columns(self, tmp_path):
        out = tmp_path / "extr.csv"
        code = main(["extrapolate", "--levels", "40,80", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "I,Z,W,Y,diff_Y,ratio,order"
        assert len(lines) == 3
        z, w, y = (float(x) for x in lines[1].split(",")[1:4])
        assert y == pytest.approx(2 * w - z, abs=1e-9)

    def test_bad_levels_rejected(self, tmp_path):
        for levels in ("30,50", "", "3x"):
            assert main(["converge", "--levels", levels]) == 1

    @pytest.mark.parametrize("command,levels,message", [
        ("converge", "1,2", "intervals must be >= 2"),
        ("extrapolate", "100000000", "intervals must be <= 10000000"),
        ("extrapolate", "3,5", "levels must double at each step"),
        # 8000 x 3200 steps of half the spacing
        ("converge", "8000", "intervals x steps > MAX_CELLS = 10000000"),
        ("converge", "4000,8000", "intervals x steps > MAX_CELLS = 10000000"),
        # 3840 x 1536 steps fit, but not the 3072 steps of the dt/2 twin
        ("extrapolate", "3840", "intervals x steps > MAX_CELLS = 10000000"),
    ])
    def test_bad_levels_name_the_flag(self, capsys, monkeypatch, command,
                                      levels, message):
        runs = []
        monkeypatch.setattr(analysis, "solve_forward",
                            lambda *args, **kw: runs.append(args))
        assert main([command, "--levels", levels]) == 1
        assert capsys.readouterr().err == f"error: --levels: {message}\n"
        assert runs == []  # refused before any level runs


class TestCliVerify:
    def test_report_and_exit_code(self, capsys):
        # positivity fails by the known O(dt) boundary dip; every other
        # audit passes, and the exit code reflects the failure
        code = main(["verify", "--I", "60"])
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 6
        statuses = {l.split("] ")[1].split(":")[0]: l[1:5] for l in lines}
        assert statuses["positivity"] == "FAIL"
        for name in ("comparison(h+0.1)", "comparison(call vs 0)",
                     "translation", "m_matrix", "sup_bound"):
            assert statuses[name] == "PASS"
        assert code == 3

    def test_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert main(["verify", "--I", "40", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "")
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert all(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines)


class TestCliErrors:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "--wat"]) == 1
        # a ladder's sizes come from --levels, so it takes no --I
        for command in ("converge", "extrapolate"):
            assert main([command, "--I", "10"]) == 1
            assert "unrecognized arguments: --I" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=-3\n")
        # the file's problem is named alone, also beside a bad flag
        for flags in ([], ["--I", "1"]):
            assert main(["solve", *flags, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                "error: invalid config (line 1: sigma: must be > 0)\n")

    def test_flag_replaces_the_file_value(self, tmp_path, capsys):
        # the config is checked as run: --I replaces intervals=1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("intervals=1\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == RESTRICTION_WARNING

    @pytest.mark.parametrize("command", [
        ["solve", "--I", "10"],
        ["converge", "--levels", "30,60"],
        ["extrapolate", "--levels", "30,60"],
    ], ids=["solve", "converge", "extrapolate"])
    def test_run_errors_print_alike(self, tmp_path, capsys, command):
        # trace**2 overflows in the first run; not a fault of --levels
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu01=1e160\n")
        assert main([*command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: degenerate root pair: discriminant <= 0 or inf\n")

    @pytest.mark.parametrize("command", ["converge", "extrapolate"])
    def test_ladder_warns_of_unused_keys(self, tmp_path, capsys, command):
        # the ladders size grids and steps from --levels alone
        argv = [command, "--levels", "30,60"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        for text, keys in (("dt=0.001\nintervals=50\n", "intervals, dt"),
                           ("dt=0.001\n", "dt"), ("sigma=0.3\n", None)):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text)
            assert main([*argv, "--config", str(cfg)]) == 0
            out, err = capsys.readouterr()
            assert out == plain.out  # byte-identical stdout
            assert err == ("" if keys is None else
                           f"warning: {command} ignores the config keys "
                           f"{keys} (--levels sets the grids)\n")

    # with sigma = 1.3e154 the diffusion rows would overflow too, but the
    # level-0 state is refused first
    @pytest.mark.parametrize("command,text", [
        (["solve", "--I", "10"], "gamma=1e308\n"),
        (["converge", "--levels", "30,60"], "gamma=1e308\n"),
        (["solve", "--I", "20"], "sigma=1.3e154\ngamma=1e308\n"),
        (["verify", "--I", "20"], "sigma=1.3e154\ngamma=1e308\n"),
    ], ids=["solve", "converge", "solve-nonfinite-rows",
            "verify-nonfinite-rows"])
    def test_overflowing_gamma_prints_only_the_error(self, tmp_path, capsys,
                                                     command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([*command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite entries in grid state\n")

    # at gamma = 1e307 the level-0 state is finite, but u / dt overflows in
    # the first level: the failure prints after the restriction warning,
    # with no numpy warning between them
    @pytest.mark.parametrize("command", [
        ["solve", "--I", "20"],
        ["solve", "--I", "20", "--scheme", "linearized"],
        ["verify", "--I", "20"],
        ["verify", "--I", "20", "--scheme", "linearized"],
        ["converge", "--levels", "20,40"],
    ], ids=["solve-linear", "solve-linearized", "verify-linear",
            "verify-linearized", "converge"])
    def test_overflowing_level_prints_only_the_failure(self, tmp_path, capsys,
                                                       command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=1e307\n")
        assert main([*command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == OVERFLOWING_LEVEL

    @pytest.mark.parametrize("argv,message", [
        (["--alpha", "nan"], "error: --alpha: must be > 0 and finite\n"),
        (["--I", "1"], "error: --I: must be >= 2\n"),
    ], ids=["alpha", "I"])
    @pytest.mark.parametrize("with_file", [False, True],
                             ids=["flags-only", "valid-file"])
    def test_bad_flag_names_flag(self, tmp_path, capsys, argv, message,
                                 with_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.3\nintervals=48\n")
        extra = ["--config", str(cfg)] if with_file else []
        assert main(["solve", *argv, *extra]) == 1
        assert capsys.readouterr().err == message

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 1

    def test_undecodable_config_file(self, tmp_path, capsys):
        # the file is read as UTF-8 whatever the locale
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {cfg}: {UNDECODABLE}")

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["solve", "--I", "10", "--out", str(out)]) == 1
        # the run finished, breaking the restriction, before the write
        assert capsys.readouterr().err.startswith(
            f"{RESTRICTION_WARNING}error: cannot write {out}:")

    def test_restriction_warning_is_one_line(self, tmp_path, capsys):
        # dt*c = 0.25*12 breaks the reaction restriction on every step
        assert main(["solve", "--I", "10"]) == 0
        assert capsys.readouterr().err == RESTRICTION_WARNING
        # so does dt*c = 0.2*12 in each of verify's three runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt=0.2\n")
        assert main(["verify", "--I", "10", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == RESTRICTION_WARNING

    @pytest.mark.parametrize("text", ["sigma=1e-200\n", "mu=1e200\n",
                                      "sigma=1e-160\n"],
                             ids=["sigma-underflow", "mu-overflow", "d0-inf"])
    def test_nonfinite_d0_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config (line 0: model: "
            "d0 = mu^2 / (2 sigma^2) must be finite)\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nonfinite_float_is_config_error(self, tmp_path, capsys, key,
                                             value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err
        assert "Traceback" not in err

    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        # the reaction restriction ratio overflows at step 5, on a spread
        # that the level before it had already let run away
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.5\nmu=0.45\ngamma=1.5\nnu01=19\nnu10=6\n"
                       "strike=4.5\nhorizon=2.5\ns_max=27\nintervals=60\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == RESTRICTION_WARNING + (
            "numerical failure: time step 5: restriction ratio overflows "
            "at max |U - V| = 3.394e+266\n")

    @pytest.mark.parametrize("command,scheme,code,err", [
        ("solve", "linearized", 0, RESTRICTION_WARNING),
        ("verify", "linearized", 3, RESTRICTION_WARNING),
        ("solve", "linear", 2, RESTRICTION_WARNING + "numerical failure: "
         "time step 3: restriction ratio overflows at max |U - V| = "
         "1.043e+04\n"),
        ("verify", "linear", 2, RESTRICTION_WARNING + "numerical failure: "
         "time step 3: restriction ratio overflows at max |U - V| = "
         "1.043e+04\n"),
    ], ids=["solve-linearized", "verify-linearized", "solve-linear",
            "verify-linear"])
    def test_long_horizon_roundoff_runs(self, tmp_path, capsys, command,
                                        scheme, code, err):
        # 3277 steps of dt = T / 3277 overshoot T by an ulp of T (3.6e-12):
        # roundoff, so every run marches (and imex_linear, at a restriction
        # ratio of 8.9, breaks down on its own)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon=27665.734685534153\ndt=8.442397\nnu10=1\n")
        argv = [command, "--I", "10", "--scheme", scheme, "--config", str(cfg)]
        assert main(argv) == code
        assert capsys.readouterr().err == err

    def test_nonfinite_prices_are_numerical_failure(self, tmp_path, capsys):
        # the march is finite, but ln(F0)/gamma overflows in to_prices
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=1e-310\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "numerical failure: non-finite prices" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["solve", "--scheme", "linear"],
        ["solve", "--scheme", "linearized"],
        ["verify"],
    ], ids=["linear", "linearized", "verify"])
    def test_lost_domination_is_numerical_failure(self, tmp_path, capsys,
                                                  command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=1e8\n")
        assert main([*command, "--I", "10", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == RESTRICTION_WARNING + (
            "numerical failure: time step 0: "
            "strict diagonal domination required\n")

    def test_huge_s_max_is_config_error(self, tmp_path, capsys):
        # the squared grid spacing would overflow in the first level
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.3\ns_max=1e200\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config (line 2: s_max: squared must be finite)\n")
        # so would sigma's in the rows, although d0 underflows harmlessly
        cfg.write_text("sigma=1e155\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config (line 1: sigma: squared must be finite)\n")

    def test_runaway_size_is_validation_error(self, capsys):
        assert main(["solve", "--I", "100000000"]) == 1
        assert capsys.readouterr().err == (
            "error: --I: must be <= 10000000\n")

    def test_runaway_size_in_config_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.3\nintervals=100000000\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config (line 2: intervals: must be <= 10000000)\n")

    def test_dt_above_horizon_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt=2\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config (line 1: dt: must not exceed the horizon)\n")

    @pytest.mark.parametrize("text,argv,line", [
        ("dt=1e-9\n", ["--I", "10"], 1),
        ("sigma=0.3\ndt=1e-6\n", ["--I", "11"], 2),
        ("dt=1e-6\nintervals=11\n", [], 1),
    ])
    def test_runaway_steps_in_config_name_dt(self, tmp_path, capsys, text,
                                             argv, line):
        # a set dt fixes the step count whatever the grid
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["solve", *argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid config (line {line}: dt: "
            "intervals x steps > MAX_CELLS = 10000000)\n")

    @pytest.mark.parametrize("key,value,words", [
        ("intervals", 1, "must be >= 2"),
        ("intervals", 10**8, "must be <= 10000000"),
        ("alpha", 0.0, "must be > 0 and finite"),
        ("alpha", math.nan, "must be > 0 and finite"),
        ("dt", 0.0, "must be > 0 and finite"),
        ("dt", math.nan, "must be > 0 and finite"),
        ("dt", 2.0, "must not exceed the horizon"),
    ])
    def test_bad_size_reads_alike_everywhere(self, tmp_path, capsys, key,
                                             value, words):
        # one rule, so one wording: from a config line, its flag (--I or
        # --alpha), --levels, and the library calls that take the size
        # (the horizon is 1 throughout)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        cli = [(["solve", "--config", str(cfg)],
                f"invalid config (line 1: {key}: {words})")]
        flag = {"intervals": "--I", "alpha": "--alpha"}.get(key)
        if flag is not None:
            cli.append((["solve", flag, str(value)], f"{flag}: {words}"))
        if key == "intervals":
            cli.append((["converge", "--levels", str(value)],
                        f"--levels: {key} {words}"))
        for argv, message in cli:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        params = ModelParams(sigma=0.3, mu=0.06, gamma=1.0, nu01=1.0,
                             nu10=12.0, strike=2.0, horizon=1.0)
        grid = uniform_grid(0, 5, 10)
        library = {
            "intervals": [lambda: uniform_grid(0, 5, value),
                          lambda: tavella_randall_grid(0, 5, 2, 15, value)],
            "alpha": [lambda: tavella_randall_grid(0, 5, 2, value, 10)],
            "dt": [lambda: time_grid_from_space(grid, 1.0, value),
                   lambda: ode_oracle(params, 0.0, value)],
        }
        for call in library[key]:
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == f"{key} {words}"

    def test_dt_cells_counted_on_the_run_config(self, tmp_path):
        # dt=2e-5 is 50000 steps: too many for the file's 240 intervals,
        # not for --I 10, and a ladder takes no dt at all
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt=2e-5\n")
        for command in ("solve", "verify"):
            args = _build_parser().parse_args(
                [command, "--I", "10", "--config", str(cfg)])
            assert _load_config(args, one_grid=True).intervals == 10
        for command in ("converge", "extrapolate"):
            assert main([command, "--levels", "30", "--config", str(cfg),
                         "--out", str(tmp_path / "table.csv")]) == 0

    def test_dt_in_config_sets_the_step(self, tmp_path, capsys):
        # the bytes `solve --I 10` wrote for tau_rule=explicit, dt=0.01
        # before a set dt alone selected the explicit step
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt=0.01\n")
        assert main(["solve", "--I", "10", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e4b5abc2aee63be9d74059863b63adecb3318de6e620c9c0f8be446b475823bf")

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=0.3\nintervals=48\ngrid=uniform\n")
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 50


class TestCliProcess:
    """What only a real process shows: ``sys.exit(main())`` carries the
    exit code, nothing escapes as a traceback, and a refused runaway size
    returns at once instead of allocating."""

    @pytest.mark.parametrize("argv,config,code,err", [
        (["solve", "--I", "10"], None, 0, RESTRICTION_WARNING),
        (["solve", "--I", "100000000"], None, 1,
         "error: --I: must be <= 10000000\n"),
        (["solve"], "intervals=100000000\n", 1,
         "error: invalid config (line 1: intervals: must be <= 10000000)\n"),
        (["solve", "--I", "10"], "dt=1e-9\n", 1,
         "error: invalid config (line 1: dt: "
         "intervals x steps > MAX_CELLS = 10000000)\n"),
        (["solve", "--I", "10"], "sigma=1e8\n", 2,
         RESTRICTION_WARNING + "numerical failure: time step 0: "
         "strict diagonal domination required\n"),
        (["verify", "--I", "40"], None, 3, ""),
        (["solve", "--I", "20"], "sigma=1.3e154\n", 2,
         "numerical failure: time step 0: non-finite diffusion rows\n"),
        (["solve", "--I", "20", "--grid", "tavella", "--alpha", "1e-310"],
         None, 1,
         "error: grid nodes must be finite and strictly increasing\n"),
        (["verify", "--I", "20", "--scheme", "linearized"], "gamma=1e307\n",
         2, OVERFLOWING_LEVEL),
    ], ids=["solved", "runaway-I", "runaway-intervals", "runaway-dt",
            "lost-domination", "failed-audit", "nonfinite-rows",
            "nonfinite-nodes", "overflowing-level"])
    def test_exit_code_and_stderr(self, tmp_path, argv, config, code, err):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = [*argv, "--config", str(cfg)]
        done = run_cli(argv)
        # the whole of stderr, so a traceback fails the test too
        assert (done.returncode, done.stderr) == (code, err)

    # the restriction line is read from the run's record, so no warning
    # filter turns it into an error or drops it
    @pytest.mark.parametrize("flags,env", [
        ([], {"PYTHONWARNINGS": "error"}), (["-W", "ignore"], {})],
        ids=["warnings-error", "warnings-ignore"])
    def test_warning_filters_change_nothing(self, flags, env):
        done = run_cli(["solve", "--I", "10"], flags, env)
        assert (done.returncode, done.stderr) == (0, RESTRICTION_WARNING)

    def test_undecodable_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        done = run_cli(["solve", "--config", str(cfg)])
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stderr) == (
            1, f"error: cannot read {cfg}: {UNDECODABLE}")


def run_cli(argv, flags=(), env=None):
    """``python FLAGS -m liqshock.cli ARGV`` as a real process, with
    ``env`` added to the environment, under a 60 s timeout."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "liqshock.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})})


def test_import_leaves_out_the_cli():
    # the run config belongs to the CLI, so the library imports no argparse
    code = ("import sys, liqshock; print([m for m in ('argparse', "
            "'liqshock.cli') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
