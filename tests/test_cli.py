import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bmtails import cli, rates
from bmtails.errors import NumericFailure


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:     # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_rates_csv_all_columns(capsys):
    code, out, _ = run_cli(capsys, "rates", "--points", "3", "--a-min", "0.5",
                           "--a-max", "2")
    assert code == 0
    assert "\r\n" in out
    header, rows = parse_csv(out)
    assert header == ["a", "r_packed", "r_flat", "r_stat", "z_a", "w_minus",
                      "w_plus"]
    assert len(rows) == 3
    a = float(rows[0][0])
    assert a == pytest.approx(0.5)
    assert float(rows[0][1]) == pytest.approx(rates.rate_packed(a), rel=1e-15)
    # 17 significant digits round-trip through the text exactly
    assert float(rows[1][1]) == rates.rate_packed(float(rows[1][0]))


def test_rates_single_ic_columns(capsys):
    code, out, _ = run_cli(capsys, "rates", "--ic", "flat", "--points", "2",
                           "--a-min", "1", "--a-max", "2")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["a", "r_flat", "z_a"]


def test_rates_json_single_object(capsys):
    code, out, _ = run_cli(capsys, "rates", "--points", "2", "--a-min", "1",
                           "--a-max", "2", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert set(obj) == {"a", "r_packed", "r_flat", "r_stat", "z_a",
                        "w_minus", "w_plus"}
    assert obj["a"] == [1.0, 2.0]


def test_prob_json_fields_and_value(capsys):
    code, out, _ = run_cli(capsys, "prob", "--ic", "packed", "--t", "4",
                           "--a", "1")
    obj = json.loads(out)
    assert code == 0
    assert obj["p"] == pytest.approx(0.99999159310767407, abs=1e-10)
    assert obj["survival"] == pytest.approx(np.exp(obj["log_survival"]))
    assert obj["rho"] == 1.0


def test_prob_csv_row(capsys):
    code, out, _ = run_cli(capsys, "prob", "--ic", "flat", "--t", "4",
                           "--a", "1", "--format", "csv")
    header, rows = parse_csv(out)
    assert code == 0
    assert header[:4] == ["ic", "t", "a", "rho"]
    assert len(rows) == 1
    assert rows[0][0] == "flat"


@pytest.mark.parametrize("ic", ["stationary", "flat"])
def test_prob_rho_one_is_the_default(capsys, ic):
    args = ("prob", "--ic", ic, "--t", "4", "--a", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--rho", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["rho"] == 1.0


def test_prob_rejects_rho_for_flat(capsys):
    code, _, err = run_cli(capsys, "prob", "--ic", "flat", "--t", "4",
                           "--a", "1", "--rho", "0.9")
    assert code == 2
    assert err.startswith("ERROR:")


def test_tail_table(capsys):
    code, out, _ = run_cli(capsys, "tail", "--ic", "flat", "--a", "1",
                           "--t-list", "4,8")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["t", "p", "log_survival", "r_hat", "r_exact",
                      "scaled_survival"]
    assert [float(r[4]) for r in rows] == [rates.rate_flat(1.0).rate] * 2


def test_tail_rejects_non_integer_packed_time(capsys):
    code, out, err = run_cli(capsys, "tail", "--ic", "packed", "--a", "1",
                             "--t-list", "2.5,4")
    assert code == 2
    assert out == ""
    assert "whole-number time" in err


@pytest.mark.parametrize("ic", ["packed", "stationary"])
def test_rates_below_the_flat_floor_compute_only_their_columns(capsys, ic):
    # rate_flat raises below a = 1e-6; the packed and stationary tables never call it
    code, out, _ = run_cli(capsys, "rates", "--ic", ic, "--a-min", "1e-7", "--a-max", "1",
                           "--points", "4")
    header, rows = parse_csv(out)
    assert code == 0 and len(rows) == 4
    rate = rates.rate_packed if ic == "packed" else rates.rate_stat
    for row in rows:
        a = float(row[0])
        assert [float(v) for v in row[1:]] == [rate(a), *rates.saddle_points(a)]


@pytest.mark.parametrize("ic", ["flat", "all"])
def test_rates_with_flat_columns_below_the_flat_floor_exit_three(capsys, ic):
    code, out, err = run_cli(capsys, "rates", "--ic", ic, "--a-min", "1e-7", "--a-max", "1",
                             "--points", "4")
    assert code == 3 and out == ""
    assert "rate_flat cancels to noise below a = 1e-6" in err


def test_figure1_columns(capsys):
    code, out, _ = run_cli(capsys, "figure1", "--points", "5", "--a-max", "2")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["a", "r_flat", "asym_small", "asym_large"]
    assert len(rows) == 5
    for row in rows:
        a, r, small, large = map(float, row)
        assert small <= r <= large


def test_simulate_sample_dump_deterministic(capsys):
    args = ("simulate", "--ic", "packed", "--t", "1", "--dt", "0.01",
            "--reps", "50", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header, rows = parse_csv(out1)
    assert header == ["x"]
    assert len(rows) == 50


def test_simulate_verbose_logs_the_step_and_keeps_the_output(capsys):
    args = ("simulate", "--ic", "flat", "--t", "2", "--reps", "20", "--seed", "3")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args, "--verbose")
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == ""
    assert "DEBUG: flat t=2: dt 0.02, 100 steps, cutoff 8, 1 blocks," in err2


def test_simulate_json_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--ic", "flat", "--t", "1",
                           "--dt", "0.01", "--reps", "80", "--seed", "1",
                           "--cutoff", "4", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert {"mean", "std", "stderr", "min", "max"} <= set(obj)
    assert obj["cutoff"] == 4
    assert obj["min"] <= obj["mean"] <= obj["max"]


def test_simulate_json_summary_needs_two_replicas(capsys):
    # the std of one replica is undefined; the CSV dump of it is not
    args = ("simulate", "--ic", "packed", "--t", "1", "--reps", "1")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert code == 2 and out == ""
    assert "reps >= 2, got 1" in err
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert len(parse_csv(out)[1]) == 1


@pytest.mark.parametrize("command", ["rates", "figure1"])
def test_grid_bounds_must_be_finite(capsys, command):
    code, out, err = run_cli(capsys, command, "--a-max", "inf")
    assert code == 2 and out == ""
    assert "a-min and a-max must be finite" in err


def test_simulate_tail_mode(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--ic", "packed", "--t", "1",
                           "--dt", "0.01", "--reps", "200", "--seed", "2",
                           "--a", "8")
    obj = json.loads(out)
    assert code == 0
    assert obj["level"] == 10.0
    assert obj["p_hat"] == 0.0
    assert obj["stderr"] == pytest.approx(3.0 / 200)


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ic = flat\nt = 4\na = 1\n# comment line\npoints = 9\n")
    code, out, _ = run_cli(capsys, "prob", "--config", str(cfg),
                           "--ic", "packed")
    obj = json.loads(out)
    assert code == 0
    assert obj["ic"] == "packed"   # flag wins
    assert obj["t"] == 4           # config supplies the rest
    assert obj["a"] == 1.0


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wat=1\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_bad_syntax(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line without equals\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("command", ["rates", "prob"])
def test_config_bad_format_rejected(capsys, tmp_path, command):
    # a config value skips argparse's choices, so it is checked on reading
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "bad config value for 'format'" in err


@pytest.mark.parametrize("command, base, flag, line, code, lines", [
    ("verify", (), ("--fast",), "fast = true", 0, 7),
    ("tail", ("--ic", "flat", "--a", "1"), ("--t-list", "4,8"), "t_list = 4,8", 0, 3),
    ("prob", ("--ic", "stationary", "--t", "4", "--a", "1"), ("--rho", "0.9"),
     "rho = 0.9", 0, 11),
    ("simulate", ("--ic", "flat", "--t", "1", "--reps", "40", "--format", "json"),
     ("--cutoff", "4"), "cutoff = 4", 0, 14),
    ("prob", ("--ic", "stationary", "--t", "4", "--a", "1"), ("--rho", "1.5"),
     "rho = 1.5", 2, 0),
    ("tail", ("--a", "1", "--t-list", "4"), ("--ic", "stationary"), "ic = stationary", 2, 0),
], ids=["fast", "t_list", "rho", "cutoff", "rho-outside-range", "ic-outside-choices"])
def test_config_key_acts_as_its_flag(capsys, tmp_path, command, base, flag, line,
                                     code, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code1, out1, _ = run_cli(capsys, command, *base, *flag)
    code2, out2, _ = run_cli(capsys, command, *base, "--config", str(cfg))
    assert code1 == code2 == code
    assert out1 == out2
    assert out1.count("\n") == lines


def test_missing_required_parameter(capsys):
    code, _, err = run_cli(capsys, "prob", "--ic", "packed", "--t", "4")
    assert code == 2
    assert "--a" in err


def test_out_of_range_rejected_before_compute(capsys):
    code, _, err = run_cli(capsys, "prob", "--ic", "packed", "--t", "4",
                           "--a", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "rates", "--a-min", "2", "--a-max", "1")
    assert code == 2
    for a in ("nan", "inf"):
        code, out, err = run_cli(capsys, "simulate", "--ic", "packed", "--t", "1",
                                 "--dt", "0.01", "--reps", "50", "--seed", "2",
                                 "--a", a)
        assert code == 2 and out == ""
        assert "deviation parameter" in err


def test_numeric_failure_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericFailure("synthetic failure", hint="refine the contour")

    monkeypatch.setattr(cli.fredholm, "prob_packed", boom)
    code, _, err = run_cli(capsys, "prob", "--ic", "packed", "--t", "4",
                           "--a", "1")
    assert code == 3
    assert "synthetic failure" in err and "refine the contour" in err


def test_deep_tail_exits_three_without_output(capsys):
    # the stationary p at t = 64, a = 5 rounds to just above 1, so its
    # survival is not resolved: no row with log_survival -inf is printed
    code, out, err = run_cli(capsys, "prob", "--ic", "stationary", "--t", "64",
                             "--a", "5")
    assert code == 3 and out == ""
    assert "no finite log_survival" in err


# at a = 500 the stationary weights e^{t H(w) + s (w+1)} are about e^-5e5, so
# the kernel is 0 in double precision and p rounds to 1 (the ids name the
# limit this used to hit, when e^{t H(w)} = 0 met e^{s (w+1)} = inf)
@pytest.mark.parametrize("argv, message", [
    (("prob", "--ic", "stationary", "--t", "4", "--a", "500"),
     "prob_stat: no finite log_survival at p = 1.0"),
    (("prob", "--ic", "stationary", "--t", "4", "--a", "500", "--rho", "0.9"),
     "prob_stat_rho: no finite log_survival at p = 1.0,"),
    (("prob", "--ic", "flat", "--t", "4", "--a", "1000"),
     "the spiral's base z_a e^(z_a) underflows at a = 1000.0"),
    (("rates", "--a-min", "1e154", "--a-max", "1e155"), "rate_packed is not finite"),
    # the flat curvature stays finite as far as the rate, which is named
    (("rates", "--ic", "flat", "--a-min", "1e154", "--a-max", "1e155"),
     "rate_flat is not finite at a = 1.93"),
    (("figure1", "--a-max", "1e155"), "rate_flat is not finite at a = 1.9"),
    (("prob", "--ic", "packed", "--t", "4", "--a", "1e155"),
     "the saddle w- is not finite at a = 1e+155"),
    (("prob", "--ic", "stationary", "--t", "4", "--a", "1e155"),
     "the saddle w- is not finite at a = 1e+155"),
] + [
    # a contour past contours._MAX_NODES nodes is refused before any array is built
    (("prob", "--ic", ic, "--t", str(10 ** e), "--a", "1"), "above 2097152 at t = 1e+")
    for ic in ("packed", "stationary", "flat") for e in (20, 40, 300)
], ids=["stat-overflow", "stat-rho-overflow", "flat-spiral-underflow", "rates-huge-a",
        "rates-flat-huge-a", "figure1-huge-a", "packed-huge-a", "stat-huge-a"]
    + [f"{ic}-t1e{e}" for ic in ("packed", "stationary", "flat") for e in (20, 40, 300)])
def test_numeric_limits_exit_three_without_output(capsys, argv, message):
    # past what double precision holds, each command names the limit and
    # exits 3; a numpy warning on the way fails the test
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("ic", ["packed", "flat", "stationary"])
def test_prob_has_no_grid_size(capsys, tmp_path, ic, source):
    # each determinant refines itself from a fixed first grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_size = 48\n")
    extra = ("--grid-size", "48") if source == "flag" else ("--config", str(cfg))
    code, out, err = run_cli(capsys, "prob", "--ic", ic, "--t", "4", "--a", "1", *extra)
    assert code == 2 and out == ""
    assert ("unrecognized arguments: --grid-size 48" if source == "flag"
            else "unknown config key 'grid_size'") in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tail_prints_the_rows_before_a_failing_time(capsys, monkeypatch, fmt):
    prob_flat = cli.fredholm.prob_flat

    def fail_at_64(t, a):
        if t == 64:
            raise NumericFailure("prob_flat: no finite log_survival at p = 1.0",
                                 hint="the survival is below what 1 - det resolves")
        return prob_flat(t, a)

    monkeypatch.setattr(cli.fredholm, "prob_flat", fail_at_64)
    code, out, err = run_cli(capsys, "tail", "--ic", "flat", "--a", "5",
                             "--t-list", "16,64", "--format", fmt)
    assert code == 3
    assert "t = 64: prob_flat: no finite log_survival" in err
    if fmt == "csv":
        lines = out.split("\r\n")
        assert lines[0].startswith("t,p,log_survival") and lines[1].startswith("16,")
        assert lines[2:] == [""]
    else:
        assert json.loads(out)["t"] == [16.0]


def test_packed_tail_reaches_deep_times(capsys):
    code, out, _ = run_cli(capsys, "tail", "--ic", "packed", "--a", "5",
                           "--t-list", "16,64,256", "--format", "json")
    table = json.loads(out)
    assert code == 0 and table["t"] == [16.0, 64.0, 256.0]
    assert all(np.isfinite(v) for v in table["log_survival"])


def test_flat_tail_reaches_deep_times(capsys):
    # every t takes the grid-free trace, where a Hilbert-Schmidt bound
    # proves it exact
    code, out, _ = run_cli(capsys, "tail", "--ic", "flat", "--a", "5",
                           "--t-list", "16,64,256", "--format", "json")
    table = json.loads(out)
    assert code == 0 and table["t"] == [16.0, 64.0, 256.0]
    assert all(np.isfinite(v) for v in table["log_survival"])


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prob", "--no-such-flag"])
    assert exc.value.code == 2


def test_out_file_has_crlf(capsys, tmp_path):
    path = tmp_path / "rates.csv"
    code, out, _ = run_cli(capsys, "rates", "--points", "2", "--a-min", "1",
                           "--a-max", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    assert b"\r\n" in path.read_bytes()


def test_verify_fast_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--fast")
    code2, out2, _ = run_cli(capsys, "verify", "--fast")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("\n") == 7
    assert "6 of 6 checks passed" in out1


def test_cli_import_leaves_verify_and_its_scipy_modules_unloaded():
    # only the verify command needs scipy.stats and scipy.interpolate, and
    # nothing needs scipy.optimize
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for module in ("bmtails", "bmtails.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in ('bmtails.verify', "
                "'scipy.stats', 'scipy.interpolate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]", module


def test_only_the_flat_route_loads_scipy():
    # scipy.special loads on the first Lambert W call; no other route makes one
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = ("import sys, bmtails as b\n"
            "b.prob_packed(4, 1.0); b.prob_stat(4, 1.0); b.prob_stat_rho(4, 1.0, 0.5)\n"
            "b.prob_finite_n(3, 2.0, 5.0); b.rate_packed(1.0); b.rate_stat(1.0)\n"
            "b.simulate_samples(b.SimConfig('packed', 4, reps=64, seed=1))\n"
            "b.tail_estimate(b.SimConfig('stationary', 2, reps=64, seed=1), 0.25)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
    # -X importtime lists every module a fresh interpreter imports on stderr
    for ic in ("packed", "stationary"):
        out = subprocess.run([sys.executable, "-X", "importtime", "-m", "bmtails", "rates",
                              "--ic", ic, "--points", "5"], capture_output=True, text=True,
                             check=True, env=env)
        assert re.search(r"\| *bmtails\.rates$", out.stderr, re.M), ic
        assert not re.search(r"\| *scipy", out.stderr), ic
    code = "import sys, bmtails; print(bmtails.prob_flat(4, 1).p, 'scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    p, loaded = out.stdout.split()
    assert 0.0 < float(p) < 1.0 and loaded == "True"
