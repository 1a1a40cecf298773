import csv
import io
import json
import os
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
    ("prob", ("--ic", "packed", "--t", "4", "--a", "1"), ("--grid-size", "64"),
     "grid-size = 64", 0, 11),
    ("simulate", ("--ic", "flat", "--t", "1", "--reps", "40", "--format", "json"),
     ("--cutoff", "4"), "cutoff = 4", 0, 14),
    ("prob", ("--ic", "packed", "--t", "4", "--a", "1"), ("--grid-size", "256"),
     "grid_size = 256", 2, 0),
    ("tail", ("--a", "1", "--t-list", "4"), ("--ic", "stationary"), "ic = stationary", 2, 0),
], ids=["fast", "t_list", "grid_size", "cutoff", "grid_size-too-large", "ic-outside-choices"])
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
    # a first grid above half the largest one would never be refined
    for ic, size, top in (("packed", "256", 192), ("stationary", "128", 96)):
        code, out, err = run_cli(capsys, "prob", "--ic", ic, "--t", "4", "--a", "1",
                                 "--grid-size", size)
        assert code == 2 and out == ""
        assert f"grid_size must lie in [8, {top}], got {size}" in err
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
