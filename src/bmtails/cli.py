"""Command-line interface.

Subcommands cover the rate tables, one-point probabilities, tail-rate
convergence studies, Monte Carlo simulation, the flat-rate figure data,
and the verification suite.  Outputs are deterministic for a fixed seed:
CSV files use CRLF line endings, a header row and 17 significant digits;
JSON output is a single snake_case object.

Each option is declared once, on its subcommand's parser, with its type,
choices and default.  ``--config FILE`` reads ``key=value`` lines keyed by
flag name (``t-list`` or ``t_list``); each value is checked by its flag
and becomes that flag's default, so command-line flags still win.  Keys
of other subcommands are ignored; an unknown key, or a value outside its
flag's type or choices, exits 2.  ``prob --rho`` applies to the
stationary start only; ``--rho 1``, the default, is its unit-density
form.  ``tail`` prints the rows of the times before the first one whose
probability fails, then exits 3 naming that time.

Exit codes: 0 success, 1 verification checks failed, 2 invalid arguments
or configuration, 3 numeric failure inside a computation.  Log lines go
to standard error prefixed with their severity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

import numpy as np

from . import fredholm, rates, sim
from .errors import NumericFailure

log = logging.getLogger("bmtails.cli")

_ICS = ("packed", "flat", "stationary")
_BOOLS = {"true": True, "false": False}
# flags that a config file cannot set
_FLAG_ONLY = frozenset({"help", "config", "verbose"})


# ---------------------------------------------------------------------------
# configuration and output plumbing


def _read_config(path):
    """Parse a key=value file ('#' comments, blank lines allowed)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    entries = {}
    for num, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{num}: expected key=value, got {raw!r}")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _config_defaults(subparsers, command, path):
    """The config file's values for command, typed and checked by its flags.

    A key that no subcommand has is an error; a key of another subcommand
    is skipped.
    """
    options = {name: {a.dest: a for a in sub._actions if a.dest not in _FLAG_ONLY}
               for name, sub in subparsers.items()}
    values = {}
    for key, raw in _read_config(path).items():
        if not any(key in opts for opts in options.values()):
            raise ValueError(f"unknown config key {key!r}")
        action = options[command].get(key)
        if action is None:
            continue        # belongs to another subcommand
        try:
            value = _BOOLS[raw.lower()] if action.nargs == 0 else (action.type or str)(raw)
            if action.choices is not None and value not in action.choices:
                raise KeyError(raw)
        except (ValueError, KeyError):
            raise ValueError(f"bad config value for {key!r}: {raw!r}")
        values[key] = value
    return values


def _require(ns, command, *keys):
    missing = [k for k in keys if getattr(ns, k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"{command} requires {flags} (flag or config file)")


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _json_text(obj):
    # strict JSON has no Infinity/NaN literals; emit null for them
    def clean(value):
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, list):
            return [clean(v) for v in value]
        if isinstance(value, float) and not np.isfinite(value):
            return None
        return value

    return json.dumps(clean(obj), indent=2, allow_nan=False) + "\n"


def _table_text(fmt, columns, rows):
    if fmt == "json":
        return _json_text({c: [row[c] for row in rows] for c in columns})
    return _csv_text(columns, rows)


def _row_text(fmt, row):
    return _csv_text(list(row), [row]) if fmt == "csv" else _json_text(row)


def _emit(text, out):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote %d bytes to %s", len(text), out)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _check_grid(ns):
    if not (np.isfinite(ns.a_min) and np.isfinite(ns.a_max)):
        raise ValueError(f"a-min and a-max must be finite, got {ns.a_min} and {ns.a_max}")
    if not 0.0 < ns.a_min < ns.a_max:
        raise ValueError("need 0 < a-min < a-max")
    if ns.points < 2:
        raise ValueError("points must be at least 2")


# each rates and figure1 column as a function of a; a row computes only the
# columns it prints, so the packed and stationary tables never call rate_flat
_COLUMNS = {
    "a": lambda a: a,
    "r_packed": rates.rate_packed,
    "r_flat": lambda a: rates.rate_flat(a).rate,
    "r_stat": rates.rate_stat,
    "z_a": rates.solve_za,
    "w_minus": lambda a: rates.saddle_points(a)[0],
    "w_plus": lambda a: rates.saddle_points(a)[1],
    "asym_small": lambda a: rates.rate_asymptote("flat", a, "small"),
    "asym_large": lambda a: rates.rate_asymptote("flat", a, "large"),
}


def _grid_table(ns, columns, grid):
    """Emit the columns at each a of grid(a_min, a_max, points)."""
    _check_grid(ns)
    rows = [{c: _COLUMNS[c](a) for c in columns} for a in grid(ns.a_min, ns.a_max, ns.points)]
    _emit(_table_text(ns.format, columns, rows), ns.out)
    return 0


def _cmd_rates(ns):
    columns = {
        "all": ["a", "r_packed", "r_flat", "r_stat", "z_a", "w_minus", "w_plus"],
        "packed": ["a", "r_packed", "w_minus", "w_plus"],
        "flat": ["a", "r_flat", "z_a"],
        "stationary": ["a", "r_stat", "w_minus", "w_plus"],
    }[ns.ic]
    return _grid_table(ns, columns, np.geomspace)


def _cmd_prob(ns):
    _require(ns, "prob", "ic", "t", "a")
    if ns.rho != 1.0 and ns.ic != "stationary":
        raise ValueError("rho only applies to the stationary start")
    if ns.ic == "packed":
        res = fredholm.prob_packed(ns.t, ns.a)
    elif ns.ic == "flat":
        res = fredholm.prob_flat(ns.t, ns.a)
    elif ns.rho == 1.0:
        res = fredholm.prob_stat(ns.t, ns.a)
    else:
        res = fredholm.prob_stat_rho(ns.t, ns.a, ns.rho)
    row = {
        "ic": ns.ic,
        "t": ns.t,
        "a": ns.a,
        "rho": ns.rho,
        "p": res.p,
        "log_survival": res.log_survival,
        "survival": float(np.exp(res.log_survival)),
        "im_residue": res.im_residue,
        "refinement_delta": res.refinement_delta,
    }
    _emit(_row_text(ns.format, row), ns.out)
    return 0


def _cmd_tail(ns):
    _require(ns, "tail", "ic", "a")
    try:
        ts = [float(part) for part in ns.t_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"t-list must be comma-separated numbers, got {ns.t_list!r}")
    if not ts:
        raise ValueError("t-list is empty")
    columns = ["t", "p", "log_survival", "r_hat", "r_exact", "scaled_survival"]
    try:
        table = fredholm.tail_rate_table(ns.ic, ns.a, ts)
    except NumericFailure as exc:
        # the rows before the failing t stand; print them, then exit 3
        if exc.last:
            _emit(_table_text(ns.format, columns, exc.last), ns.out)
        raise
    _emit(_table_text(ns.format, columns, table), ns.out)
    return 0


def _cmd_simulate(ns):
    _require(ns, "simulate", "ic", "t")
    if ns.a is None and ns.format == "json" and ns.reps < 2:
        raise ValueError(f"the JSON summary's std needs reps >= 2, got {ns.reps}")
    cfg = sim.SimConfig(ic=ns.ic, t=ns.t, dt=ns.dt, cutoff=ns.cutoff, reps=ns.reps,
                        seed=ns.seed, rho=ns.rho)
    row = {"ic": cfg.ic, "t": cfg.t, "dt": cfg.dt, "cutoff": cfg.cutoff,
           "reps": cfg.reps, "seed": cfg.seed, "rho": cfg.rho}
    if ns.a is not None:
        p_hat, stderr = sim.tail_estimate(cfg, ns.a)
        row.update(a=ns.a, level=2.0 * cfg.t + ns.a * cfg.t, p_hat=p_hat, stderr=stderr)
    else:
        values = sim.simulate_samples(cfg).values
        if ns.format != "json":
            _emit(_csv_text(["x"], [{"x": v} for v in values]), ns.out)
            return 0
        std = float(values.std(ddof=1))
        row.update(mean=float(values.mean()), std=std, stderr=float(std / np.sqrt(len(values))),
                   min=float(values.min()), max=float(values.max()))
    _emit(_row_text(ns.format, row), ns.out)
    return 0


def _cmd_figure1(ns):
    return _grid_table(ns, ["a", "r_flat", "asym_small", "asym_large"], np.linspace)


def _cmd_verify(ns):
    # verify pulls in scipy.stats and scipy.interpolate, which no other command needs
    from . import verify

    buf = io.StringIO()
    failures = verify.run(fast=ns.fast, stream=buf)
    _emit(buf.getvalue(), ns.out)
    return 1 if failures else 0


_COMMANDS = {
    "rates": _cmd_rates,
    "prob": _cmd_prob,
    "tail": _cmd_tail,
    "simulate": _cmd_simulate,
    "figure1": _cmd_figure1,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, fmt="csv", formats=("csv", "json")):
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file supplying defaults; flags win")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default=fmt)
    parser.add_argument("--verbose", action="store_true",
                        help="log progress at debug level")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmtails",
        description="Upper-tail rates, Fredholm probabilities and Monte "
                    "Carlo simulation for Brownian motions with one-sided "
                    "collisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="rate-function table over an a-grid")
    p.add_argument("--ic", choices=_ICS + ("all",), default="all")
    p.add_argument("--a-min", type=float, dest="a_min", default=0.01)
    p.add_argument("--a-max", type=float, dest="a_max", default=10.0)
    p.add_argument("--points", type=int, default=50)
    _add_common(p)

    p = sub.add_parser("prob", help="one-point distribution value P(x_t(t) <= 2t+at)")
    p.add_argument("--ic", choices=_ICS)
    p.add_argument("--t", type=int, help="tagged particle index = time")
    p.add_argument("--a", type=float, help="deviation parameter")
    p.add_argument("--rho", type=float, default=1.0, help="stationary density in (0,1]")
    _add_common(p, "json")

    p = sub.add_parser("tail", help="finite-t rate estimates vs the exact rate")
    p.add_argument("--ic", choices=("packed", "flat"))
    p.add_argument("--a", type=float)
    p.add_argument("--t-list", dest="t_list", metavar="T1,T2,...", default="4,8,16",
                   help="increasing times, e.g. 4,8,16")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo draws of x_t(t)")
    p.add_argument("--ic", choices=_ICS)
    p.add_argument("--t", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--cutoff", type=int,
                   help="particles kept below the tagged one (flat, default "
                        "4t) or below particle 0 (stationary, default 0)")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--a", type=float,
                   help="estimate the tail P(x >= 2t+at) instead of dumping samples")
    _add_common(p, None)    # JSON with --a, else CSV samples

    p = sub.add_parser("figure1", help="flat rate and its two asymptotes")
    p.add_argument("--a-min", type=float, dest="a_min", default=0.01)
    p.add_argument("--a-max", type=float, dest="a_max", default=6.0)
    p.add_argument("--points", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("verify", help="run the verification checks")
    p.add_argument("--fast", action="store_true",
                   help="closed-form and contour checks only (seconds)")
    _add_common(p, formats=())

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        format="%(levelname)s: %(message)s",
        level=logging.DEBUG if args.verbose else logging.WARNING,
        force=True,
    )
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            (subparsers,) = (a.choices for a in parser._actions if a.dest == "command")
            subparsers[args.command].set_defaults(
                **_config_defaults(subparsers, args.command, args.config))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except NumericFailure as exc:
        hint = f" ({exc.hint})" if exc.hint else ""
        log.error("%s%s", exc, hint)
        return 3
    except ValueError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
