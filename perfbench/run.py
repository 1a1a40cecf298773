"""Benchmark of bmtails: determinant point queries, determinant level sweeps
and Monte Carlo, every output checked against recorded references or exact
oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload det-points --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # each workload in a fresh process

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Both modes run the workload's queries in
their fixed order, pass after pass, for --seconds (at least one whole
pass), with a calibration slot before each query; query times are
normalised to the reference speed of the calibration kernel.  With
--trace 0 the metrics are the end-to-end ones.  With --trace 1 one traced
pass follows, and the metrics are its per-layer ones.  Lines starting
with "info" carry the machine record, the raw timings and the accuracy
figures; spans, per-query latencies and failures go to perfbench/out/.
"""

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine

machine.pin_threads()

import calibration  # noqa: E402  (loads numpy after the threads are pinned)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("det-points", "det-levels", "sim-mc")
DEFAULT_SEED = 1      # claims are measured on seed 1 and confirmed on seed 2
DEFAULT_SECONDS = 30
SETUP_RUNS = 5
SETUP_CAL_CALLS = 4   # calibration kernel calls per slot around each interpreter
CHILD_TIMEOUT = 900
TRIVIAL_ARGS = (1.0, 1.0)    # prob_packed(t, a): the set-up probe query
TAIL_BEYOND = 10      # samples that must lie beyond the tail percentile
RNG_PROBE_STEPS = 1000


def import_library():
    """Import bmtails from the checkout's src/, never from elsewhere."""
    if not (SRC / "bmtails" / "__init__.py").is_file():
        raise SystemExit(f"error: no bmtails sources under {SRC}; run from the "
                         "root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bmtails

    if Path(bmtails.__file__).resolve().parent != SRC / "bmtails":
        raise SystemExit(f"error: bmtails imported from {bmtails.__file__}, "
                         f"not from {SRC}")
    return bmtails


def measure_setup(expected_p):
    """Median normalised seconds from a fresh interpreter to the trivial
    query's answer, and the raw seconds of each interpreter.  Calibration
    slots run before, between and after the interpreters."""
    code = ("import bmtails; "
            f"print(repr(bmtails.prob_packed{TRIVIAL_ARGS}.p), flush=True)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, slots = [], []
    for _ in range(SETUP_RUNS):
        slots.append(calibration.slot(SETUP_CAL_CALLS))
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=CHILD_TIMEOUT)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up child failed with code {proc.returncode}")
        if abs(float(line) - expected_p) > 1e-12:
            raise RuntimeError(f"set-up child answered {line.strip()}, "
                               f"expected {expected_p!r}")
        times.append(elapsed)
    slots.append(calibration.slot(SETUP_CAL_CALLS))
    return statistics.median(calibration.normalise(times, slots)), times


def call(q, k, tracer=None):
    """(seconds, result, exception) of query q in pass k."""
    ctx = tracer.query_span(q.label) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            res, err = q.call(k), None
    except Exception as exc:  # a failed query is counted, not fatal
        res, err = None, exc
    return time.perf_counter() - t0, res, err


def run_loop(workload, seconds, first_pass=0, tracer=None):
    """The queries in their fixed order, pass after pass, until `seconds`
    have gone and at least one pass is whole; a calibration slot runs
    just before each query.  Returns samples (query index, pass, seconds,
    result, exception) and the slot times, both in run order."""
    samples, slots = [], []
    start = time.perf_counter()
    for k in itertools.count(first_pass):
        for i, q in enumerate(workload.queries):
            if k > first_pass and time.perf_counter() - start > seconds:
                return samples, slots
            slots.append(calibration.slot(workload.cal_calls))
            samples.append((i, k) + call(q, k, tracer))


def judge(bmtails, queries, samples, final_check=None):
    """(failures, problems, stats, detail) of all samples; stats hold the
    maxima of the accuracy figures, detail the figures of each query."""
    failures, problems, stats, detail, ok = [], [], {}, {}, {}
    for i, _, _, res, err in samples:
        q = queries[i]
        if err is not None:
            reason = f"{type(err).__name__}: {err}"
            failures.append((q.label, reason))
            if not isinstance(err, bmtails.NumericFailure):
                problems.append(f"{q.label}: unexpected {reason}")
            continue
        verdict = q.judge(res)
        for key, value in verdict.stats.items():
            stats[key] = max(stats.get(key, 0.0), value)
        detail[q.label] = verdict.stats
        if verdict.failure:
            failures.append((q.label, verdict.failure))
            continue
        problems.extend(f"{q.label}: {p}" for p in verdict.problems)
        ok.setdefault(q.label, []).append(res)
    if final_check:
        more, final_stats = final_check(ok)
        problems.extend(more)
        stats.update(final_stats)
    return failures, list(dict.fromkeys(problems)), stats, detail


def per_query(samples, latencies, n_queries):
    """Each query's latencies, in pass order."""
    cols = [[] for _ in range(n_queries)]
    for (i, *_), lat in zip(samples, latencies):
        cols[i].append(lat)
    return cols


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics.  Unlike a single order statistic it does not jump
    when values near a gap in the sorted list trade places."""
    from scipy.stats import beta

    x = sorted(values)
    n = len(x)
    if n == 1 or p >= 1.0:
        return x[-1] if p >= 1.0 else x[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = beta.cdf([i / n for i in range(n + 1)], a, b)
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x)))


def latency_summary(cols):
    """Median and tail over the queries of each query's median latency,
    and their sum, the time of one pass.  The tail is the highest
    percentile with TAIL_BEYOND queries beyond it."""
    medians = [statistics.median(c) for c in cols]
    n = len(medians)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "pass_s": sum(medians),
        "p50_s": quantile(medians, 0.5),
        "tail_s": quantile(medians, (k + 1) / n),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "queries": n,
        "samples": [len(c) for c in cols],
    }


def rng_probe(tracer):
    """Seconds the simulator blocks of the traced pass spend drawing
    Gaussians: the same number of normals from each block's own Philox
    stream, without the reflection sweep, timed over at most
    RNG_PROBE_STEPS steps and scaled to the full step count."""
    import numpy as np

    total = 0.0
    for cfg, entry in tracer.sim_blocks.items():
        rng = np.random.Generator(np.random.Philox(entry["seed_seq"]))
        steps = int(round(cfg.t / cfg.dt))
        k = min(steps, RNG_PROBE_STEPS)
        start = time.perf_counter()
        for _ in range(k):
            rng.standard_normal(entry["shape"])
        total += (time.perf_counter() - start) * steps / k * entry["blocks"]
    return total


def end_to_end_values(setup_s, lat, attempted, failed):
    return {
        "setup_s": setup_s,
        "wall_s": lat["pass_s"],
        "query_p50_s": lat["p50_s"],
        "query_tail_s": lat["tail_s"],
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_values(tracer, n_queries, stats, probe_failures, overhead, oracle_s):
    """Per-layer values of the traced pass and the names whose source a
    later version of the library no longer has (reported as 0)."""
    import tracing

    values, missing = tracing.layer_metrics(tracer, n_queries, machine.SIM_WORKERS)
    values.update({
        "sim.rng_probe_s": rng_probe(tracer),
        "sim.oracle_s": oracle_s,
        "sim.bias_sigma": stats.get("bias_sigma", 0.0),
        "fredholm.ref_dev": stats.get("ref_dev", 0.0),
        "fredholm.oracle_err": stats.get("oracle_err", 0.0),
        "fredholm.deep_tail_fail": len(probe_failures),
        "trace.overhead_frac": overhead,
    })
    for name in missing:
        values[name] = 0
    return values, missing


def with_units(values, section):
    """{name: {value, unit}} for every metric BENCHMARK.json lists in section."""
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_workload(args):
    bmtails = import_library()
    import tracing
    import workloads

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine.machine_record()}
    print("info", json.dumps({"machine": record["machine"]}), flush=True)
    workload = workloads.build(args.workload, args.seed)
    # warm-up: lazy imports and first-call set-up, paid once per process
    expected_p = bmtails.prob_packed(*TRIVIAL_ARGS).p
    calibration.warm_up()
    if not args.trace:
        setup_s, record["setup_runs_s"] = measure_setup(expected_p)

    samples, slots = run_loop(workload, args.seconds)
    passes = samples[-1][1] + 1
    n = len(workload.queries)
    raw_cols = per_query(samples, [s[2] for s in samples], n)
    raw = latency_summary(raw_cols)
    lat = latency_summary(per_query(
        samples, calibration.normalise([s[2] for s in samples], slots), n))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_slots = run_loop(workload, 0, passes, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(calibration.normalise([s[2] for s in traced], traced_slots))
        overhead = traced_s / lat["pass_s"] - 1.0
        samples += traced

    failures, problems, stats, record["accuracy_detail"] = judge(
        bmtails, workload.queries, samples, workload.final_check)
    attempted, failed = len(samples), len(failures)

    probe_failures = []
    if workload.probe:
        probe = [(i, 0) + call(q, 0) for i, q in enumerate(workload.probe)]
        probe_failures = judge(bmtails, workload.probe, probe)[0]

    record["latencies_s"] = {q.label: col for q, col in zip(workload.queries, raw_cols)}
    record["calibration_slots_s"] = slots
    info = {
        "passes": passes,
        "latency": lat,
        "raw_latency": raw,
        "calibration_median_s": statistics.median(slots),
        "failures": failures,
        "ref_dev": stats.get("ref_dev"),
        "oracle_err": stats.get("oracle_err"),
        "bias_sigma": stats.get("bias_sigma"),
        "gap_sigma": stats.get("gap_sigma"),
        "deep_tail_probe": {"failed": len(probe_failures),
                            "of": len(workload.probe),
                            "failures": probe_failures},
        "oracle_s": workload.oracle_s,
        "problems": problems,
    }
    print("info", json.dumps(info), flush=True)
    record.update(info)

    if args.trace:
        values, missing = per_layer_values(tracer, n, stats, probe_failures,
                                           overhead, workload.oracle_s)
        print("info", json.dumps({"missing_metrics": missing,
                                  "missing_names": tracer.missing}), flush=True)
        metrics = with_units(values, "per_layer")
        record["spans"] = [vars(s) for s in tracer.spans]
    else:
        metrics = with_units(end_to_end_values(setup_s, lat, attempted, failed),
                             "end_to_end")
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def run_all(args):
    """Each workload in its own interpreter, so that set-up time and peak
    memory belong to that workload; prints a table, then a JSON summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:32s} {m['value']:<14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the sim-mc replica and oracle seeds; "
                             "confirm a claim on seed 2 as well")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
