"""Alternating parent/change benchmark pairs, summarised into BENCH_<label>.json.

Runs ``perfbench/run.py`` from two checkouts, one run at a time, in
alternating pairs (odd pairs parent first, even pairs change first), and
writes the end-to-end metrics of every run, their medians, quartiles and
interquartile ranges, and how many pairs the change won on each metric
(the direction of "better" is read from BENCHMARK.json):

    python ci/bench_pairs.py --parent ../parent --change . --label sub_rule \\
        --run det-levels:1 --run det-levels:2 --run det-points:1 --run sim-mc:1 \\
        --claim det-levels:wall_s

Each workload runs in 10 pairs of 30 s runs (a claimed gain should win at
least 9 of them), then once per tree traced (``--trace 1``, 5 s), whose
per-layer metrics are stored beside the pairs.  A workload at seed 1 is
stored under its name, at another seed under ``<name>-seed<seed>``.  An
existing output file is updated: entries that this call does not run are
kept, so the runs of one claim may be split over several calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900
PAIRS = 10
RUN_SECONDS = 30
TRACED_SECONDS = 5


def run_once(checkout, workload, seed, seconds, trace=0):
    """(result line, record) of one perfbench/run.py run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    out = Path(checkout) / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(out) as fh:
        record = json.load(fh)
    # the per-query latency columns and spans are the bulk of a record
    for key in ("latencies_s", "calibration_slots_s", "spans"):
        record.pop(key, None)
    return json.loads(lines[-1]), record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarise(runs, better):
    """Per metric: the values of each tree, and medians, quartiles and wins of the change."""
    metrics, summary = {}, {}
    for name in runs["parent"][0]["metrics"]:
        values = {tree: [r["metrics"][name]["value"] for r in runs[tree]] for tree in runs}
        metrics[name] = values
        p_med, p_q1, p_q3 = quartiles(values["parent"])
        c_med, c_q1, c_q3 = quartiles(values["change"])
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
                         "parent_iqr": p_q3 - p_q1, "change_median": c_med, "change_q1": c_q1,
                         "change_q3": c_q3, "change_wins": wins,
                         "rel_change": c_med / p_med - 1.0 if p_med else None}
    return metrics, summary


def run_pairs(checkouts, workload, seed, better):
    runs, records = {"parent": [], "change": []}, {}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for tree in order:
            result, records[tree] = run_once(checkouts[tree], workload, seed, RUN_SECONDS)
            runs[tree].append(result)
            print(f"{workload} seed {seed} pair {k + 1}/{PAIRS} {tree}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.4f} correct {result['correct']}",
                  flush=True)
    metrics, summary = summarise(runs, better)
    entry = {"seed": seed, "pairs": PAIRS,
             "order": "odd pairs parent first, even pairs change first",
             "all_correct": all(r["correct"] for tree in runs for r in runs[tree]),
             "failed": {tree: [r["failed"] for r in runs[tree]] for tree in runs},
             "attempted": {tree: [r["attempted"] for r in runs[tree]] for tree in runs},
             "metrics": metrics, "summary": summary, "records": records,
             "traced_pass": {"how": f"python3 perfbench/run.py --workload {workload} --seed "
                                    f"{seed} --seconds {TRACED_SECONDS} --trace 1, one run per tree"}}
    for tree, checkout in checkouts.items():
        result, _ = run_once(checkout, workload, seed, TRACED_SECONDS, trace=1)
        entry["traced_pass"][tree] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_pass"][tree + "_correct"] = result["correct"]
    return entry


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED",
                        help="a workload and seed to run in pairs; may be repeated")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the claimed metric, summarised at the top with every seed run")
    parser.add_argument("--change-text", default=None, help="what the change does")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_<label>.json at the repository root)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    checkouts = {"parent": str(Path(args.parent).resolve()),
                 "change": str(Path(args.change).resolve())}
    with open(ROOT / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.update(label=args.label,
                 how=f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} "
                     "--trace 0, from a checkout of the parent commit and one of the change, one "
                     "run at a time, in alternating pairs (odd pairs parent first, even pairs "
                     "change first); each record is that of the last pair, without its "
                     "per-query latency columns; written by ci/bench_pairs.py")
    if args.change_text:
        bench["change"] = args.change_text
    workloads = bench.setdefault("workloads", {})
    for spec in args.run:
        workload, _, seed = spec.partition(":")
        seed = int(seed or 1)
        key = workload if seed == 1 else f"{workload}-seed{seed}"
        workloads[key] = run_pairs(checkouts, workload, seed, better)
        bench["machine"] = workloads[key]["records"]["change"]["machine"]
        out.write_text(json.dumps(bench, indent=1) + "\n")
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = {"workload": workload, "metric": metric}
        for key, entry in sorted(workloads.items()):
            if key == workload or key.startswith(workload + "-seed"):
                claim[f"seed_{entry['seed']}"] = dict(pairs=entry["pairs"],
                                                      **entry["summary"][metric])
        bench["claim"] = claim
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
