"""Record the reference outputs of every determinant query.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json with p and log_survival of each
det-points and det-levels query as the checked-out code computes them,
failures included.  The benchmark compares later commits against this
file, so re-record only when a change of the determinant values has been
shown to be a correction.
"""

import json
import sys
from pathlib import Path

import machine

machine.pin_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bmtails  # noqa: E402
import workloads  # noqa: E402


def record(specs):
    out = {}
    for label, call, *_ in specs:
        try:
            res = call()
        except bmtails.NumericFailure as exc:
            out[label] = {"error": str(exc)}
            continue
        out[label] = {"p": res.p, "log_survival": res.log_survival}
    return out


def main():
    reference = {
        "det-points": record(workloads.point_specs()),
        "det-levels": record(workloads.level_specs()),
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
