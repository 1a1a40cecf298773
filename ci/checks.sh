#!/usr/bin/env bash
# The checks that the CI job runs, one per call, from the repository root:
#
#   bash ci/checks.sh deep-packed|deep-stationary|deep-flat|cold-start|benchmark-tests|benchmark-checks|verify-fast|verify-full
#
# Each exits non-zero when its check fails.  -e and pipefail are the options
# of a workflow step with an explicit bash shell, so a failing command is not
# hidden by tee.  The CLI steps run with PYTHONWARNINGS=error::RuntimeWarning
# set by the workflow, so a numpy RuntimeWarning is an error, as it is in pytest.
set -eo pipefail

case "${1:-}" in
  # packed is particle n = t of the shared finite-n Gram, cut at order
  # m = 11 at a = 5; it resolves survivals down to e^-80416 at t = 4096,
  # where a Hilbert-Schmidt bound proves the survival to be e^{-t r} times
  # the Gram's trace; at a = 0.5 the table crosses from LU and the trace
  # series (t <= 64, where the bound is 1.8e-17, just short of proving the
  # trace) to the trace (t = 256); at a = 0.05 the Gram orders are 16, 64
  # and 93, the longest moment vectors (2m - 1 = 185 per contour at t = 256):
  # every value must be finite (JSON prints a non-finite one as null)
  deep-packed)
    for args in "--a 5 --t-list 16,64,256,4096" "--a 0.5 --t-list 4,16,64,256" \
                "--a 0.05 --t-list 16,64,256"; do
      PYTHONPATH=src python -m bmtails tail --ic packed $args --format json | tee tail_packed.json
      if grep -q null tail_packed.json; then
        echo "non-finite value in the packed tail table ($args)"
        exit 1
      fi
    done
    ;;
  # the unit-density stationary law is a central-difference derivative
  # D'(0): a survival below 10x its rounding bound 3 eps max|D| / h
  # (0.053x at t = 16, a = 4) must exit 3, and one 599x above it
  # (t = 16, a = 2) must exit 0 with a finite log_survival; at density
  # rho the bound is divided by 1 - rho (0.152x at t = 16, a = 4,
  # rho = 0.99, and 699x at t = 16, a = 2, rho = 0.99)
  deep-stationary)
    code=0
    PYTHONPATH=src python -m bmtails prob --ic stationary --t 16 --a 4 || code=$?
    if [ "$code" != 3 ]; then
      echo "stationary t = 16, a = 4 exited $code, not 3"
      exit 1
    fi
    PYTHONPATH=src python -m bmtails prob --ic stationary --t 16 --a 2 --format json | tee prob_stat.json
    if grep -q null prob_stat.json; then
      echo "non-finite value at stationary t = 16, a = 2"
      exit 1
    fi
    code=0
    PYTHONPATH=src python -m bmtails prob --ic stationary --t 16 --a 4 --rho 0.99 || code=$?
    if [ "$code" != 3 ]; then
      echo "stationary t = 16, a = 4, rho = 0.99 exited $code, not 3"
      exit 1
    fi
    PYTHONPATH=src python -m bmtails prob --ic stationary --t 16 --a 2 --rho 0.99 --format json | tee prob_stat_rho.json
    if grep -q null prob_stat_rho.json; then
      echo "non-finite value at stationary t = 16, a = 2, rho = 0.99"
      exit 1
    fi
    ;;
  # where a Hilbert-Schmidt bound proves it exact, the flat survival is
  # e^{-t r} times the integral of the kernel's diagonal on the spiral
  # (a = 5 reaches e^-4591 at t = 256); at a = 2 the table crosses from the
  # Nystrom grid (t = 4) to the trace (t = 16, 64); at a = 0.1 the grid
  # takes LU (t = 1, all three rungs to 384 nodes, and t = 16) and the trace
  # series (t = 256): every value must be finite (JSON prints a non-finite
  # one as null)
  deep-flat)
    for args in "--a 5 --t-list 16,64,256" "--a 2 --t-list 4,16,64" \
                "--a 0.1 --t-list 1,16,256"; do
      PYTHONPATH=src python -m bmtails tail --ic flat $args --format json | tee tail_flat.json
      if grep -q null tail_flat.json; then
        echo "non-finite value in the flat tail table ($args)"
        exit 1
      fi
    done
    ;;
  # scipy.special loads on the first Lambert W call, which only the flat
  # route, the flat rates and verify make: a packed prob, a stationary
  # simulate and the packed and stationary rate tables must import no scipy
  # module (-X importtime lists every import on stderr)
  cold-start)
    for args in "prob --ic packed --t 16 --a 1" \
                "simulate --ic stationary --t 2 --reps 512 --seed 1 --a 0.25" \
                "rates --ic packed --points 5" \
                "rates --ic stationary --points 5"; do
      PYTHONPATH=src python -X importtime -m bmtails $args 2> importtime.txt
      if grep -q "| *scipy" importtime.txt; then
        echo "bmtails $args imported scipy:"
        grep "| *scipy" importtime.txt
        exit 1
      fi
    done
    ;;
  # the benchmark's own tests fail when a function its tracer wraps by name
  # is renamed or removed (tracer.missing must stay empty); they do not
  # check that every wrapped function is still called
  benchmark-tests)
    python -m pytest -q perfbench
    ;;
  # one run of all three workloads (about 13 s at --seconds 1): det-points holds its 37
  # queries to perfbench/reference.json, det-levels holds verify's level
  # sweeps of prob_finite_n to it and to check 7's Gaussian bound, and
  # sim-mc pools the simulator runs against the eigenvalue and stationary
  # oracles; the last line ANDs the three verdicts and sums their failures
  benchmark-checks)
    python perfbench/run.py --workload all --seconds 1 --trace 0 | tee benchmark.txt
    tail -n 1 benchmark.txt | python -c '
import json, sys
rec = json.load(sys.stdin)
print("correct:", rec["correct"], "failed:", rec["failed"])
sys.exit(0 if rec["correct"] is True and rec["failed"] == 0 else 1)
'
    ;;
  # checks 1 to 6, the fast subset whose output check 13 hashes
  verify-fast)
    PYTHONPATH=src python -m bmtails verify --fast | tee verify_fast.txt
    last=$(tail -n 1 verify_fast.txt | tr -d '\r')
    if [ "$last" != "6 of 6 checks passed" ]; then
      echo "unexpected last line: $last"
      exit 1
    fi
    ;;
  # all 13 checks, the simulator checks 8, 11 and 12 included (about 10 s)
  verify-full)
    PYTHONPATH=src python -m bmtails verify | tee verify_full.txt
    last=$(tail -n 1 verify_full.txt | tr -d '\r')
    if [ "$last" != "13 of 13 checks passed" ]; then
      echo "unexpected last line: $last"
      exit 1
    fi
    ;;
  *)
    echo "usage: bash ci/checks.sh deep-packed|deep-stationary|deep-flat|cold-start|benchmark-tests|benchmark-checks|verify-fast|verify-full" >&2
    exit 2
    ;;
esac
