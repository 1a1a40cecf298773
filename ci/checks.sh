#!/usr/bin/env bash
# The checks that both CI jobs run, one per call, from the repository root:
#
#   bash ci/checks.sh deep-packed|deep-stationary|deep-flat|benchmark-tests|verify-full
#
# Each exits non-zero when its check fails.  -e and pipefail are the options
# of a workflow step with an explicit bash shell, so a failing command is not
# hidden by tee.  The CLI steps run with PYTHONWARNINGS=error::RuntimeWarning
# set by the workflow, so a numpy RuntimeWarning is an error, as it is in pytest.
set -eo pipefail

case "${1:-}" in
  # packed is particle n = t of the shared finite-n Gram, cut at order
  # m = 11 at a = 5; it resolves survivals down to e^-80416 at t = 4096:
  # the table must exit 0 with every value finite (JSON prints a non-finite
  # one as null)
  deep-packed)
    PYTHONPATH=src python -m bmtails tail --ic packed --a 5 --t-list 16,64,256,4096 --format json | tee tail_packed.json
    if grep -q null tail_packed.json; then
      echo "non-finite value in the packed tail table"
      exit 1
    fi
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
  # below e^-600 the flat survival is e^{-t r} times the integral of the
  # kernel's diagonal on the spiral (a = 5 reaches e^-4591 at t = 256)
  deep-flat)
    PYTHONPATH=src python -m bmtails tail --ic flat --a 5 --t-list 16,64,256 --format json | tee tail_flat.json
    if grep -q null tail_flat.json; then
      echo "non-finite value in the flat tail table"
      exit 1
    fi
    ;;
  # the benchmark's own tests fail when a function its tracer wraps by name
  # is renamed or removed (tracer.missing must stay empty); they do not
  # check that every wrapped function is still called
  benchmark-tests)
    python -m pytest -q perfbench
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
    echo "usage: bash ci/checks.sh deep-packed|deep-stationary|deep-flat|benchmark-tests|verify-full" >&2
    exit 2
    ;;
esac
