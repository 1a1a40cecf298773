"""The benchmark's workloads, their output checks and the failure rule.

det-points  one-point determinants prob_packed / prob_flat / prob_stat on a
            (t, a) grid plus the density-rho stationary formula.  Every query
            builds its own contours, so each one runs the whole determinant
            stack: Lambert W, saddles, contours, kernels, eigen-solve and
            grid refinement.
det-levels  the level sweeps of verify checks 7 and 8 through
            prob_finite_n.  Most levels lie at or below the edge 2 sqrt(nt),
            where the contour does not depend on the level, so this is the
            workload on which contour or factor reuse across levels shows.
sim-mc      two simulator runs at the default time step per pass, with fresh
            replica seeds in every pass, pooled over the run and compared
            with exact oracles: the top-eigenvalue law of a Hermitian
            Gaussian matrix for the packed start, the stationary
            determinant for the stationary tail.

Each workload is a closed loop: one query at a time, in a fixed order.  A
query is called with the index of its pass.  Only sim-mc draws from the
seed; the determinant workloads are fixed grids.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

import bmtails
from bmtails import rates

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Outputs of every determinant query must match the values recorded at the
# commit that introduced the benchmark: the CDF to 1e-8 absolute, the
# survival to 1e-6 relative per unit of |log survival|.  Doubling the
# contour density and grid moves log_survival by at most 1.5e-6 on this grid.
P_TOL = 1e-8
LOG_TOL = 1e-6
# check 7's bound for the n = 1 levels against the Gaussian law
ORACLE_TOL = 1e-6
# The simulator carries an O(sqrt(dt)) bias of several standard errors of
# the pooled run at the default step; the bias is reported as
# sim.bias_sigma, and only a gap beyond this many standard errors marks the
# output as wrong.
SIGMA_GATE = 8.0

POINT_TIMES = (4, 16, 64, 256)
POINT_AS = (0.5, 1.0, 2.0, 5.0)
POINT_STARTS = ("packed", "flat", "stat")
RHOS = (0.9, 0.95, 0.99)

# The deep corner of the grid, which the determinant code cannot certify at
# the commit that introduced the benchmark: -inf, or a survival stuck on the
# ~1e-13 cancellation floor of 1 - det.  These queries are kept out of the
# timed det-points list (their cost would change once they are fixed) and
# run once per run as the deep-tail probe.
DEEP_TAIL = (
    ("packed", 64, 5.0), ("packed", 256, 2.0), ("packed", 256, 5.0),
    ("flat", 64, 5.0), ("flat", 256, 2.0), ("flat", 256, 5.0),
    ("stat", 16, 5.0), ("stat", 64, 1.0), ("stat", 64, 2.0), ("stat", 64, 5.0),
    ("stat", 256, 0.5), ("stat", 256, 1.0), ("stat", 256, 2.0),
    ("stat", 256, 5.0),
)

# replicas of one simulator query: one RNG block, about 1 s (packed) and
# 2 s (stationary) on one thread, so that a run holds many passes
SIM_REPS = 512
PACKED_LABEL = "packed t=5 samples"
TAIL_LABEL = "stationary t=2 a=0.25 tail"
ORACLE_DRAWS = 100_000
ORACLE_CHUNK = 10_000


@dataclass
class Verdict:
    failure: str | None = None                    # why the query failed
    problems: list = field(default_factory=list)  # outputs that are wrong
    stats: dict = field(default_factory=dict)     # accuracy figures


@dataclass
class Query:
    label: str
    call: Callable[[int], object]     # called with the pass index
    judge: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    queries: list
    probe: list = field(default_factory=list)    # untimed deep-tail queries
    # label -> the query's accepted results, in pass order -> (problems, stats)
    final_check: Callable[[dict], tuple] | None = None
    oracle_s: float = 0.0
    cal_calls: int = 1     # calibration kernel calls before each query


def failure_reason(log_survival, floor):
    """Why a determinant result cannot be vouched for, or None.

    The upper tail of the tagged particle obeys S(t) <= e^{-t r(a)} up to a
    prefactor below one, so -log S below t r(a) means the survival has been
    lost (in practice to the cancellation floor of 1 - det).
    """
    if not math.isfinite(log_survival):
        return "non-finite log_survival"
    if floor is not None and -log_survival < floor:
        return f"-log_survival {-log_survival:.4g} below t*r(a) = {floor:.4g}"
    return None


def point_label(ic, t, a):
    return f"{ic} t={t} a={a:g}"


def level_label(n, t, s):
    return f"n={n} t={t} s={s:.6g}"


def rate_floor(ic, t, a):
    if ic == "packed":
        return t * rates.rate_packed(a)
    if ic == "flat":
        return t * rates.rate_flat(a).rate
    return t * rates.rate_stat(a)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def point_specs():
    """(label, callable, t*r(a) floor) for the 51 grid queries, in order."""
    fns = {"packed": bmtails.prob_packed, "flat": bmtails.prob_flat,
           "stat": bmtails.prob_stat}
    specs = []
    for ic in POINT_STARTS:
        for t in POINT_TIMES:
            for a in POINT_AS:
                specs.append((point_label(ic, t, a), _bind(fns[ic], t, a),
                              rate_floor(ic, t, a)))
    # the density-rho formula tends to the stationary one as rho -> 1, whose
    # rate bounds it from below
    for rho in RHOS:
        specs.append((f"stat_rho t=4 a=1 rho={rho:g}",
                      _bind(bmtails.prob_stat_rho, 4, 1.0, rho),
                      rate_floor("stat", 4, 1.0)))
    return specs


def level_specs():
    """(label, callable, Gaussian oracle or None) for the det-levels sweep."""
    specs = []
    for t in (1, 4):
        for u in np.linspace(-3.0, 3.0, 25):
            s = float(u * np.sqrt(t))
            specs.append((level_label(1, t, s),
                          _bind(bmtails.prob_finite_n, 1, t, s), float(ndtr(u))))
    for s in np.linspace(-0.5, 6.5, 141):
        specs.append((level_label(5, 1, float(s)),
                      _bind(bmtails.prob_finite_n, 5, 1, float(s)), None))
    return specs


def _bind(fn, *args):
    return lambda k: fn(*args)


def _det_judge(floor, ref, oracle=None):
    def judge(res):
        v = Verdict(failure=failure_reason(res.log_survival, floor))
        if v.failure:
            return v
        if not 0.0 <= res.p <= 1.0:
            v.problems.append(f"p = {res.p!r} outside [0, 1]")
        if ref is None or not math.isfinite(ref["log_survival"]):
            v.problems.append("no certified reference recorded")
            return v
        dev_log = abs(res.log_survival - ref["log_survival"])
        dev_p = abs(res.p - ref["p"])
        v.stats["ref_dev"] = dev_log
        if dev_p > P_TOL or dev_log > LOG_TOL * max(1.0, abs(ref["log_survival"])):
            v.problems.append(
                f"differs from reference: |dp| {dev_p:.3e}, |dlogS| {dev_log:.3e}")
        if oracle is not None:
            err = abs(res.p - oracle)
            v.stats["oracle_err"] = err
            if err > ORACLE_TOL:
                v.problems.append(f"|p - Phi| {err:.3e} above {ORACLE_TOL:g}")
        return v
    return judge


def _probe_judge(floor):
    # no reference exists for results that were never certified
    return lambda res: Verdict(failure=failure_reason(res.log_survival, floor))


def det_points(reference):
    ref = reference["det-points"]
    deep = {point_label(*k) for k in DEEP_TAIL}
    timed, probe = [], []
    for label, call, floor in point_specs():
        if label in deep:
            probe.append(Query(label, call, _probe_judge(floor)))
        else:
            timed.append(Query(label, call, _det_judge(floor, ref.get(label))))

    def final_check(results):
        # verify check 10: the density-rho law approaches the stationary one
        base = results.get(point_label("stat", 4, 1.0))
        rho = [results.get(f"stat_rho t=4 a=1 rho={r:g}") for r in RHOS]
        if base is None or None in rho:
            return [], {}
        d = [abs(r[0].p - base[0].p) for r in rho]
        if not (d[0] > d[1] > d[2] and d[2] <= 5e-3):
            return [f"rho defects {d} not monotone to below 5e-3"], {}
        return [], {}

    return Workload("det-points", timed, probe, final_check)


def det_levels(reference):
    ref = reference["det-levels"]
    queries = [Query(label, call, _det_judge(None, ref.get(label), oracle))
               for label, call, oracle in level_specs()]
    n5 = [q.label for q in queries if q.label.startswith("n=5 ")]

    def final_check(results):
        ps = [results[label][0].p for label in n5 if label in results]
        drops = [lo - hi for lo, hi in zip(ps, ps[1:]) if hi < lo - 1e-9]
        return ([f"n=5 CDF decreases by up to {max(drops):.3e}"] if drops else []), {}

    return Workload("det-levels", queries, final_check=final_check)


def sim_seeds(seed, k):
    """Replica seeds of pass k's two simulator runs."""
    state = np.random.SeedSequence([seed, k]).generate_state(2, dtype=np.uint64)
    return tuple(int(x) for x in state)


def oracle_seed(seed):
    return int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])


def sim_configs(seed, k):
    """The two SimConfigs of pass k: packed t=5 and stationary t=2."""
    packed_seed, stat_seed = sim_seeds(seed, k)
    return (bmtails.SimConfig(ic="packed", t=5, reps=SIM_REPS, seed=packed_seed),
            bmtails.SimConfig(ic="stationary", t=2, reps=SIM_REPS, seed=stat_seed))


def sim_mc(seed):
    start = time.perf_counter()
    # drawn in chunks, so that the oracle does not set the peak memory
    chunk_seeds = np.random.SeedSequence(oracle_seed(seed)).generate_state(
        ORACLE_DRAWS // ORACLE_CHUNK, dtype=np.uint64)
    eig = np.concatenate([bmtails.gue_top_sample(5, 5.0, ORACLE_CHUNK, seed=int(c))
                          for c in chunk_seeds])
    eig_mean, eig_se = float(eig.mean()), float(eig.std(ddof=1) / np.sqrt(eig.size))
    tail_exact = 1.0 - bmtails.prob_stat(2, 0.25).p
    oracle_s = time.perf_counter() - start

    def judge_packed(batch):
        x = np.asarray(batch.values)
        v = Verdict()
        if x.shape != (SIM_REPS,) or not np.isfinite(x).all():
            v.problems.append(f"bad sample array, shape {x.shape}")
        return v

    def judge_tail(out):
        p_hat, se = out
        v = Verdict()
        if not (0.0 <= p_hat <= 1.0 and se > 0.0):
            v.problems.append(f"bad tail estimate {out!r}")
        return v

    def final_check(results):
        """Pool every accepted run of the pass loop and compare with the
        oracles; a gap beyond SIGMA_GATE standard errors is wrong."""
        problems, gaps = [], []
        batches = results.get(PACKED_LABEL, [])
        if batches:
            x = np.concatenate([np.asarray(b.values) for b in batches])
            se = float(x.std(ddof=1) / np.sqrt(x.size))
            gaps.append(((float(x.mean()) - eig_mean) / math.hypot(se, eig_se),
                         f"packed mean {x.mean():.4f} vs {eig_mean:.4f}"))
        tails = results.get(TAIL_LABEL, [])
        if tails:
            n = SIM_REPS * len(tails)
            p_hat = sum(p for p, _ in tails) / len(tails)
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
            gaps.append(((p_hat - tail_exact) / se,
                         f"stationary tail {p_hat:.4f} vs {tail_exact:.4f}"))
        for z, what in gaps:
            if abs(z) > SIGMA_GATE:
                problems.append(f"{what}: {z:+.2f} standard errors from the oracle")
        stats = {"gap_sigma": [z for z, _ in gaps]}
        if gaps:
            stats["bias_sigma"] = max(abs(z) for z, _ in gaps)
        return problems, stats

    def packed(k):
        return bmtails.simulate_samples(sim_configs(seed, k)[0])

    def tail(k):
        return bmtails.tail_estimate(sim_configs(seed, k)[1], 0.25)

    queries = [Query(PACKED_LABEL, packed, judge_packed),
               Query(TAIL_LABEL, tail, judge_tail)]
    # a simulator query lasts 1-2 s: average several kernel calls before it
    return Workload("sim-mc", queries, final_check=final_check,
                    oracle_s=oracle_s, cal_calls=4)



def build(name, seed, reference=None):
    if name == "sim-mc":
        return sim_mc(seed)
    reference = reference if reference is not None else load_reference()
    if name == "det-points":
        return det_points(reference)
    if name == "det-levels":
        return det_levels(reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("det-points", "det-levels", "sim-mc")

