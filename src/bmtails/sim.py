"""Monte Carlo simulation of Brownian particles with one-sided collisions.

The system is evolved by Euler-Maruyama: each step adds independent
Gaussian increments to every particle and then applies a running maximum
over the particle index,

    x_n <- max(x_n + dB_n, x_{n-1}),    in increasing n,

which is the exact discrete Skorokhod recursion for one-sided reflection
off the already-updated left neighbor.  Ordering therefore holds after
every step by construction.  Infinite systems (flat, stationary) are
truncated a configurable number of particles below the tagged index; a
particle m positions below the tagged one influences the upper tail only
through a Gaussian bridge of probability about e^{-(m+at)^2/2t}, so the
default window of 4t particles is far beyond anything measurable.

Replicas are split into fixed-size blocks, each with its own counter-based
generator spawned from the configured seed.  The block layout does not
depend on the worker count, so results are bit-identical whether the
blocks run sequentially or on a thread pool.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericFailure
from .rates import check_a

_BLOCK = 4096          # replicas per RNG stream
_CHECK_EVERY = 4096    # steps between finiteness sweeps

_ICS = ("packed", "flat", "stationary")


@dataclass(frozen=True)
class SimConfig:
    ic: str
    t: int
    dt: Optional[float] = None
    cutoff: Optional[int] = None
    reps: int = 1000
    seed: int = 0
    rho: float = 1.0

    def __post_init__(self):
        if self.ic not in _ICS:
            raise ValueError(f"ic must be one of {_ICS}, got {self.ic!r}")
        if self.t != int(self.t) or self.t < 1:
            raise ValueError("t must be a positive integer (the tagged index)")
        object.__setattr__(self, "t", int(self.t))
        if self.dt is None:
            object.__setattr__(self, "dt", 1e-4 * max(1, self.t))
        if not 0.0 < self.dt <= 1e-2:
            raise ValueError(f"dt must lie in (0, 1e-2], got {self.dt}")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", 4 * self.t)
        if self.ic != "packed" and self.cutoff < 1:
            raise ValueError("cutoff must be >= 1 for flat/stationary starts")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"density rho must lie in (0, 1], got {self.rho}")
        if self.ic != "stationary" and self.rho != 1.0:
            raise ValueError("rho is only meaningful for the stationary start")


@dataclass(frozen=True)
class SampleBatch:
    values: np.ndarray
    config: SimConfig
    elapsed: float


def _n_particles(cfg):
    if cfg.ic == "packed":
        return cfg.t                      # particles 1..t, the first one free
    if cfg.ic == "flat":
        return cfg.cutoff + 1             # particles t-cutoff..t
    return cfg.cutoff + cfg.t + 1         # particles -cutoff..t


def _initial_block(cfg, rng, nrep):
    cols = _n_particles(cfg)
    if cfg.ic == "packed":
        return np.zeros((nrep, cols))
    if cfg.ic == "flat":
        start = np.arange(cfg.t - cfg.cutoff, cfg.t + 1, dtype=float)
        return np.broadcast_to(start, (nrep, cols)).copy()
    left = rng.exponential(scale=1.0 / cfg.rho, size=(nrep, cfg.cutoff))
    right = rng.exponential(scale=1.0, size=(nrep, cfg.t))
    x = np.empty((nrep, cols))
    x[:, cfg.cutoff] = 0.0
    x[:, :cfg.cutoff] = -np.cumsum(left, axis=1)[:, ::-1]
    x[:, cfg.cutoff + 1:] = np.cumsum(right, axis=1)
    return x


def _evolve_block(cfg, seed_seq, nrep):
    """Final positions (nrep, particles) of one replica block."""
    rng = np.random.Generator(np.random.Philox(seed_seq))
    x = _initial_block(cfg, rng, nrep)
    n_steps = int(round(cfg.t / cfg.dt))
    root_dt = np.sqrt(cfg.t / n_steps)
    for step in range(n_steps):
        x += root_dt * rng.standard_normal(x.shape)
        np.maximum.accumulate(x, axis=1, out=x)
        if step % _CHECK_EVERY == 0 and not np.isfinite(x).all():
            raise NumericFailure(
                "simulation produced non-finite positions",
                hint=f"first detected at step {step} of {n_steps}",
            )
    if not np.isfinite(x).all():
        raise NumericFailure(
            "simulation produced non-finite positions",
            hint=f"detected at the final step ({n_steps})",
        )
    return x


def _worker_count():
    env = os.environ.get("BMTAILS_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _evolve(cfg):
    """Final positions for all replicas, deterministically ordered."""
    start = time.perf_counter()
    blocks = [
        min(_BLOCK, cfg.reps - i) for i in range(0, cfg.reps, _BLOCK)
    ]
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(blocks))
    workers = min(_worker_count(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda args: _evolve_block(cfg, *args), zip(seeds, blocks)
            ))
    else:
        parts = [_evolve_block(cfg, s, n) for s, n in zip(seeds, blocks)]
    return np.concatenate(parts, axis=0), time.perf_counter() - start


def simulate_samples(cfg):
    """Draws of the tagged particle position x_t(t)."""
    positions, elapsed = _evolve(cfg)
    return SampleBatch(values=positions[:, -1].copy(), config=cfg, elapsed=elapsed)


def gue_top_sample(n, t, count, seed=0):
    """Top eigenvalues of n x n Hermitian Gaussian matrices.

    Entries follow the convention pinned by the packed-system equivalence:
    real diagonal of variance t, complex off-diagonal entries of total
    variance t.  With A filled by iid standard complex Gaussians this is
    H = (A + A^dagger) sqrt(t)/2.
    """
    n = int(n)
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    t = float(t)
    if not np.isfinite(t) or t <= 0:
        raise ValueError(f"time parameter must be finite and > 0, got {t}")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    h = (a + a.conj().transpose(0, 2, 1)) * (np.sqrt(t) / 2.0)
    return np.linalg.eigvalsh(h)[:, -1]


def tail_estimate(cfg, a):
    """Empirical upper-tail probability P(x_t(t) >= 2t + at) with its error.

    With zero hits the estimate is 0 and the reported error is the
    one-sided 95% bound 3/reps (rule of three).
    """
    a = check_a(a)
    batch = simulate_samples(cfg)
    level = 2.0 * cfg.t + a * cfg.t
    hits = int(np.count_nonzero(batch.values >= level))
    p_hat = hits / cfg.reps
    if hits == 0:
        return 0.0, 3.0 / cfg.reps
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / cfg.reps))


def stationary_gap_check(cfg):
    """Gap statistics of the stationary system inside the window.

    The Kolmogorov-Smirnov statistic is computed from one designated gap
    per replica (the central one), which keeps the tested sample iid; the
    mean is taken over the middle third of the window, with its standard
    error from per-replica means.
    """
    from scipy import stats

    if cfg.ic != "stationary" or cfg.rho != 1.0:
        raise ValueError("gap check requires the unit-density stationary start")
    cols = _n_particles(cfg)
    lo, hi = cols // 3, 2 * cols // 3
    if hi - lo < 2:
        raise ValueError("truncation window too small for a middle-third gap study")
    # the missing pushers below the window bias gaps near the left edge, and
    # the bias front travels right at about 2.5 gaps per unit time; demand
    # the examined indices clear it with margin (cutoff = 8t is enough)
    if lo < 3 * cfg.t:
        raise ValueError(
            f"truncation window too small: middle third starts at gap {lo} "
            f"but left-edge effects reach past gap {int(2.5 * cfg.t)} by time "
            f"{cfg.t}; raise cutoff to at least 8t"
        )
    positions, _ = _evolve(cfg)
    mid = cols // 2
    designated = positions[:, mid] - positions[:, mid - 1]
    ks_stat, ks_pvalue = stats.kstest(designated, "expon")
    middle = np.diff(positions[:, lo:hi], axis=1)
    rep_means = middle.mean(axis=1)
    return {
        "ks_stat": float(ks_stat),
        "ks_pvalue": float(ks_pvalue),
        "mean_gap": float(rep_means.mean()),
        "mean_gap_stderr": float(rep_means.std(ddof=1) / np.sqrt(len(rep_means))),
        "designated_index": mid,
        "reps": cfg.reps,
    }
