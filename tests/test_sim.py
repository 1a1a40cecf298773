import dataclasses

import numpy as np
import pytest
from scipy import stats

from bmtails import fredholm, sim

# replicas of the cross-checks that resolve the time-step bias
BIAS_REPS = 100_000

# mean of the top eigenvalue of the 2 x 2 Hermitian Gaussian ensemble with
# unit entry variance, from the explicit two-point eigenvalue density
TOP_EIG_MEAN_2 = 1.1283791670955126  # 2 / sqrt(pi)


def test_config_defaults():
    cfg = sim.SimConfig(ic="flat", t=3)
    assert cfg.dt == pytest.approx(3e-2)
    assert cfg.cutoff == 12
    assert cfg.rho == 1.0
    # the stationary start keeps particles 0..t; packed keeps none below 1
    stat = sim.SimConfig(ic="stationary", t=3)
    assert stat.cutoff == 0 and sim._n_particles(stat) == 4
    assert sim.SimConfig(ic="packed", t=3).cutoff == 0
    # the default step is capped at the largest accepted one
    assert sim.SimConfig(ic="packed", t=64).dt == 0.25
    assert sim.SimConfig(ic="packed", t=1, dt=0.25).dt == 0.25
    # integral floats are stored as the ints the simulator indexes with
    counts = sim.SimConfig(ic="flat", t=2.0, cutoff=3.0, reps=4.0, seed=5.0)
    assert [(type(v), v) for v in (counts.t, counts.cutoff, counts.reps, counts.seed)] == \
        [(int, 2), (int, 3), (int, 4), (int, 5)]


@pytest.mark.parametrize("kwargs", [
    dict(ic="wedge", t=1),
    dict(ic="packed", t=0),
    dict(ic="packed", t=1, dt=0.5),
    dict(ic="packed", t=1, dt=-1e-4),
    dict(ic="flat", t=1, cutoff=0),
    dict(ic="packed", t=1, reps=0),
    dict(ic="packed", t=1, seed=-1),
    dict(ic="packed", t=1, rho=0.5),
    dict(ic="stationary", t=1, rho=0.0),
    dict(ic="stationary", t=1, rho=1.2),
    dict(ic="packed", t=1, cutoff=-1),
    dict(ic="flat", t=1, cutoff=-1),
    dict(ic="stationary", t=1, cutoff=-1),
    dict(ic="packed", t=float("inf")),
    dict(ic="packed", t=2, reps=2.5),
    dict(ic="packed", t=2, seed=1.5),
    dict(ic="flat", t=2, cutoff=2.5),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        sim.SimConfig(**kwargs)


def test_config_is_frozen():
    cfg = sim.SimConfig(ic="packed", t=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.reps = 5


def test_same_seed_reproduces_bitwise():
    cfg = sim.SimConfig(ic="packed", t=1, dt=1e-2, reps=500, seed=42)
    a = sim.simulate_samples(cfg)
    b = sim.simulate_samples(cfg)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (500,)
    assert a.elapsed > 0


def test_different_seed_differs():
    base = dict(ic="packed", t=1, dt=1e-2, reps=500)
    a = sim.simulate_samples(sim.SimConfig(seed=1, **base))
    b = sim.simulate_samples(sim.SimConfig(seed=2, **base))
    assert not np.array_equal(a.values, b.values)


def test_worker_count_does_not_change_values(monkeypatch):
    # three blocks (4096 + 4096 + 500), so the pool actually splits work
    cfg = sim.SimConfig(ic="packed", t=1, dt=1e-2, reps=8692, seed=7)
    monkeypatch.setenv("BMTAILS_WORKERS", "1")
    serial = sim.simulate_samples(cfg)
    monkeypatch.setenv("BMTAILS_WORKERS", "3")
    pooled = sim.simulate_samples(cfg)
    assert np.array_equal(serial.values, pooled.values)


def test_positions_stay_ordered():
    cfg = sim.SimConfig(ic="stationary", t=1, dt=1e-3, cutoff=4, reps=64, seed=3)
    positions, _ = sim._evolve(cfg)
    assert np.all(np.diff(positions, axis=1) >= 0)


def test_higher_start_dominates_pathwise():
    """Same noise, higher initial condition: the flat staircase start sits
    above the all-zero start, and one-sided pushing preserves that order
    for every particle in every replica."""
    packed = sim.SimConfig(ic="packed", t=3, dt=1e-3, reps=256, seed=11)
    flat = sim.SimConfig(ic="flat", t=3, dt=1e-3, cutoff=2, reps=256, seed=11)
    xp, _ = sim._evolve(packed)
    xf, _ = sim._evolve(flat)
    assert xp.shape == xf.shape
    assert np.all(xf >= xp)


def test_free_particle_is_standard_normal():
    cfg = sim.SimConfig(ic="packed", t=1, dt=1e-2, reps=4000, seed=5)
    batch = sim.simulate_samples(cfg)
    stat, pvalue = stats.kstest(batch.values, "norm")
    assert pvalue > 0.01


def test_gue_sampler_validates():
    with pytest.raises(ValueError):
        sim.gue_top_sample(0, 1, 10)
    for t in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sim.gue_top_sample(2, t, 10)
    with pytest.raises(ValueError):
        sim.gue_top_sample(2, 1, 0)


def test_gue_sampler_rejects_a_fractional_size():
    # 2.7 is not truncated to 2 x 2 matrices
    with pytest.raises(ValueError, match="integer"):
        sim.gue_top_sample(2.7, 1.0, 10)
    assert sim.gue_top_sample(2.0, 1.0, 3, seed=4).shape == (3,)


def test_gue_sampler_n1_is_gaussian():
    vals = sim.gue_top_sample(1, 4.0, 5000, seed=9)
    stat, pvalue = stats.kstest(vals, "norm", args=(0.0, 2.0))
    assert pvalue > 0.01


def test_gue_sampler_mean_2x2():
    vals = sim.gue_top_sample(2, 1.0, 20000, seed=1)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - TOP_EIG_MEAN_2) < 3 * se


def test_second_particle_matches_top_eigenvalue():
    cfg = sim.SimConfig(ic="packed", t=2, reps=2000, seed=8)
    batch = sim.simulate_samples(cfg)
    eigs = sim.gue_top_sample(2, 2.0, 4000, seed=21)
    stat, pvalue = stats.ks_2samp(batch.values, eigs)
    assert pvalue > 0.01


def test_step_size_halving_agrees():
    coarse = sim.SimConfig(ic="packed", t=2, dt=2e-3, reps=3000, seed=13)
    fine = sim.SimConfig(ic="packed", t=2, dt=1e-3, reps=3000, seed=14)
    a = sim.simulate_samples(coarse).values
    b = sim.simulate_samples(fine).values
    se = np.hypot(a.std(ddof=1) / np.sqrt(len(a)), b.std(ddof=1) / np.sqrt(len(b)))
    assert abs(a.mean() - b.mean()) < 3 * se


def test_cutoff_doubling_agrees():
    narrow = sim.SimConfig(ic="flat", t=2, dt=1e-3, cutoff=8, reps=2000, seed=17)
    wide = sim.SimConfig(ic="flat", t=2, dt=1e-3, cutoff=16, reps=2000, seed=18)
    a = sim.simulate_samples(narrow).values
    b = sim.simulate_samples(wide).values
    se = np.hypot(a.std(ddof=1) / np.sqrt(len(a)), b.std(ddof=1) / np.sqrt(len(b)))
    assert abs(a.mean() - b.mean()) < 3 * se


def test_initial_stationary_gaps_are_exponential():
    cfg = sim.SimConfig(ic="stationary", t=2, cutoff=6, reps=1, rho=0.5, seed=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    x = sim._initial_block(cfg, rng, 20000)
    assert x.shape == (20000, 9)
    assert np.all(np.diff(x, axis=1) > 0)
    # tagged reference particle pinned at the origin
    assert np.all(x[:, cfg.cutoff] == 0.0)
    left = np.diff(x[:, : cfg.cutoff + 1], axis=1).ravel()
    right = np.diff(x[:, cfg.cutoff:], axis=1).ravel()
    assert abs(left.mean() - 2.0) < 3 * left.std(ddof=1) / np.sqrt(left.size)
    assert abs(right.mean() - 1.0) < 3 * right.std(ddof=1) / np.sqrt(right.size)


def test_gap_check_requires_stationary():
    cfg = sim.SimConfig(ic="flat", t=1, reps=10)
    with pytest.raises(ValueError):
        sim.stationary_gap_check(cfg)


def test_gap_check_statistics():
    cfg = sim.SimConfig(ic="stationary", t=1, dt=1e-3, cutoff=12, reps=600,
                        seed=29)
    out = sim.stationary_gap_check(cfg)
    assert out["reps"] == 600
    assert out["designated_index"] == 7
    assert out["ks_pvalue"] > 0.01
    assert abs(out["mean_gap"] - 1.0) < max(4 * out["mean_gap_stderr"], 0.05)


def test_tail_estimate_zero_hits_rule_of_three():
    cfg = sim.SimConfig(ic="packed", t=1, dt=1e-2, reps=100, seed=2)
    p_hat, err = sim.tail_estimate(cfg, 8.0)
    assert p_hat == 0.0
    assert err == pytest.approx(0.03)


def test_tail_estimate_validates_a():
    cfg = sim.SimConfig(ic="packed", t=1, reps=10)
    for a in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sim.tail_estimate(cfg, a)


def test_tail_estimate_matches_determinant():
    cfg = sim.SimConfig(ic="packed", t=2, dt=1e-3, reps=20000, seed=19)
    p_hat, stderr = sim.tail_estimate(cfg, 0.4)
    exact = 1.0 - fredholm.prob_packed(2, 0.4).p
    assert stderr > 0
    assert abs(p_hat - exact) < 3 * stderr


# Cross-checks at the default step, with enough replicas to expose an
# O(sqrt(dt)) bias: an Euler step with the maximum taken only at the grid
# times reads the packed t = 5 mean 0.09 low even at dt = 5e-4.

def test_packed_mean_matches_top_eigenvalue_at_default_step():
    cfg = sim.SimConfig(ic="packed", t=5, reps=BIAS_REPS, seed=31)
    x = sim.simulate_samples(cfg).values
    eigs = np.concatenate([sim.gue_top_sample(5, 5.0, BIAS_REPS // 10, seed=32 + k)
                           for k in range(10)])
    se = np.hypot(x.std(ddof=1) / np.sqrt(x.size), eigs.std(ddof=1) / np.sqrt(eigs.size))
    assert abs(x.mean() - eigs.mean()) < 3 * se


def test_flat_tail_matches_determinant_at_default_step():
    # an Euler step at dt = 2e-4 reads this tail about 0.003 low, which
    # BIAS_REPS replicas do not resolve
    cfg = sim.SimConfig(ic="flat", t=2, reps=4 * BIAS_REPS, seed=33)
    p_hat, stderr = sim.tail_estimate(cfg, 0.25)
    exact = 1.0 - fredholm.prob_flat(2, 0.25).p
    assert abs(p_hat - exact) < 3 * stderr


def test_second_particle_mean_exact_at_coarsest_step():
    """The bridge step is exact when the left neighbour moves freely, so
    x_2(t) of the packed start, the top eigenvalue of a 2 x 2 matrix with
    mean 2 sqrt(t/pi), needs no small step."""
    cfg = sim.SimConfig(ic="packed", t=2, dt=0.25, reps=BIAS_REPS, seed=34)
    x = sim.simulate_samples(cfg).values
    se = x.std(ddof=1) / np.sqrt(x.size)
    assert abs(x.mean() - TOP_EIG_MEAN_2 * np.sqrt(2.0)) < 3 * se


# The stationary start keeps particles 0..t and drives particle 0 as a free
# Brownian motion with drift rho, which by Burke's theorem it is in the
# half-infinite system.  4e5 replicas resolve the loss of a truncation to
# particles -4t..t with a driftless lowest one, 0.005 on the t = 2 tail (6.8
# standard errors).

def test_stationary_tail_matches_determinant_at_default_step():
    cfg = sim.SimConfig(ic="stationary", t=2, reps=4 * BIAS_REPS, seed=35)
    p_hat, stderr = sim.tail_estimate(cfg, 0.25)
    exact = 1.0 - fredholm.prob_stat(2, 0.25).p
    assert abs(p_hat - exact) < 3 * stderr


def test_density_rho_tail_matches_determinant_at_default_step():
    cfg = sim.SimConfig(ic="stationary", t=4, reps=4 * BIAS_REPS, seed=36, rho=0.9)
    p_hat, stderr = sim.tail_estimate(cfg, 1.0)
    exact = 1.0 - fredholm.prob_stat_rho(4, 1.0, 0.9).p
    assert abs(p_hat - exact) < 3 * stderr


@pytest.mark.parametrize("t", [4, 16])
def test_stationary_tagged_increment_is_drifted_gaussian(t):
    """At unit density every particle of the stationary system is a
    Brownian motion with drift 1, so x_t(t) - x_t(0) is N(t, t).  Particle t
    is pushed, so this tests the bridge step where it is not exact."""
    cfg = sim.SimConfig(ic="stationary", t=t, dt=0.25, reps=BIAS_REPS, seed=37)
    final, _ = sim._evolve(cfg)
    # _evolve_block draws each block's initial positions first from its own
    # Philox stream, so the same streams rebuild them
    sizes = [min(sim._BLOCK, cfg.reps - i) for i in range(0, cfg.reps, sim._BLOCK)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    start = np.concatenate([
        sim._initial_block(cfg, np.random.Generator(np.random.Philox(s)), n)
        for s, n in zip(seeds, sizes)])
    inc = final[:, -1] - start[:, -1]
    n = inc.size
    assert abs(inc.mean() - t) < 3 * np.sqrt(t / n)
    assert abs(inc.var(ddof=1) - t) < 3 * t * np.sqrt(2.0 / (n - 1))
