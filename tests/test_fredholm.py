import logging
import types

import numpy as np
import pytest
from scipy.stats import norm

from bmtails import fredholm, kernels
from bmtails.errors import NumericFailure


# frozen oracle values: largest-eigenvalue distribution of the n x n
# Gaussian Hermitian ensemble with entry variance t, computed from the
# incomplete-moment Hankel determinant at 30 significant digits
GUE_CDF = {
    (2, 1.0, 0.0): 0.090845056908104664,
    (2, 1.0, 2.5): 0.94376334893927844,
    (3, 1.0, 1.0): 0.12275669329426087,
    (3, 1.0, 4.0): 0.99481944940165223,
    (5, 1.0, 2.5): 0.21626343233881375,
    (5, 5.0, 10.0): 0.97239131094844966,
    (4, 4.0, 12.0): 0.99999159310767407,
    (4, 4.0, 10.0): 0.99914398987347632,
}


def test_build_grid_shape_and_rule():
    g = fredholm.build_grid(1.5, 2.0, 32)
    assert g.size == 32 and g.nodes.shape == (32,) and g.weights.shape == (32,)
    assert g.nodes[0] > 1.5
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    # integrates e^{-d(x-s)} to 1/d at spectral accuracy
    val = np.sum(g.weights * np.exp(-2.0 * (g.nodes - 1.5)))
    np.testing.assert_allclose(val, 0.5, rtol=1e-12)


def test_build_grid_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        fredholm.build_grid(0.0, 1.0, 4)


@pytest.mark.parametrize("s, decay", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan)])
def test_build_grid_rejects_non_finite_nodes(s, decay):
    with pytest.raises(ValueError, match="finite"):
        fredholm.build_grid(s, decay, 16)


def test_quad_grid_rejects_non_finite_weights():
    g = fredholm.build_grid(0.0, 1.0, 8)
    weights = g.weights.copy()
    weights[-1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fredholm.QuadGrid(nodes=g.nodes, weights=weights, size=8)


def test_prob_packed_rejects_non_finite_offset():
    with pytest.raises(ValueError, match="finite"):
        fredholm.prob_packed(4, 1.0, s_offset=np.nan)


def test_det_core_rank_one_exact():
    # kernel u(x)v(y) has det(1 - K) = 1 - <u, v>
    grid = fredholm.build_grid(0.0, 1.0, 48)
    x = grid.nodes
    kmat = 0.3 * np.exp(-x)[:, None] * np.exp(-2.0 * x)[None, :]
    det = fredholm._det_core(kmat, grid.weights)[0]
    np.testing.assert_allclose(det, 1.0 - 0.3 * (1.0 / 3.0), rtol=1e-10)


def test_det_core_zero_kernel_is_one():
    grid = fredholm.build_grid(0.0, 1.0, 16)
    det = fredholm._det_core(np.zeros((16, 16)), grid.weights)[0]
    assert det == 1.0


def test_det_core_rank_one_deep_survival():
    # the rank-one kernel scaled to survival 1e-12, far below what 1 - det
    # from LU resolves; the trace series keeps its relative precision
    grid = fredholm.build_grid(0.0, 1.0, 48)
    x = grid.nodes
    scale = 3e-12
    kmat = scale * np.exp(-x)[:, None] * np.exp(-2.0 * x)[None, :]
    log_survival = fredholm._det_core(kmat, grid.weights)[1]
    np.testing.assert_allclose(log_survival, np.log(scale / 3.0), rtol=1e-12)


def _eigen_log_survival(m):
    """log(1 - det(I - M)) from the eigenvalue sum sum_i log(1 - lambda_i)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        logdet = mpmath.fsum(mpmath.log(1 - mpmath.mpc(lam)) for lam in np.linalg.eigvals(m))
        return float(mpmath.log(-mpmath.expm1(mpmath.re(logdet))))


@pytest.mark.parametrize("survival, route", [(0.5, "lu"), (1e-3, "series"), (1e-10, "series")])
def test_det_core_routes_match_eigenvalue_sum(caplog, survival, route):
    # a non-normal complex kernel with a real positive spectrum: M = c V D V^-1
    rng = np.random.default_rng(11)
    size = 24
    v = np.eye(size) + 0.2 * (rng.standard_normal((size, size))
                              + 1j * rng.standard_normal((size, size)))
    d = rng.uniform(0.0, 1.0, size)
    # sum log(1 - c d) = log(1 - survival) to first order in c d
    c = -np.log1p(-survival) / d.sum()
    m = c * (v * d) @ np.linalg.inv(v)
    weights = fredholm.build_grid(0.0, 1.0, size).weights
    kmat = m / np.sqrt(np.outer(weights, weights))
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        log_survival = fredholm._det_core(kmat, weights)[1]
    np.testing.assert_allclose(log_survival, np.log(survival), rtol=0.1)
    np.testing.assert_allclose(log_survival, _eigen_log_survival(m), rtol=1e-12)
    assert f"order {size}: route {route}," in caplog.records[-1].getMessage()


def test_det_core_small_survival_with_large_norm_raises():
    # det(I - M) = 1, so the survival is 0, but ||M||_F = 2 rules out the series
    with pytest.raises(NumericFailure, match="no convergent trace series") as info:
        fredholm._det_core(np.array([[0.0, 2.0], [0.0, 0.0]]), np.ones(2))
    assert "||M||_F = 2" in info.value.hint
    # a determinant of 1.1 is 0.1 from 1 and stays with LU whatever the norm
    det = fredholm._det_core(np.array([[0.0, 2.0], [0.0, -0.1]]), np.ones(2))[0]
    assert det == pytest.approx(1.1, rel=1e-15)


def test_det_core_logs_each_route(caplog):
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        fredholm.prob_packed(4, 1.0)
        fredholm.prob_packed(1, 0.25)
    lines = [r.getMessage() for r in caplog.records if r.funcName == "_det_core"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert lines[0].startswith("determinant of order 48: route series, 5 series terms, ||M||_F ")
    assert lines[-1].startswith("determinant of order 96: route lu, 0 series terms, ||M||_F ")
    assert len(lines) == 4


def test_packed_short_time_residue_still_raises():
    # a known fault: at t <= 0.9 the packed determinant's imaginary residue
    # (1.8e-6 here) exceeds the gate on either determinant route, and the
    # hint names the largest grid the refinement reached
    with pytest.raises(NumericFailure, match="imaginary residue") as info:
        fredholm.prob_packed(0.5, 0.5)
    assert "grid size 384" in info.value.hint


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.5])
def test_free_particle_is_gaussian(s):
    res = fredholm.prob_finite_n(1, 1, s)
    np.testing.assert_allclose(res.p, norm.cdf(s), atol=1e-9)
    assert res.refinement_delta <= 1e-9


def test_packed_t1_is_gaussian():
    for a in (0.5, 1.0, 2.0):
        res = fredholm.prob_packed(1, a)
        np.testing.assert_allclose(res.p, norm.cdf(2.0 + a), atol=1e-9)


@pytest.mark.parametrize("key", sorted(GUE_CDF))
def test_finite_n_matches_gue_oracle(key):
    n, t, s = key
    res = fredholm.prob_finite_n(n, int(t) if float(t).is_integer() else t, s)
    np.testing.assert_allclose(res.p, GUE_CDF[key], atol=5e-11)


def _hermite_gram_cdf(n, t, s):
    """P(x_n(t) <= s) as det(I - G) at 40 digits, independent of bmtails.

    The top eigenvalue of the n x n Gaussian Hermitian ensemble with entry
    variance t; with u0 = s / sqrt(2t) and the Hermite functions
    phi_k = H_k e^{-u^2/2} / sqrt(2^k k! sqrt(pi)), G_jk is the integral of
    phi_j phi_k over (u0, infinity).  It is a combination of the moments
    I_m = int_{u0}^inf u^m e^{-u^2} du, which obey
    I_m = u0^{m-1} e^{-u0^2} / 2 + (m - 1) I_{m-2} / 2.
    """
    mpmath = pytest.importorskip("mpmath")
    herm = [[1], [0, 2]]  # integer coefficients of H_k, lowest power first
    for k in range(1, n - 1):
        nxt = [0] + [2 * c for c in herm[k]]
        for i, c in enumerate(herm[k - 1]):
            nxt[i] -= 2 * k * c
        herm.append(nxt)
    with mpmath.workdps(40):
        u0 = mpmath.mpf(s) / mpmath.sqrt(2 * mpmath.mpf(t))
        gauss = mpmath.exp(-u0 * u0)
        mom = [mpmath.sqrt(mpmath.pi) * mpmath.erfc(u0) / 2, gauss / 2]
        for m in range(2, 2 * n - 1):
            mom.append(u0 ** (m - 1) * gauss / 2 + (m - 1) * mom[m - 2] / 2)
        norm_k = [1 / mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
                  for k in range(n)]
        mat = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                g = sum(cj * ck * mom[a + b]
                        for a, cj in enumerate(herm[j]) for b, ck in enumerate(herm[k]))
                mat[j, k] = (j == k) - norm_k[j] * norm_k[k] * g
        return float(mpmath.det(mat))


def test_hermite_gram_oracle_reproduces_known_values():
    np.testing.assert_allclose(_hermite_gram_cdf(1, 4.0, 1.0), norm.cdf(0.5), rtol=1e-15)
    assert _hermite_gram_cdf(5, 1.0, 2.5) == pytest.approx(GUE_CDF[(5, 1.0, 2.5)], abs=1e-16)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("t", [1.0, 4.0])
def test_finite_n_matches_hermite_gram_oracle(n, t):
    # bulk levels, as fractions of the edge 2 sqrt(n t)
    edge = 2.0 * np.sqrt(n * t)
    for frac in (-0.2, 0.0, 0.25, 0.5, 0.75):
        s = frac * edge
        assert abs(fredholm.prob_finite_n(n, t, s).p - _hermite_gram_cdf(n, t, s)) <= 1e-13


@pytest.mark.parametrize("s", [-0.5, -0.35, -0.1])
def test_finite_n_bulk_imaginary_residue(s):
    # the levels where the line's phase factors carry the most cancellation
    assert fredholm.prob_finite_n(5, 1, s).im_residue <= 2e-9


def test_prob_packed_matches_gue_oracle_through_saddle_route():
    """Saddle-frame contours against the raw-level oracle, independent paths."""
    res = fredholm.prob_packed(4, 1.0)
    np.testing.assert_allclose(res.p, GUE_CDF[(4, 4.0, 12.0)], atol=1e-11)
    res = fredholm.prob_packed(4, 0.5)
    np.testing.assert_allclose(res.p, GUE_CDF[(4, 4.0, 10.0)], atol=1e-11)


def test_prob_monotone_in_level():
    for fn in (fredholm.prob_packed, fredholm.prob_flat):
        ps = [fn(4, 1.0, s_offset=s).p for s in (-1.0, 0.0, 1.0, 2.0)]
        assert all(np.diff(ps) > 0)


def test_survival_log_consistency():
    res = fredholm.prob_packed(8, 1.0)
    # log_survival carries full relative precision even when p rounds to 1
    assert res.p > 1.0 - 1e-7
    assert -30.0 < res.log_survival < -10.0
    np.testing.assert_allclose(np.exp(res.log_survival), 1.0 - res.p, rtol=1e-4)


def test_refinement_delta_below_target():
    for fn in (fredholm.prob_packed, fredholm.prob_flat):
        res = fn(4, 1.0)
        assert res.refinement_delta <= 1e-9
        assert res.im_residue <= 1e-8


def test_prob_stat_value_and_stability():
    base = fredholm.prob_stat(4, 1.0)
    again = fredholm.prob_stat(4, 1.0, grid_size=64)
    assert abs(base.p - again.p) < 1e-8
    assert 0.9 < base.p < 1.0


def test_prob_stat_rho_approaches_rho_one():
    base = fredholm.prob_stat(4, 1.0).p
    gaps = []
    for rho in (0.9, 0.95, 0.99):
        gaps.append(abs(fredholm.prob_stat_rho(4, 1.0, rho).p - base))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 5e-3


def test_prob_stat_rho_validates_rho():
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(ValueError):
            fredholm.prob_stat_rho(4, 1.0, bad)


@pytest.mark.parametrize("fn, args", [
    (fredholm.prob_stat, (4, 1.0)),
    (fredholm.prob_stat_rho, (4, 1.0, 0.9)),
])
def test_stationary_step_validation(fn, args):
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError, match="h must be positive"):
            fn(*args, h=bad)
    # steps this small drown the difference quotient in roundoff, so the
    # h and h/2 estimates disagree
    with pytest.raises(NumericFailure):
        fn(*args, h=1e-12)


# (p, log_survival, final grid size) of each entry point, far tighter than
# the oracle tests, so a change in the shared refinement driver shows
FROZEN = {
    "packed": (fredholm.prob_packed, (4, 1),
               0.999991593107674, -11.68645867356229, 96),
    "flat": (fredholm.prob_flat, (4, 1),
             0.9996857475080847, -8.065313780802915, 96),
    "stat": (fredholm.prob_stat, (4, 1),
             0.9818641748033782, -4.009866004298115, 96),
    "stat_rho": (fredholm.prob_stat_rho, (4, 1, 0.9),
                 0.9827584903282919, -4.060435449615932, 96),
    "finite_n": (fredholm.prob_finite_n, (5, 1, 2.5),
                 0.21626343233881246, -0.2436823257321921, 128),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_entry_points_reproduce_frozen_values(name):
    fn, args, p, log_survival, size = FROZEN[name]
    res = fn(*args)
    np.testing.assert_allclose(res.p, p, rtol=0, atol=1e-14)
    np.testing.assert_allclose(res.log_survival, log_survival, rtol=1e-12)
    assert res.grid.size == size


@pytest.mark.parametrize("fn, args", [
    (fredholm.prob_stat, (4, 1.0)),
    (fredholm.prob_stat_rho, (4, 1.0, 0.9)),
])
def test_stationary_grid_size_forms_one_cauchy_matrix(monkeypatch, fn, args):
    # 1/(w - z) does not depend on the level, so each grid size forms it once
    # and all of its finite-difference levels share it
    outers, sizes = [], []

    def outer(w, z):
        outers.append(1)
        return np.subtract.outer(w, z)

    class CountingNumpy:
        subtract = types.SimpleNamespace(outer=outer)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(kernels, "np", CountingNumpy())
    stat_components = fredholm.stat_components

    def spy(a, t, s, factors, nodes):
        sizes.append(len(nodes))
        return stat_components(a, t, s, factors, nodes)

    monkeypatch.setattr(fredholm, "stat_components", spy)
    fn(*args)
    assert len(sizes) > len(set(sizes)) > 0
    assert len(outers) == len(set(sizes))


@pytest.mark.parametrize("fn, args, size, top", [
    (fredholm.prob_packed, (4, 1.0), 256, 192),
    (fredholm.prob_flat, (4, 1.0), 193, 192),
    (fredholm.prob_packed, (4, 1.0), 7, 192),
    (fredholm.prob_stat, (4, 1.0), 97, 96),
    (fredholm.prob_stat_rho, (4, 1.0, 0.9), 128, 96),
])
def test_grid_size_outside_the_refined_range_raises(fn, args, size, top):
    # a first grid above half the largest one would be returned unrefined
    with pytest.raises(ValueError, match=rf"grid_size must lie in \[8, {top}\], got {size}"):
        fn(*args, grid_size=size)


def test_largest_first_grid_size_is_refined_once():
    res = fredholm.prob_packed(4, 1.0, grid_size=192)
    assert res.grid.size == 384
    assert res.refinement_delta < 1e-9


def test_solve_logs_each_grid_size(caplog):
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        res = fredholm.prob_packed(4, 1.0)
    records = [r for r in caplog.records
               if r.name == "bmtails.fredholm" and r.funcName == "_solve"]
    assert all(r.levelno == logging.DEBUG for r in records)
    lines = [r.getMessage() for r in records]
    assert len(lines) == 2 and res.grid.size == 96
    assert lines[0].startswith("prob_packed: grid size 48, p ")
    assert "delta inf" in lines[0]
    assert lines[1].startswith(f"prob_packed: grid size 96, p {res.p:.17g},")
    assert f"log_survival {res.log_survival:.17g}," in lines[1]
    assert f"delta {res.refinement_delta:.3e}, im residue {res.im_residue:.3e}" in lines[1]


@pytest.mark.parametrize("n, t, s", [
    (5, 1.0, -2.236068), (5, 1.0, -1.788854), (5, 4.0, -4.472136), (5, 4.0, -3.577709),
])
def test_finite_n_deep_lower_tail_names_the_resolution(n, t, s):
    # the Hermite Gram oracle gives p = 4.3e-19 and 5.6e-16 here; a denser
    # contour cannot resolve them, and the hint must not suggest one
    with pytest.raises(NumericFailure, match="imaginary residue") as info:
        fredholm.prob_finite_n(n, t, s)
    assert 0.0 < info.value.last < 1e-15
    assert "below what the determinant resolves" in info.value.hint
    assert "contour density" not in info.value.hint


def test_tail_rate_table_columns_and_trend():
    rows = fredholm.tail_rate_table("packed", 1.0, (4, 8, 16))
    assert [row["t"] for row in rows] == [4, 8, 16]
    errs = [abs(row["r_hat"] - row["r_exact"]) for row in rows]
    assert errs[0] > errs[1] > errs[2]
    scaled = [row["scaled_survival"] for row in rows]
    assert all(v > 0 for v in scaled)
    with pytest.raises(ValueError):
        fredholm.tail_rate_table("stationary", 1.0, (4, 8))
    with pytest.raises(ValueError):
        fredholm.tail_rate_table("packed", 1.0, (8, 4))


def _unit_pairing_det(scale):
    # projection onto one decaying mode: det(1 - K) = 1 - scale exactly; the
    # stub hands that determinant to _solve as its probability
    def evaluate(size, _scale):
        grid = fredholm.build_grid(0.0, 1.0, size)
        kmat = scale * np.exp(-grid.nodes)[None, :] * np.ones((size, 1))
        return fredholm._det_core(kmat, grid.weights), grid

    return fredholm._solve("unit pairing", evaluate, 48, 96)


def test_clamp_negative_roundoff(caplog):
    with caplog.at_level(logging.WARNING, logger="bmtails.fredholm"):
        res = _unit_pairing_det(1.0 + 1e-12)
    assert res.p == 0.0
    assert any("clamping" in rec.getMessage() for rec in caplog.records)


def test_negative_determinant_far_outside_raises():
    with pytest.raises(NumericFailure, match="far outside"):
        _unit_pairing_det(1.0 + 1e-6)


def test_build_grid_shares_a_read_only_rule():
    g1 = fredholm.build_grid(0.0, 1.0, 32)
    g2 = fredholm.build_grid(2.0, 0.5, 32)
    x1, w1 = fredholm._gauss_legendre(32)
    assert fredholm._gauss_legendre(32)[0] is x1
    assert not x1.flags.writeable and not w1.flags.writeable
    with pytest.raises(ValueError):
        x1[0] = 0.0
    np.testing.assert_array_equal(g1.nodes, -np.log1p(-0.5 * (x1 + 1.0)))
    assert g2.nodes.flags.writeable


def test_prob_finite_n_validates_index():
    with pytest.raises(ValueError):
        fredholm.prob_finite_n(0, 1, 0.0)
    for t in (np.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="time parameter"):
            fredholm.prob_finite_n(1, t, 0.0)
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError, match="level s must be finite"):
            fredholm.prob_finite_n(1, 1, s)


def test_prob_finite_n_overflow_guard():
    with pytest.raises(NumericFailure):
        fredholm.prob_finite_n(3, 1, 1e4)
