import logging
import re
import sys
import types

import numpy as np
import pytest
from scipy.stats import norm

from bmtails import contours, fredholm, kernels, rates
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
    nodes, weights = fredholm.build_grid(1.5, 2.0, 32)
    assert nodes.shape == (32,) and weights.shape == (32,)
    assert nodes[0] > 1.5
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    # integrates e^{-d(x-s)} to 1/d at spectral accuracy
    val = np.sum(weights * np.exp(-2.0 * (nodes - 1.5)))
    np.testing.assert_allclose(val, 0.5, rtol=1e-12)


def test_build_grid_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        fredholm.build_grid(0.0, 1.0, 4)


@pytest.mark.parametrize("s, decay", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)])
def test_build_grid_rejects_non_finite_nodes(s, decay):
    # an infinite rate would collapse every node onto s
    name = "nodes" if np.isfinite(decay) else "decay_rate"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fredholm.build_grid(s, decay, 16)


def test_det_core_rank_one_exact():
    # kernel u(x)v(y) has det(1 - K) = 1 - <u, v>
    x, weights = fredholm.build_grid(0.0, 1.0, 48)
    kmat = 0.3 * np.exp(-x)[:, None] * np.exp(-2.0 * x)[None, :]
    det = fredholm._det_core(kmat, weights)[0]
    np.testing.assert_allclose(det, 1.0 - 0.3 * (1.0 / 3.0), rtol=1e-10)


def test_det_core_zero_kernel_is_one():
    weights = fredholm.build_grid(0.0, 1.0, 16)[1]
    det = fredholm._det_core(np.zeros((16, 16)), weights)[0]
    assert det == 1.0


def test_det_core_rank_one_deep_survival():
    # the rank-one kernel scaled to survival 1e-12, far below what 1 - det
    # from LU resolves; the trace series keeps its relative precision
    x, weights = fredholm.build_grid(0.0, 1.0, 48)
    scale = 3e-12
    kmat = scale * np.exp(-x)[:, None] * np.exp(-2.0 * x)[None, :]
    log_survival = fredholm._det_core(kmat, weights)[1]
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
    weights = fredholm.build_grid(0.0, 1.0, size)[1]
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
        fredholm.prob_flat(4, 1.0)
        fredholm.prob_flat(1, 0.25)
        fredholm.prob_packed(64, 1.0)
        fredholm.prob_flat(16, 2.0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("determinant")]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    # the series stops once its proven tail is below 1e-17 |log det|; each
    # rung solves its fine grid, then its sub-rule's grid of half the size
    assert lines[0].startswith("determinant of order 96: route series, 5 series terms, ||M||_F ")
    assert lines[1].startswith("determinant of order 48: route series, 5 series terms, ||M||_F ")
    assert lines[4].startswith("determinant of order 192: route lu, 0 series terms, ||M||_F ")
    # the trace route gives its proven relative error: the packed Gram and
    # its sub-rule's on one rung, and the flat trace, with no matrix, on the
    # x2 spiral that decides its route and on that spiral's sub-rule
    assert len(lines) == 10
    assert all(line.startswith("determinant of order 22: route trace, relative error at most ")
               for line in lines[6:8])
    assert all(line.startswith("determinant of order 0: route trace, relative error at most ")
               for line in lines[8:])


@pytest.mark.parametrize("fn, extra", [
    (fredholm.prob_packed, ()),
    (fredholm.prob_stat, ()),
    (fredholm.prob_stat_rho, (0.9,)),
])
@pytest.mark.parametrize("t, a", [(0.5, 0.5), (4.5, 1.0)])
def test_packed_phase_needs_whole_number_time(fn, extra, t, a):
    # (-w)^t and (-z)^{-t} have a branch cut that the circle around 0
    # crosses at non-integer t, where the kernel depends on the radius
    with pytest.raises(ValueError, match="whole-number time"):
        fn(t, a, *extra)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.5])
def test_free_particle_is_gaussian(s):
    res = fredholm.prob_finite_n(1, 1, s)
    np.testing.assert_allclose(res.p, norm.cdf(s), atol=1e-9)
    assert res.refinement_delta <= 1e-9


def test_packed_t1_is_gaussian():
    for a in (0.5, 1.0, 2.0):
        res = fredholm.prob_packed(1, a)
        np.testing.assert_allclose(res.p, norm.cdf(2.0 + a), atol=1e-9)
    # deep in the tail too, where p rounds to 1 (e^-75 and e^-516)
    for a in (10.0, 30.0):
        res = fredholm.prob_packed(1, a)
        np.testing.assert_allclose(res.log_survival, norm.logsf(2.0 + a), rtol=1e-12)


@pytest.mark.parametrize("key", sorted(GUE_CDF))
def test_finite_n_matches_gue_oracle(key):
    n, t, s = key
    res = fredholm.prob_finite_n(n, int(t) if float(t).is_integer() else t, s)
    np.testing.assert_allclose(res.p, GUE_CDF[key], atol=5e-11)


def _hermite_gram(n, t, s, digits):
    """(P(x_n(t) <= s), log P(x_n(t) > s)) as det(I - G) at the given digits.

    Independent of bmtails.  The top eigenvalue of the n x n Gaussian
    Hermitian ensemble with entry variance t; with u0 = s / sqrt(2t) and the
    Hermite functions phi_k = H_k e^{-u^2/2} / sqrt(2^k k! sqrt(pi)), G_jk is
    the integral of phi_j phi_k over (u0, infinity).  It is a combination of
    the moments I_m = int_{u0}^inf u^m e^{-u^2} du, which obey
    I_m = u0^{m-1} e^{-u0^2} / 2 + (m - 1) I_{m-2} / 2.  1 - det loses as
    many digits as the survival has leading zeros.
    """
    mpmath = pytest.importorskip("mpmath")
    herm = [[1], [0, 2]]  # integer coefficients of H_k, lowest power first
    for k in range(1, n - 1):
        nxt = [0] + [2 * c for c in herm[k]]
        for i, c in enumerate(herm[k - 1]):
            nxt[i] -= 2 * k * c
        herm.append(nxt)
    with mpmath.workdps(digits):
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
        det = mpmath.det(mat)
        return float(det), float(mpmath.log(1 - det))


def _hermite_gram_cdf(n, t, s):
    """P(x_n(t) <= s) from :func:`_hermite_gram` at 40 digits."""
    return _hermite_gram(n, t, s, 40)[0]


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


# packed log_survival at (t, a): the level (2 + a) t of particle t, from
# _hermite_gram at 120 digits, which 160 digits reproduce to 25 digits
HERMITE_LOG_SURVIVAL = {
    (4, 5.0): -87.504869401152498,
    (8, 3.0): -75.114943780523794,
    (16, 3.0): -142.36703623128627,
}


@pytest.mark.parametrize("t, a", sorted(HERMITE_LOG_SURVIVAL))
def test_hermite_gram_reproduces_the_120_digit_values(t, a):
    log_survival = _hermite_gram(t, t, (2.0 + a) * t, 120)[1]
    assert log_survival == pytest.approx(HERMITE_LOG_SURVIVAL[(t, a)], rel=1e-16)


@pytest.mark.parametrize("t, a", sorted(HERMITE_LOG_SURVIVAL))
def test_prob_packed_matches_the_120_digit_hermite_values(t, a):
    value = HERMITE_LOG_SURVIVAL[(t, a)]
    assert abs(fredholm.prob_packed(t, a).log_survival - value) <= 1e-12 * abs(value)
    finite = fredholm.prob_finite_n(t, t, (2.0 + a) * t)
    assert abs(finite.log_survival - value) <= 1e-12 * abs(value)


def _log_hermite(n, u):
    """log psi_k(u) for k < n, psi_k = pi^(1/4) e^{u^2/2} phi_k, above the largest zero.

    The recurrence psi_{k+1} = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_{k-1}
    runs on the ratios psi_k / psi_{k-1}, which are positive beyond the zeros
    of psi_n, so the logs are sums of logs and never overflow.
    """
    logs = np.zeros((n,) + np.shape(u))
    ratio = None
    for k in range(1, n):
        ratio = np.sqrt(2.0 / k) * u - (0.0 if k == 1 else np.sqrt((k - 1) / k) / ratio)
        logs[k] = logs[k - 1] + np.log(ratio)
    return logs


def _hermite_log_survival(t, a, nodes=120):
    """Packed log P(x_t(t) > (2 + a) t) from the Hermite Gram in double precision.

    Independent of bmtails, and of the contours, saddles and Lambert W.
    With u0 = (2 + a) sqrt(t / 2) beyond the edge sqrt(2t), G_jk =
    c_j c_k Gh_jk, where c_k = pi^(-1/4) e^{-u0^2/2} psi_k(u0) holds the
    Gaussian factored out in logs, and Gh_jk is the integral over v > 0 of
    e^{-2 u0 v - v^2} psi_j(u0 + v) psi_k(u0 + v) / (psi_j(u0) psi_k(u0)),
    taken by Gauss-Laguerre in 2 u0 v.  G is symmetric, so log det(I - G) is
    the sum of log1p(-mu) over its eigenvalues mu, each formed as e^lam muh
    from the eigenvalues muh of G e^-lam, so nothing underflows before the log.
    """
    n = int(t)
    u0 = (2.0 + a) * np.sqrt(t / 2.0)
    x, weights = np.polynomial.laguerre.laggauss(nodes)
    v = x / (2.0 * u0)
    at_u0 = _log_hermite(n, u0)
    shape = np.exp(_log_hermite(n, u0 + v) - at_u0[:, None] - v * v / 2.0)
    g_hat = (shape * (weights / (2.0 * u0))) @ shape.T
    log_c = -u0 * u0 / 2.0 + at_u0 - np.log(np.pi) / 4.0
    lam = 2.0 * log_c.max()
    mu_hat = np.linalg.eigvalsh(np.exp(log_c[:, None] + log_c[None, :] - lam) * g_hat)
    mu = np.exp(lam) * mu_hat
    # -log1p(-mu) = mu q with q -> 1 as mu -> 0
    q = np.ones_like(mu)
    q[mu != 0] = -np.log1p(-mu[mu != 0]) / mu[mu != 0]
    log_y = lam + np.log(np.sum(mu_hat * q))    # y = -log det(I - G)
    y = np.exp(log_y)
    return float(log_y + (np.log(-np.expm1(-y) / y) if y > 0 else 0.0))


def test_double_hermite_oracle_matches_the_120_digit_values():
    for (t, a), value in HERMITE_LOG_SURVIVAL.items():
        assert abs(_hermite_log_survival(t, a) - value) <= 1e-14 * abs(value)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("t", [4, 16, 64, 256])
def test_prob_packed_matches_the_double_hermite_oracle(t, a):
    oracle = _hermite_log_survival(t, a)
    # the oracle's quadrature has converged: half its 120 nodes agree
    assert abs(_hermite_log_survival(t, a, 60) - oracle) <= 1e-13 * abs(oracle)
    packed = fredholm.prob_packed(t, a)
    assert abs(packed.log_survival - oracle) <= 1e-12 * abs(oracle)
    if t <= 64:
        finite = fredholm.prob_finite_n(t, t, (2.0 + a) * t)
        assert abs(finite.log_survival - oracle) <= 1e-12 * abs(oracle)
        # the packed law is particle t's: where its Gram is not cut (m = t:
        # every a at t = 4, a <= 2 at t = 16) the two routes are one determinant
        if kernels.packed_gram_order(a, t) == t:
            assert repr(packed) == repr(finite)


@pytest.mark.parametrize("t, a", [(16, 5.0), (64, 0.5), (64, 1.0), (256, 2.0)])
def test_packed_gram_orders_m_and_2m_agree(monkeypatch, t, a):
    base = fredholm.prob_packed(t, a)
    order = kernels.packed_gram_order(a, t)
    assert base.grid_size == order < t
    monkeypatch.setattr(fredholm, "packed_gram_order", lambda a, t: min(2 * order, int(t)))
    doubled = fredholm.prob_packed(t, a)
    assert doubled.grid_size == min(2 * order, t)
    assert abs(doubled.log_survival - base.log_survival) <= 1e-14 * abs(base.log_survival)


def test_prob_packed_matches_gue_oracle_through_saddle_route():
    """Saddle-frame contours against the raw-level oracle, independent paths."""
    res = fredholm.prob_packed(4, 1.0)
    np.testing.assert_allclose(res.p, GUE_CDF[(4, 4.0, 12.0)], atol=1e-11)
    res = fredholm.prob_packed(4, 0.5)
    np.testing.assert_allclose(res.p, GUE_CDF[(4, 4.0, 10.0)], atol=1e-11)


def test_prob_monotone_in_level():
    # the level 2t + at + s at t = 4, a = 1, for s = -1, 0, 1, 2
    for fn in (fredholm.prob_packed, fredholm.prob_flat):
        ps = [fn(4, 1.0 + s / 4.0).p for s in (-1.0, 0.0, 1.0, 2.0)]
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
    # stable under its own refinement: contour density x1 to x2 at Gram order m
    base = fredholm.prob_stat(4, 1.0)
    assert base.refinement_delta < 1e-9 and base.grid_size == kernels.packed_gram_order(1.0, 4)
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


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0, 0.0])
@pytest.mark.parametrize("fn, args", [(fredholm.prob_stat, ()), (fredholm.prob_stat_rho, (0.9,))],
                         ids=["stat", "stat-rho"])
def test_stationary_validates_time(fn, args, t):
    # t = inf used to overflow and t = nan to fail converting to an int
    with pytest.raises(ValueError, match="time parameter"):
        fn(t, 1.0, *args)


def test_fd_derivative_rejects_step_dependence():
    # sign(s) s^2 has quotients h at step h and h/2 at step h/2, which
    # disagree far beyond the 1e-5 tolerance
    with pytest.raises(NumericFailure, match="unstable in the step size") as info:
        fredholm._fd_derivative(lambda s: np.sign(s) * s * s, 1.0, 4.0, "test")
    assert info.value.residual == pytest.approx(2.5e-3)
    # a smooth D passes, and the Richardson step removes the h^2 term; the
    # rounding bound is 3 eps max|D| / h, max|D| = sin(h) at h = 5e-3
    deriv, rounding = fredholm._fd_derivative(np.sin, 1.0, 4.0, "test")
    assert deriv == pytest.approx(1.0, abs=1e-10)
    assert rounding == pytest.approx(3.0 * np.finfo(float).eps * np.sin(5e-3) / 5e-3)


# (p, log_survival, final grid size or Gram order) of each entry point, far tighter than
# the oracle tests, so a change in the shared refinement driver shows
FROZEN = {
    "packed": (fredholm.prob_packed, (4, 1),
               0.999991593107674, -11.68645867356225, 4),
    "flat": (fredholm.prob_flat, (4, 1),
             0.9996857475080847, -8.065313780802915, 96),
    "stat": (fredholm.prob_stat, (4, 1),
             0.9818641748033782, -4.009866004298115, 4),
    "stat_rho": (fredholm.prob_stat_rho, (4, 1, 0.9),
                 0.9827584903279957, -4.060435449598752, 4),
    "finite_n": (fredholm.prob_finite_n, (5, 1, 2.5),
                 0.21626343233881246, -0.2436823257321921, 5),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_entry_points_reproduce_frozen_values(name):
    fn, args, p, log_survival, size = FROZEN[name]
    res = fn(*args)
    np.testing.assert_allclose(res.p, p, rtol=0, atol=1e-14)
    np.testing.assert_allclose(res.log_survival, log_survival, rtol=1e-12)
    assert res.grid_size == size


STATIONARY_CALLS = [
    (fredholm.prob_stat, (4, 1.0)),
    (fredholm.prob_stat_rho, (4, 1.0, 0.9)),
    (fredholm.prob_stat, (16, 0.5)),
]


@pytest.mark.parametrize("fn, args", [(fredholm.prob_packed, (4, 1.0))] + STATIONARY_CALLS[:2]
                         + [(fredholm.prob_finite_n, (5, 1, 2.5))])
def test_gram_routes_form_no_cauchy_matrix(monkeypatch, fn, args):
    # 1/(w - z) acts through its series, so no line x circle matrix is formed;
    # the power tables do not depend on the level, so each contour density
    # forms them once and all of its finite-difference levels share them;
    # the finite-n Gram is of order n, and no Nystrom grid is built; its
    # contours and tables are cached, so the cache starts cold here; packed
    # and stationary build particle t's finite_tables once per rung, the
    # sub-rule's included, and never the pointwise kernel's packed_factors
    fredholm._finite_tables.cache_clear()
    outers, densities, tables, levels, built = [], [], [], [], []

    def outer(w, z):
        outers.append(1)
        return np.subtract.outer(w, z)

    class CountingNumpy:
        subtract = types.SimpleNamespace(outer=outer)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(kernels, "np", CountingNumpy())
    builders = {name: getattr(fredholm, name)
                for name in ("build_packed_contours", "build_finite_contours")}
    powers = kernels._powers
    finite_tables = fredholm.finite_tables
    stat_components = fredholm.stat_components

    def contour_spy(name):
        def spy(*args):
            densities.append(args[-1])
            return builders[name](*args)
        return spy

    def no_grid(*_):
        raise AssertionError("build_grid called on a Gram route")

    def table_spy(first, x, width):
        tables.append(width)
        return powers(first, x, width)

    def finite_tables_spy(n, t, contours_, order):
        built.append((n, t))
        return finite_tables(n, t, contours_, order)

    def no_packed_factors(*_):
        raise AssertionError("packed_factors called on a Gram route")

    def spy(a, t, s, finite):
        levels.append(s)
        return stat_components(a, t, s, finite)

    for name in builders:
        monkeypatch.setattr(fredholm, name, contour_spy(name))
    monkeypatch.setattr(kernels, "_powers", table_spy)
    monkeypatch.setattr(fredholm, "finite_tables", finite_tables_spy)
    monkeypatch.setattr(kernels, "packed_factors", no_packed_factors)
    monkeypatch.setattr(fredholm, "stat_components", spy)
    monkeypatch.setattr(fredholm, "build_grid", no_grid)
    res = fn(*args)
    assert outers == []
    assert densities == [2 * fredholm.POINTS_PER_UNIT]
    assert len(built) == len(densities)
    if fn is fredholm.prob_finite_n:
        # one table per contour, wide enough for the 2n - 1 moments of each
        assert tables == [2 * args[0]] * 2 * len(densities) and res.grid_size == args[0]
        # a second bulk level reuses them; an above-edge one, whose anchors
        # move with s, builds its own
        densities.clear(), tables.clear()
        fn(5, 1, 3.0)
        assert densities == [] and tables == []
        fn(5, 1, 5.5)
        assert densities == [2 * fredholm.POINTS_PER_UNIT] and tables == [10, 10]
    else:
        # the packed Gram's moments need twice the width the stationary pieces take
        m = kernels.packed_gram_order(args[1], args[0])
        width = 2 * m if fn is fredholm.prob_packed else m
        assert tables == [width] * 2 * len(densities)
        assert built == [(args[0], args[0])] * len(densities)
    if fn not in (fredholm.prob_packed, fredholm.prob_finite_n):
        assert len(levels) > len(set(levels)) and len(levels) % len(densities) == 0


@pytest.mark.parametrize("fn, args", STATIONARY_CALLS)
def test_stationary_determinants_have_order_at_most_m_plus_one(monkeypatch, fn, args):
    # the Gram route: no quadrature grid, and each determinant is of order
    # m or m + 1 (the rank-one border)
    orders = []
    det_core = fredholm._det_core

    def det_spy(kmat, weights):
        orders.append(len(weights))
        return det_core(kmat, weights)

    def no_grid(*_):
        raise AssertionError("build_grid called on the stationary route")

    monkeypatch.setattr(fredholm, "_det_core", det_spy)
    monkeypatch.setattr(fredholm, "build_grid", no_grid)
    res = fn(*args)
    m = kernels.packed_gram_order(args[1], args[0])
    assert res.grid_size == m
    assert orders and set(orders) <= {m, m + 1}


@pytest.mark.parametrize("fn, args, levels", [(fredholm.prob_stat, (4, 1.0), 8),
                                              (fredholm.prob_stat_rho, (4, 1.0, 0.9), 10)])
def test_each_stationary_level_forms_its_weights_once(monkeypatch, fn, args, levels):
    # stat_components exponentiates the contour phase, and stat_rho_pieces
    # reads the circle weights it formed: one saddle_weights call per level;
    # the ladder stops at its first rung, x2, whose 4 finite-difference
    # levels (and D(0) at density rho) run on the fine tables and again on
    # their sub-rule's halved tables
    calls = {"saddle_weights": 0, "stat_components": 0}
    for module, name in ((kernels, "saddle_weights"), (fredholm, "stat_components")):
        def spy(*spy_args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*spy_args)
        monkeypatch.setattr(module, name, spy)
    fn(*args)
    assert calls == {"saddle_weights": levels, "stat_components": levels}


def test_solve_logs_each_grid_size(caplog):
    # flat (1, 0.25) takes two rungs: x2 and x4, each on one spiral, its
    # fine grid against its sub-rule's grid of half the size
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        res = fredholm.prob_flat(1, 0.25)
    records = [r for r in caplog.records
               if r.name == "bmtails.fredholm" and r.funcName == "_solve"]
    assert all(r.levelno == logging.DEBUG for r in records)
    lines = [r.getMessage() for r in records]
    assert len(lines) == 2 and res.grid_size == 192
    assert lines[0].startswith("prob_flat: grid size 96, contour density x2, p ")
    assert lines[1].startswith(f"prob_flat: grid size 192, contour density x4, p {res.p:.17g},")
    assert f"log_survival {res.log_survival:.17g}, sub-rule log_survival " in lines[1]
    assert f"delta {res.refinement_delta:.3e}, im residue {res.im_residue:.3e}" in lines[1]
    for line in lines:
        fine, sub, delta_log = re.search(r"p [^,]*, log_survival ([^,]*), sub-rule log_survival "
                                         r"([^,]*), \|delta log S\| ([^,]*),", line).groups()
        assert delta_log == f"{abs(float(fine) - float(sub)):.3e}"


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


def test_finite_n_far_outside_names_the_resolution():
    # the bulk circle weights reach about e^42 at n = 100, t = 1, s = 5,
    # where the lower tail is far below what their cancellation resolves
    with pytest.raises(NumericFailure, match="far outside") as info:
        fredholm.prob_finite_n(100, 1, 5.0)
    assert info.value.last > 1.0
    assert "below what it resolves" in info.value.hint


def test_finite_n_node_count_past_the_largest_double_raises():
    # n / w_hi^2 overflows there; the inf count is refused without a warning
    with pytest.raises(NumericFailure, match="circle's node count would be inf") as info:
        fredholm.prob_finite_n(2, 1.7e308, 1.0)
    assert info.value.hint


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
    # stub hands that determinant, on the grid and on one of half its size,
    # to _solve as its probability
    def det(size):
        nodes, weights = fredholm.build_grid(0.0, 1.0, size)
        kmat = scale * np.exp(-nodes)[None, :] * np.ones((size, 1))
        return fredholm._det_core(kmat, weights)

    return fredholm._solve("unit pairing", lambda size, _scale: (det(size), det(size // 2)), [96])


def test_clamp_negative_roundoff(caplog):
    with caplog.at_level(logging.WARNING, logger="bmtails.fredholm"):
        res = _unit_pairing_det(1.0 + 1e-12)
    assert res.p == 0.0
    assert any("clamping" in rec.getMessage() for rec in caplog.records)


def test_negative_determinant_far_outside_raises():
    with pytest.raises(NumericFailure, match="far outside"):
        _unit_pairing_det(1.0 + 1e-6)


def test_probability_just_above_one_raises(caplog):
    # p = 1 + 1e-12 has no survival to report, so it is not clamped to 1
    with caplog.at_level(logging.WARNING, logger="bmtails.fredholm"):
        with pytest.raises(NumericFailure, match="no finite log_survival") as info:
            _unit_pairing_det(-1e-12)
    assert info.value.last > 1.0 and "grid size 96" in str(info.value)
    assert not caplog.records


# verify's level sweeps: n = 1 at t = 1 and 4 over s / sqrt(t) in [-3, 3], and
# n = 5 at t = 1 over s in [-0.5, 6.5]
LEVEL_SWEEPS = [(1, 1.0, np.linspace(-3.0, 3.0, 25)), (1, 4.0, 2.0 * np.linspace(-3.0, 3.0, 25)),
                (5, 1.0, np.linspace(-0.5, 6.5, 141))]


@pytest.mark.parametrize("n, t, levels", LEVEL_SWEEPS)
def test_bulk_contours_do_not_depend_on_the_level(n, t, levels):
    # what lets prob_finite_n share one set of tables among its bulk levels
    edge = 2.0 * np.sqrt(n * t)
    ref = contours.build_finite_contours(n, t, contours.finite_anchors(n, t, edge))
    for s in [s for s in levels if s <= edge]:
        anchors = contours.finite_anchors(n, t, float(s))
        for path, ref_path in zip(contours.build_finite_contours(n, t, anchors), ref):
            assert np.array_equal(path.nodes, ref_path.nodes)
            assert np.array_equal(path.weights, ref_path.weights)


def test_cached_finite_n_tables_are_shared_and_read_only():
    # the key is the anchors, not the level: s = 3.0 finds the entry of s = 2.5
    fredholm._finite_tables.cache_clear()
    fredholm.prob_finite_n(5, 1, 2.5)
    misses = fredholm._finite_tables.cache_info().misses
    tables = fredholm._finite_tables(5, 1.0, contours.finite_anchors(5, 1.0, 3.0),
                                     2 * fredholm.POINTS_PER_UNIT)
    assert fredholm._finite_tables.cache_info().misses == misses
    assert not any(table.flags.writeable for table in tables)
    with pytest.raises(ValueError):
        tables[0][0] = 0.0


@pytest.mark.parametrize("n, t, levels", LEVEL_SWEEPS)
def test_warm_finite_n_tables_give_the_cold_result(n, t, levels):
    levels = [float(s) for s in levels[::5]]
    cold = []
    for s in levels:
        fredholm._finite_tables.cache_clear()
        cold.append(repr(fredholm.prob_finite_n(n, t, s)))
    fredholm._finite_tables.cache_clear()
    assert [repr(fredholm.prob_finite_n(n, t, s)) for s in levels] == cold


@pytest.mark.parametrize("t, a", [(16, 4.0), (32, 2.0)])
def test_stationary_survival_on_the_rounding_floor_raises(t, a):
    # 1 - D' is 3.5e-14 at both, 0.053 of the central differences' rounding
    # bound, and both used to return the same log_survival -30.98
    with pytest.raises(NumericFailure, match="rounding bound") as info:
        fredholm.prob_stat(t, a)
    assert info.value.hint


@pytest.mark.parametrize("t, a", [(4, 1.0), (16, 2.0)])
def test_stationary_floor_guard_keeps_resolved_values(monkeypatch, t, a):
    # (16, 2) is 599 times its rounding bound, the smallest ratio of the
    # benchmark's timed stationary points
    guarded = fredholm.prob_stat(t, a)
    monkeypatch.setattr(fredholm, "_FD_FLOOR", 0.0)
    assert repr(fredholm.prob_stat(t, a)) == repr(guarded)


@pytest.mark.parametrize("t, a, rho", [(16, 4.0, 0.99), (16, 4.0, 0.9), (32, 2.0, 0.99)])
def test_density_rho_survival_on_the_rounding_floor_raises(t, a, rho):
    # 1 - p is 0.152, 0.027 and 0.040 of the rounding bound of D'(0) / (1 - rho),
    # and these used to return log_survival -30.24, -33.52 and -31.58
    with pytest.raises(NumericFailure, match="rounding bound") as info:
        fredholm.prob_stat_rho(t, a, rho)
    assert info.value.hint


@pytest.mark.parametrize("t, a, rho", [(4, 1.0, 0.9), (16, 2.0, 0.99)])
def test_density_rho_floor_guard_keeps_resolved_values(monkeypatch, t, a, rho):
    # (16, 2, 0.99) is 699 times its rounding bound
    guarded = fredholm.prob_stat_rho(t, a, rho)
    monkeypatch.setattr(fredholm, "_FD_FLOOR", 0.0)
    assert repr(fredholm.prob_stat_rho(t, a, rho)) == repr(guarded)


@pytest.mark.parametrize("fn", [fredholm.prob_stat])
def test_deep_tail_raises_instead_of_minus_infinity(fn):
    # at t = 64, a = 5 the stationary p rounds to just above 1
    with pytest.raises(NumericFailure, match="no finite log_survival"):
        fn(64, 5.0)


@pytest.mark.parametrize("t, a, log_survival", [
    (64, 5.0, -1267.9674489932), (256, 2.0, -1110.4505626341), (256, 5.0, -5038.1228218883),
])
def test_packed_deep_tail_is_finite_and_holds_under_density_doubling(monkeypatch, t, a,
                                                                     log_survival):
    # e^{-t r} underflows here; the Gram route factors it out of the determinant
    res = fredholm.prob_packed(t, a)
    assert abs(res.log_survival - log_survival) <= 1e-10 * abs(log_survival)
    monkeypatch.setattr(fredholm, "POINTS_PER_UNIT", 2 * fredholm.POINTS_PER_UNIT)
    denser = fredholm.prob_packed(t, a)
    assert abs(denser.log_survival - res.log_survival) <= 1e-13 * abs(log_survival)


@pytest.mark.parametrize("t, a, log_survival", [
    (64, 5.0, -1151.2144669183028), (256, 2.0, -1040.4856171995239),
    (256, 5.0, -4591.064029407776), (16, 2.0, -68.298145905558),
    (4, 5.0, -75.09632326755369),
])
def test_flat_deep_tail_is_finite_and_holds_under_density_doubling(monkeypatch, t, a,
                                                                   log_survival):
    # the Hilbert-Schmidt bound proves 1 - det to be e^{-t r} times the
    # integral of the kernel's diagonal, exact on the spiral, so no grid is
    # built, both where e^{-t r} underflows (the first three) and at e^-65
    # and e^-72 (the last two)
    res = fredholm.prob_flat(t, a)
    assert res.p == 1.0 and res.grid_size == 0
    assert abs(res.log_survival - log_survival) <= 1e-10 * abs(log_survival)
    monkeypatch.setattr(fredholm, "POINTS_PER_UNIT", 2 * fredholm.POINTS_PER_UNIT)
    denser = fredholm.prob_flat(t, a)
    assert abs(denser.log_survival - res.log_survival) <= np.spacing(abs(log_survival))


def _flat_trace_route(t, a):
    """(saddle, x2 spiral, log of the trace survival, its _trace_error bound), as prob_flat."""
    saddle = rates.rate_flat(a)
    path = contours.flat_contour_for(a, t, 2 * contours.POINTS_PER_UNIT, saddle=saddle)
    trace, _, hs_bound = kernels.flat_trace_terms(a, t, path, saddle.rate)
    bound = fredholm._trace_error(-t * saddle.rate, trace, np.log(hs_bound))
    return saddle, path, -t * saddle.rate + np.log(trace), bound


@pytest.mark.parametrize("t, a, error", [(64, 0.5, 1.5e-15), (16, 1.0, 1.1e-11)])
def test_flat_keeps_the_nystrom_grid_where_the_bound_fails(t, a, error):
    # the trace's proven relative error is above 1e-17 here
    assert _flat_trace_route(t, a)[3] == pytest.approx(error, rel=0.05)
    assert fredholm.prob_flat(t, a).grid_size == 96


@pytest.mark.parametrize("t, a", [(4, 2.0), (16, 1.0)])
def test_trace_error_bounds_the_converged_nystrom_survival(t, a):
    # at 768 nodes the Nystrom log survival has converged to about 1e-11;
    # the trace lies within the proven bound of it (6e-9 and 1.1e-11)
    saddle, path, log_trace, bound = _flat_trace_route(t, a)
    nodes, weights = fredholm.build_grid(0.0, abs(saddle.saddle_lo + 1.0), 768)
    log_s = fredholm._det_core(kernels.khat_flat_grid(a, t, nodes, nodes, path), weights)[1]
    assert abs(log_s - log_trace) <= bound


@pytest.mark.parametrize("log_scale, trace, hs_bound", [
    (0.0, 0.5, 1.0), (-1.0, 0.0, 0.1), (-1.0, -0.1, 0.1), (-1.0, np.nan, 0.1),
    (-1.0, 0.1, np.inf),
])
def test_trace_error_is_infinite_without_a_proof(log_scale, trace, hs_bound):
    # ||K||_HS >= 1 proves no convergent series, and a trace that is not
    # positive has no log
    assert fredholm._trace_error(log_scale, trace, np.log(hs_bound)) == np.inf


def test_trace_error_holds_where_the_scale_underflows():
    # e^-1200 underflows, so T and rho would be 0 and rho / T 0 / 0; formed
    # from logs, the bound is about e^-1200 (nu^2 / (2 T) + T / 2) in the
    # unscaled terms, and underflows with them
    error = fredholm._trace_error(-1200.0, 0.5, np.log(0.6))
    assert 0.0 <= error < 1e-300


@pytest.mark.parametrize("t, a, grid_size", [(16, 2.0, 0), (4, 1.0, 96)])
def test_prob_flat_reuses_the_spiral_that_decides_its_route(monkeypatch, t, a, grid_size):
    # the decision and rung 1, fine rule and sub-rule, share the x2 spiral:
    # one rung, one layout
    densities = []
    layout = fredholm.flat_contour_for

    def spy(a, t, points_per_unit, saddle):
        densities.append(points_per_unit)
        return layout(a, t, points_per_unit, saddle=saddle)

    monkeypatch.setattr(fredholm, "flat_contour_for", spy)
    assert fredholm.prob_flat(t, a).grid_size == grid_size
    assert densities == [2 * fredholm.POINTS_PER_UNIT]


def _spy_on_every_binding(monkeypatch, name):
    """Record the arguments of each call to rates.<name>, under every bmtails binding of it.

    The benchmark's tracer wraps functions by name in the same way.
    """
    fn = getattr(rates, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "bmtails" and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("t, a, grid_size", [(4, 1.0, 96), (64, 5.0, 0)])
def test_prob_flat_solves_its_saddle_once(monkeypatch, t, a, grid_size):
    # the Nystrom ladder and the trace route each take z_a and the rate
    # from one rate_flat call
    calls = _spy_on_every_binding(monkeypatch, "solve_za")
    assert fredholm.prob_flat(t, a).grid_size == grid_size
    assert calls == [(a,)]


@pytest.mark.parametrize("t, a, grid_size", [(4, 1.0, 96), (64, 5.0, 0)])
def test_prob_flat_takes_the_spiral_curvature_once(monkeypatch, t, a, grid_size):
    # every rung's spiral reads eta from rate_flat's record
    calls = _spy_on_every_binding(monkeypatch, "flat_curvature")
    assert fredholm.prob_flat(t, a).grid_size == grid_size
    assert len(calls) == 1


def test_unconverged_ladder_raises():
    # the fine p and its sub-rule's differ by 1e-6 / 2^k at rung k, never
    # below the target; the last rung is at density x8
    def evaluate(size, scale):
        return (0.5 + 1e-6 / scale, -0.7, 0.0), (0.5 + 2e-6 / scale, -0.7, 0.0)

    with pytest.raises(NumericFailure, match="still moves by 1.250e-07") as info:
        fredholm._solve("test", evaluate, [8] * 3)
    assert "did not converge" in info.value.hint and info.value.last == 0.5 + 1.25e-7
    assert "contour density x8" in str(info.value)


def test_flat_ladder_that_does_not_converge_raises():
    # at t = 4, a = 0.01 the spiral still moves p by 6e-7 at its densest rung
    with pytest.raises(NumericFailure, match="p still moves by") as info:
        fredholm.prob_flat(4, 0.01)
    assert "did not converge" in info.value.hint


def _full_det_core_log_survival(m):
    """log_survival of I - m from LU, or from the trace series up to its first
    negligible term, with neither of _det_core's early exits."""
    sign, level = np.linalg.slogdet(np.eye(len(m)) - m)
    logdet = complex(level, np.angle(sign))
    if not (sign.real <= 0.0 or abs(np.expm1(level)) >= fredholm._LU_SURVIVAL):
        logdet, power, k = 0j, m, 0
        while True:
            k += 1
            term = complex(np.trace(power)) / k
            logdet -= term
            if abs(term) <= 1e-17 * abs(logdet):
                break
            power = power @ m
    return float(np.log(-np.expm1(logdet.real)))


@pytest.mark.parametrize("nu, lu_calls", [(1e-150, 0), (1e-3, 0), (8e-3, 0), (0.3, 1)])
def test_det_core_early_exits_change_no_bit(monkeypatch, nu, lu_calls):
    # skipping LU where the series is proven, and stopping the series where
    # its tail is proven negligible, give the same bits as doing both in full;
    # entries of positive real part keep det(I - M) in (0, 1)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, (24, 24)) + 0.2j * rng.standard_normal((24, 24))
    m = nu * x / np.linalg.norm(x)
    expected = _full_det_core_log_survival(m)
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda mat: calls.append(1) or slogdet(mat))
    assert repr(fredholm._det_core(m, np.ones(24))[1]) == repr(expected)
    assert len(calls) == lu_calls


def _random_gram(size, seed=3):
    """A bounded complex Gram with positive real trace."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (size, size)) + 0.2j * rng.standard_normal((size, size))
    return 0.5 * x / np.linalg.norm(x)


def test_det_core_takes_the_trace_of_a_deep_gram_without_lu(monkeypatch, caplog):
    # at e^-1200 the bound proves the survival e^L tr G: det rounds to 1 and
    # neither LU nor the series runs on the underflowed e^L G
    gram = _random_gram(12)
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda mat: calls.append(1) or slogdet(mat))
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        det, log_survival, im = fredholm._det_core(gram, np.ones(12), -1200.0)
    trace = complex(np.trace(gram))
    assert det == 1.0 and calls == []
    assert repr(log_survival) == repr(float(-1200.0 + np.log(trace.real)))
    assert im == abs(trace.imag / trace.real)
    assert "route trace, relative error at most 0.000e+00" in caplog.records[-1].getMessage()


def test_det_core_takes_the_trace_where_the_frobenius_norm_underflows():
    # entries near 1e-170 square to below the smallest subnormal, so ||M||_F
    # computes to 0 while tr M does not; nu allows for the lost squares, and
    # the filter turns any RuntimeWarning, such as np.log(0)'s, into an error
    m = 1e-170 * (1.0 + np.arange(64.0).reshape(8, 8) / 64.0)
    assert np.linalg.norm(m) == 0.0
    det, log_survival, im = fredholm._det_core(m, np.ones(8))
    assert det == 1.0 and im == 0.0
    assert log_survival == float(np.log(np.trace(m)))


@pytest.mark.parametrize("log_scale, route", [(-2.0, "lu"), (-20.0, "series")])
def test_det_core_scales_the_gram_where_the_bound_fails(caplog, log_scale, route):
    # the bound does not prove the trace, and LU or the series runs on
    # e^L G: the same bits as handing _det_core the scaled Gram
    gram = 40.0 * _random_gram(12)
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        result = fredholm._det_core(gram, np.ones(12), log_scale)
    assert f"route {route}," in caplog.records[-1].getMessage()
    assert repr(result) == repr(fredholm._det_core(np.exp(log_scale) * gram, np.ones(12)))


@pytest.mark.parametrize("t, a, log_survival", [
    (64, 1.0, "-99.9089029990691"), (16, 2.0, "-77.08652448321286"),
])
def test_packed_points_newly_traced_keep_their_bits(caplog, t, a, log_survival):
    # the bound proves the trace at these timed points, where the series of
    # one term ran before; log_survival keeps the series' bits
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        res = fredholm.prob_packed(t, a)
    assert repr(res.log_survival) == log_survival
    assert "route trace" in caplog.records[-2].getMessage()


def test_build_grid_shares_a_read_only_rule():
    nodes1 = fredholm.build_grid(0.0, 1.0, 32)[0]
    nodes2, weights2 = fredholm.build_grid(2.0, 0.5, 32)
    x1, w1 = fredholm._gauss_legendre(32)
    assert fredholm._gauss_legendre(32)[0] is x1
    assert not x1.flags.writeable and not w1.flags.writeable
    with pytest.raises(ValueError):
        x1[0] = 0.0
    np.testing.assert_array_equal(nodes1, -np.log1p(-0.5 * (x1 + 1.0)))
    assert nodes2.flags.writeable and weights2.flags.writeable


def test_prob_finite_n_validates_index():
    with pytest.raises(ValueError):
        fredholm.prob_finite_n(0, 1, 0.0)
    # a fractional index is not truncated to the law of its integer part
    with pytest.raises(ValueError, match="integer"):
        fredholm.prob_finite_n(2.5, 1, 0.0)
    for t in (np.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="time parameter"):
            fredholm.prob_finite_n(1, t, 0.0)
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError, match="level s must be finite"):
            fredholm.prob_finite_n(1, 1, s)


@pytest.mark.parametrize("u", [10.0, 40.0, 200.0])
@pytest.mark.parametrize("t", [1, 4, 16])
def test_free_particle_deep_tail_is_gaussian(u, t):
    # the survival of one Brownian motion, e^-53 to e^-20006: the Gram of
    # order 1 through the saddles, by the trace where its bound proves it
    res = fredholm.prob_finite_n(1, t, u * np.sqrt(t))
    np.testing.assert_allclose(res.log_survival, norm.logsf(u), rtol=1e-12)


def test_finite_n_far_upper_tail_matches_the_hermite_oracle():
    # x_n(t) has the law of sqrt(t) x_n(1), so particle 3 at level 1e4 and
    # t = 1 is the packed law at t = 3, a = 1e4 / sqrt(3) - 2: e^-5e7
    oracle = _hermite_log_survival(3, 1e4 / np.sqrt(3.0) - 2.0)
    res = fredholm.prob_finite_n(3, 1, 1e4)
    assert abs(res.log_survival - oracle) <= 1e-12 * abs(oracle)


# P(x_64(1) <= s) at 0.5, 0.75 and 0.95 of the edge s = 16, from _hermite_gram
# at 60 + 2n = 188 digits, which 228 digits reproduce to 17 digits
HERMITE_BULK_64 = {0.5: 1.2035983416167983e-135, 0.75: 1.4578095709669253e-18,
                   0.95: 0.5936434779985414}


@pytest.mark.parametrize("frac", [0.5, 0.75, 0.95])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_bulk_finite_n_matches_the_hermite_oracle(n, frac):
    # at or below the edge the line sits at the saddle modulus sqrt(n / t):
    # every level returns within 1e-13 of the Hermite Gram at 60 + 2n digits,
    # or raises, and only where p < 1e-12 (at (32, 0.5) and (64, 0.5))
    s = frac * 2.0 * np.sqrt(n)
    p = HERMITE_BULK_64[frac] if n == 64 else _hermite_gram(n, 1.0, s, 60 + 2 * n)[0]
    try:
        res = fredholm.prob_finite_n(n, 1, s)
    except NumericFailure:
        assert p < 1e-12
    else:
        assert abs(res.p - p) <= 1e-13


@pytest.mark.parametrize("t", [1e4, 1e6])
def test_finite_n_line_resolves_the_edge_at_large_t(t):
    # x_n(t) has the law of sqrt(t) x_n(1); in the bulk and just above the
    # edge f''(c) is near 0, and the line's density follows the cubic width
    # |f'''(c)|^(-1/3), so large t loses no digits
    for n, fracs in ((1, (-0.75, 0.75, 1.0, 1.0 + 1e-7, 1.01)), (5, (0.75, 1.0, 1.0 + 1e-7))):
        for frac in fracs:
            u = frac * 2.0 * np.sqrt(n)
            p = norm.cdf(u) if n == 1 else _hermite_gram_cdf(n, 1.0, u)
            assert abs(fredholm.prob_finite_n(n, t, u * np.sqrt(t)).p - p) <= 1e-13


def test_contour_node_limit_keeps_t_2_20():
    # contours._MAX_NODES refuses the layouts of huge t (tests/test_cli.py);
    # t = 2^20 stays inside it
    res = fredholm.prob_packed(2 ** 20, 1.0)
    assert res.p == 1.0 and np.isfinite(res.log_survival)
    line, circle = contours.build_packed_contours(0.25, 2 ** 20, 8 * contours.POINTS_PER_UNIT)
    assert max(line.nodes.size, circle.nodes.size) <= contours._MAX_NODES


def test_prob_finite_n_names_overflowing_contour_weights():
    # far in the lower tail the circle's weights carry e^{-s z}, |z| = 0.9
    with pytest.raises(NumericFailure, match="contour weights overflow") as info:
        fredholm.prob_finite_n(1, 1, -3000.0)
    assert "edge" in info.value.hint
    # in the bulk of many particles the weights stay finite, but the
    # determinant overflows (n = 100 to 200), or ||M||_F does (n = 400), or
    # M = e^{log_scale} G itself (n = 800); no RuntimeWarning escapes
    det_overflow = r"det\(I - M\) = e\^.* overflows"
    norm_overflow = r"M overflows: \|\|M\|\|_F = (inf|nan)"
    for n, s, match in ((200, 0.0, det_overflow), (150, 0.0, det_overflow),
                        (100, 0.0, det_overflow), (400, 0.0, norm_overflow),
                        (800, 0.0, norm_overflow)):
        with pytest.raises(NumericFailure, match=match) as info:
            fredholm.prob_finite_n(n, 1, s)
        assert info.value.hint


def test_finite_n_deep_upper_tail_is_the_packed_determinant():
    # the packed law is particle t's at level (2 + a) t; (16, 5) is e^-324
    # and (64, 5) e^-1268, past where the exponentials of the kernel underflow
    res = fredholm.prob_finite_n(16, 16, 112)
    assert res.log_survival == pytest.approx(-324.39859723468726, rel=1e-15, abs=0.0)
    assert res.grid_size == 16
    deep = fredholm.prob_finite_n(64, 64, 448)
    packed = fredholm.prob_packed(64, 5)
    assert deep.log_survival == pytest.approx(packed.log_survival, rel=1e-15, abs=0.0)
    # x_n(t) has the law of sqrt(t / n) x_n(n): particle 100 at t = 0.01 and
    # level 3 is packed (100, 1), with |w+| = 38, where z^198 would overflow
    scaled = fredholm.prob_finite_n(100, 0.01, 3.0)
    packed = fredholm.prob_packed(100, 1.0)
    assert scaled.log_survival == pytest.approx(packed.log_survival, rel=1e-14, abs=0.0)


ROUTE_POINTS = [
    (fredholm.prob_packed, (4, 1.0)),
    (fredholm.prob_packed, (64, 1.0)),
    (fredholm.prob_flat, (4, 1.0)),
    (fredholm.prob_flat, (16, 2.0)),
    (fredholm.prob_flat, (1, 0.25)),
    (fredholm.prob_stat, (4, 1.0)),
    (fredholm.prob_stat_rho, (4, 1.0, 0.9)),
    (fredholm.prob_finite_n, (5, 1, 2.5)),
    (fredholm.prob_finite_n, (5, 1, 5.5)),
]
ROUTE_IDS = ["packed", "packed trace", "flat", "flat trace", "flat two rungs", "stat",
             "stat_rho", "finite_n", "finite_n above the edge"]


@pytest.mark.parametrize("fn, args", ROUTE_POINTS, ids=ROUTE_IDS)
def test_each_route_lays_out_its_contours_once_per_rung(monkeypatch, caplog, fn, args):
    # rung k lays out density 2^k once and takes its coarse value from that
    # layout's sub-rule; flat (1, 0.25) takes two rungs, the others one
    fredholm._finite_tables.cache_clear()
    densities = []
    for name in ("build_packed_contours", "build_finite_contours", "flat_contour_for"):
        # flat_contour_for(a, t, points_per_unit, saddle=...), the others
        # (..., points_per_unit)
        def spy(*spy_args, _fn=getattr(fredholm, name), _at=2 if name == "flat_contour_for" else -1,
                **kwargs):
            densities.append(spy_args[_at])
            return _fn(*spy_args, **kwargs)
        monkeypatch.setattr(fredholm, name, spy)
    with caplog.at_level(logging.DEBUG, logger="bmtails.fredholm"):
        fn(*args)
    rungs = sum(r.funcName == "_solve" for r in caplog.records)
    assert rungs == (2 if args == (1, 0.25) else 1)
    assert densities == [2 ** k * fredholm.POINTS_PER_UNIT for k in range(1, rungs + 1)]


# (p, log_survival, grid size) of one point per route as the ladder that laid
# out each density afresh, x1 to x8, returned them: the ladder compares the
# same density pairs, so no returned bit moves.  Flat (1, 0.25) is the value
# of that ladder on the wider spiral window of contours.flat_contour_for,
# which moved it from 0.8232538957540516 by 8.8e-12.  Packed and the two
# finite_n points are those of the Gram from its contour moments, whose sums
# round otherwise than the two N-deep products before them: log_survival
# moved from -11.686458673562248, -0.24368232573219392 and -7.291648953714567
# (and finite_n's p from 0.2162634323388138), each within 1e-15 of the
# 40-digit Hermite Gram
PARENT_REPR = {
    "packed": ("0.999991593107674", "-11.68645867356225", 4),
    "packed trace": ("1.0", "-99.9089029990691", 22),
    "flat": ("0.9996857475080847", "-8.06531378080278", 96),
    "flat trace": ("1.0", "-68.298145905558", 0),
    "flat two rungs": ("0.8232538957452402", "-1.733041015439819", 192),
    "stat": ("0.9818641748033782", "-4.009866004298115", 4),
    "stat_rho": ("0.9827584903279957", "-4.060435449598752", 4),
    "finite_n": ("0.2162634323388134", "-0.24368232573219337", 5),
    "finite_n above the edge": ("0.999318796147489", "-7.291648953714568", 5),
}


@pytest.mark.parametrize("fn, args, name", [point + (name,) for point, name
                                            in zip(ROUTE_POINTS, ROUTE_IDS)], ids=ROUTE_IDS)
def test_one_point_per_route_keeps_its_bits(fn, args, name):
    res = fn(*args)
    assert (repr(res.p), repr(res.log_survival), res.grid_size) == PARENT_REPR[name]


def test_flat_window_is_certified_where_the_sub_rule_cannot_see_it():
    # at flat (2, 0.03) the phase is far from quadratic: e^{tG} at the end
    # of the Gaussian window is 1e-4 of its saddle value, and a ladder whose
    # sub-rule shares that window returned p 4.2e-7 off; the window doubles
    # to tau 0.697, and p is that of twice that window to 1e-9
    t, a = 2, 0.03
    res = fredholm.prob_flat(t, a)
    assert (repr(res.p), res.grid_size) == ("0.7715447492702315", 384)
    saddle = rates.rate_flat(a)
    path = contours.flat_contour_for(a, t, 8 * contours.POINTS_PER_UNIT, saddle=saddle)
    assert path.params[-1] == pytest.approx(0.697, abs=1e-3)
    ppu = round(len(path.params) // 2 / path.params[-1])
    wide = contours.build_flat_contour(a, ppu, 2.0 * path.params[-1], z_a=saddle.saddle_lo)
    nodes, weights = fredholm.build_grid(0.0, abs(saddle.saddle_lo + 1.0), 384)
    log_s = fredholm._det_core(kernels.khat_flat_grid(a, t, nodes, nodes, wide), weights)[1]
    assert abs(-np.expm1(log_s) - res.p) < fredholm._TARGET


def test_stat_rho_point_whose_two_first_densities_are_one_layout_raises():
    # at t = 256, a = 0.1 the phase's widths, not the density, set the line
    # and circle at x1 and x2 (193 and 826 nodes), so a ladder comparing the
    # two returned p against itself; the sub-rule of x2 and of x4 moves p by
    # 3.5e-9, and x4 itself moves it by 5.1e-9, so p is not resolved to 1e-9
    with pytest.raises(NumericFailure, match="p still moves by 3.491e-09"):
        fredholm.prob_stat_rho(256, 0.1, 0.5)


BUILD_FINITE_CONTOURS = contours.build_finite_contours


def _coarse_line_layout(monkeypatch, density):
    """Lay every saddle line out at density(points_per_unit) nodes per unit, no curvature term.

    The circle and the line's half-width stay those of build_finite_contours,
    and the cache of finite-n tables starts cold.
    """
    def coarse(n, t, anchors, points_per_unit=contours.POINTS_PER_UNIT):
        line, circle = BUILD_FINITE_CONTOURS(n, t, anchors, points_per_unit)
        half = line.params[-1]
        count = 2 * int(np.ceil(half * density(points_per_unit))) + 1
        return contours._line(anchors[0], half, count), circle

    for module in (contours, fredholm):
        monkeypatch.setattr(module, "build_finite_contours", coarse)
    fredholm._finite_tables.cache_clear()


@pytest.mark.parametrize("fn, args", [(fredholm.prob_finite_n, (5, 1, 2.5)),
                                      (fredholm.prob_packed, (4, 1.0))],
                         ids=["finite_n", "packed"])
def test_a_coarsened_line_is_never_certified_when_wrong(monkeypatch, fn, args):
    # at an eighth of each rung's density and no curvature term the line
    # still resolves its Gaussian (width t^-1/2) to rounding: the ladder
    # returns the full layout's p, whatever delta it reports.  At 2 nodes
    # per unit at every rung no rung is converged, the fine rule and its
    # sub-rule keep differing, and the query raises: delta 0 never certifies
    # a quadrature that the density does not resolve
    exact = fn(*args).p
    try:
        _coarse_line_layout(monkeypatch, lambda points_per_unit: points_per_unit // 8)
        res = fn(*args)
        assert abs(res.p - exact) < fredholm._TARGET and res.refinement_delta < fredholm._TARGET
        _coarse_line_layout(monkeypatch, lambda points_per_unit: 2)
        with pytest.raises(NumericFailure, match="still moves"):
            fn(*args)
    finally:
        # no coarse table outlives the test
        fredholm._finite_tables.cache_clear()
