import numpy as np
import pytest
from scipy import integrate

from bmtails import contours, fredholm, kernels, rates, verify
from bmtails.errors import NumericFailure


def test_khat_packed_reference_value():
    res = kernels.khat_packed(1.0, 4, 0.3, 0.7)
    np.testing.assert_allclose(res.value, 7.550797077606376e-06, rtol=1e-10)
    assert res.im_residue <= 1e-10
    assert res.refinement_delta <= 1e-12


@pytest.mark.parametrize("fn", [kernels.khat_packed])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["xi1", "xi2"])
def test_pointwise_kernels_reject_non_finite_levels(fn, bad, name):
    xi = {"xi1": 0.0, "xi2": 0.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fn(1.0, 4, xi["xi1"], xi["xi2"])


def test_khat_packed_deformation_invariance():
    a, t = 1.0, 4
    base = kernels.khat_packed(a, t, 0.3, 0.7).value
    line, circle = contours.build_packed_contours(a, t)
    for fac in (0.9, 1.1):
        moved = contours.scale_circle(circle, fac)
        val = kernels.khat_packed_grid(
            np.array([0.3]), np.array([0.7]), kernels.packed_factors(a, t, (line, moved))
        )[0, 0]
        assert abs(val.real - base) <= 1e-8
        assert abs(val.imag) <= 1e-10


def test_packed_gram_order():
    assert [kernels.packed_gram_order(a, 64) for a in (0.5, 1.0, 2.0, 5.0)] == [30, 22, 16, 11]
    assert [kernels.packed_gram_order(a, 4) for a in (0.5, 5.0)] == [4, 4]


@pytest.mark.parametrize("t, a", [(1, 0.25), (4, 1.0), (8, 0.5)])
def test_packed_gram_determinant_is_the_nystrom_one(t, a):
    # the Gram and the Nystrom matrix of one kernel on the same contours
    contours_ = contours.build_packed_contours(a, t)
    gram, log_scale = kernels.finite_gram(t, t, (2 + a) * t,
                                          kernels.finite_tables(t, t, contours_, t))
    det = np.linalg.det(np.eye(t) - np.exp(log_scale) * gram)
    nodes, weights = fredholm.build_grid(0.0, a, 96)
    kmat = kernels.khat_packed_grid(nodes, nodes, kernels.packed_factors(a, t, contours_))
    assert abs(det - fredholm._det_core(kmat, weights)[0]) <= 1e-13


def test_khat_matches_raw_kernel_at_shifted_level():
    """Same object through two unrelated discretizations.

    The conjugated saddle-frame kernel at offset (xi1, xi2) must equal the
    raw integer-index kernel evaluated at level (2+a)t + xi on a generic
    line/circle pair; all constant factors cancel in the shift.
    """
    a, t = 1.0, 4
    shift = (2.0 + a) * t
    for x1, x2 in ((0.0, 0.0), (0.3, 0.7), (1.5, 0.2)):
        hat = kernels.khat_packed(a, t, x1, x2).value
        raw = kernels.raw_kernel_grid(
            t, t, np.array([shift + x1]), np.array([shift + x2]),
            line_re=-1.0, circle_rad=0.5,
        )[0, 0]
        # the raw conjugation e^{-c xi} at c = -1 is the saddle frame's e^{xi}
        np.testing.assert_allclose(raw.real, hat, rtol=1e-10)
        assert abs(raw.imag) <= 1e-12


def test_raw_kernel_deformation_invariance():
    # the conjugation e^{-c xi} tracks the line, so undo it to e^{xi} before
    # comparing: the represented kernel must not depend on the contours
    xi1, xi2 = 5.0, 5.5
    val = None
    for c, r in ((-1.0, 0.5), (-1.3, 0.4), (-0.8, 0.6)):
        cur = kernels.raw_kernel_grid(
            3, 2.0, np.array([xi1]), np.array([xi2]),
            line_re=c, circle_rad=r,
        )[0, 0] * np.exp((1.0 + c) * (xi1 - xi2))
        if val is not None:
            np.testing.assert_allclose(cur.real, val, rtol=1e-9)
        val = cur.real


@pytest.mark.parametrize("n", [1, 3, 5, 8])
@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("line", ["bulk", "tail"])
def test_raw_kernel_rank_n_matches_dense(n, t, line):
    # the Cauchy series cut at n terms, which makes the finite-n Gram exact
    # at order n, against raw_kernel_grid's whole Cauchy matrix, on the
    # contours of the bulk and of the upper tail
    s = -0.5 if line == "bulk" else 2.0 * np.sqrt(n * t) + 1.5
    c, w_hi = contours.finite_anchors(n, t, s)
    xi = s + np.linspace(0.0, 12.0, 40)
    dense = kernels.raw_kernel_grid(n, t, xi, xi, line_re=c, circle_rad=-w_hi)
    path, circle = contours.build_raw_contours(n, t, xi, xi, c, -w_hi)
    w, z = path.nodes, circle.nodes
    aw = path.weights * np.exp(rates._f_vals(w, n, t, 0.0))
    bz = circle.weights * np.exp(-rates._f_vals(z, n, t, 0.0))
    z_pows, w_pows = kernels._cauchy_series(w, z, n)
    left = np.exp(np.multiply.outer(xi, w - c)) @ ((kernels._DOUBLE_PREF * aw)[:, None] * w_pows)
    right = np.exp(-np.multiply.outer(xi, z - c)) @ (bz[:, None] * z_pows)
    assert np.abs(left @ right.T - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("n,t,s", [
    (1, 1.0, -2.0), (1, 4.0, 3.0), (5, 1.0, -0.5), (5, 1.0, 3.0), (5, 1.0, 6.0),
])
def test_prob_finite_n_matches_dense_determinant(n, t, s):
    # the n x n Gram against the Nystrom determinant of the dense kernel on
    # 128 nodes of (s, infinity), mapped at a rate that follows the decay of
    # the kernel, conjugated by e^{-c xi} on the Gram's own line and circle
    res = fredholm.prob_finite_n(n, t, s)
    assert res.grid_size == n
    c, w_hi = contours.finite_anchors(n, t, s)
    decay = max(0.4 / np.sqrt(t), 0.8 * (s - 2.0 * np.sqrt(n * t)) / t)
    nodes, weights = fredholm.build_grid(s, decay, 128)
    kmat = kernels.raw_kernel_grid(n, t, nodes, nodes, line_re=c, circle_rad=-w_hi)
    assert abs(res.p - fredholm._det_core(kmat, weights)[0]) <= 1e-13


def test_raw_kernel_validates_nesting():
    with pytest.raises(ValueError):
        kernels.raw_kernel_grid(2, 1.0, np.zeros(1), np.zeros(1),
                                line_re=-1.0, circle_rad=1.5)
    with pytest.raises(ValueError):
        kernels.raw_kernel_grid(0, 1.0, np.zeros(1), np.zeros(1),
                                line_re=-1.0, circle_rad=0.5)


@pytest.mark.parametrize("ic,power", [("packed", 1.0), ("flat", 0.5)])
def test_rescaled_kernel_approaches_limit(ic, power):
    a = 1.0
    if ic == "packed":
        rate = rates.rate_packed(a)
        evaluate = lambda t, x1, x2: kernels.khat_packed(a, t, x1, x2).value
    else:
        rate = rates.rate_flat(a).rate
        # at a = 1 the spiral's density is bound to t for every t here
        evaluate = lambda t, x1, x2: kernels.khat_flat_grid(
            a, t, [x1], [x2], contours.flat_contour_for(a, t))[0, 0].real
    lim = kernels.klimit(ic, a)
    x1, x2 = 0.5, 0.25
    errs = []
    for t in (4, 8, 16):
        scaled = t ** power * np.exp(t * rate) * evaluate(t, x1, x2)
        errs.append(abs(scaled / lim(x1, x2) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.15


@pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
def test_packed_tail_constant_is_integrated_klimit_diagonal(a):
    lim = kernels.klimit("packed", a)
    trace, _ = integrate.quad(
        lambda x: lim(x, x), 0.0, np.inf, epsabs=0.0, epsrel=1e-13
    )
    np.testing.assert_allclose(verify._packed_tail_constant(a), trace, rtol=1e-10)


def test_klimit_exponential_profile():
    a = 1.0
    w_minus, w_plus = rates.saddle_points(a)
    lim = kernels.klimit("packed", a)
    # log-linear in each argument with slopes w-+1 and -(w+ + 1)
    d1 = np.log(lim(1.0, 0.0)) - np.log(lim(0.0, 0.0))
    d2 = np.log(lim(0.0, 1.0)) - np.log(lim(0.0, 0.0))
    np.testing.assert_allclose(d1, w_minus + 1.0, rtol=1e-12)
    np.testing.assert_allclose(d2, -(w_plus + 1.0), rtol=1e-12)


def test_khat_flat_reference_and_invariance():
    a, t = 1.0, 4
    trimmed = contours.flat_contour_for(a, t)
    # a doubled density refines the spiral on the same tau window
    doubled = contours.flat_contour_for(a, t, 2 * contours.POINTS_PER_UNIT)
    assert doubled.nodes.size == 2 * trimmed.nodes.size - 1
    assert abs(doubled.params[-1] - trimmed.params[-1]) <= trimmed.params[1] - trimmed.params[0]
    for path in (trimmed, doubled):
        value = kernels.khat_flat_grid(a, t, [0.0], [0.0], path)[0, 0]
        np.testing.assert_allclose(value.real, 7.037043553057482e-04, rtol=1e-10)
        assert abs(value.imag) <= 1e-10
    # the spiral trimmed for time t, continued on the same nodes to tau = 6,
    # must give the same value: its tail is below the truncation tolerance
    ppu = int(round(1.0 / (doubled.params[1] - doubled.params[0])))
    wide = contours.build_flat_contour(a, ppu, 6.0)
    assert doubled.params[-1] < 1.0 and wide.nodes.size > 4 * doubled.nodes.size
    values = [kernels.khat_flat_grid(a, t, [0.0], [0.0], path)[0, 0].real
              for path in (doubled, wide)]
    assert 0.0 < abs(values[0] - values[1]) <= 1e-8


@pytest.mark.parametrize("t, a", [(16, 5.0), (64, 2.0)])
def test_khat_flat_trace_is_the_deep_survival(t, a):
    # below e^-250, 1 - det(1 - K) is the integral of K's diagonal to double
    # precision; on the spiral that integral needs no grid, holds under
    # density doubling, and the Nystrom survival agrees with it to 1e-8
    rate = rates.rate_flat(a).rate
    logs = [-t * rate + np.log(kernels.khat_flat_trace(
        a, t, contours.flat_contour_for(a, t, ppu), rate).real)
        for ppu in (64, 128, 256)]
    np.testing.assert_allclose(logs, logs[0], rtol=1e-15)
    nystrom = fredholm.prob_flat(t, a).log_survival
    np.testing.assert_allclose(nystrom, logs[0], rtol=1e-8)


def test_deformation_check_compares_two_different_spirals(monkeypatch):
    # verify check 6's flat half: a drift between two evaluations on one
    # spiral would be exactly zero and show nothing
    sizes = []
    khat_flat_grid = kernels.khat_flat_grid

    def spy(a, t, xi1, xi2, path):
        sizes.append(path.nodes.size)
        return khat_flat_grid(a, t, xi1, xi2, path)

    monkeypatch.setattr(kernels, "khat_flat_grid", spy)
    ok, line = verify._check_deformation()
    assert ok
    assert len(sizes) == 2 and sizes[0] != sizes[1]
    assert float(line.split("drift ")[-1].split()[0]) <= 1e-8


def _stat_factors(a, t, s, tables):
    """(w, aw, z, bz) with the stationary weights at offset s, from the shared routine.

    aw and bz carry e^{t H(w) + s (w+1)} and e^{-t H(z) - s (z+1)}: the
    particle-t phase at level sigma = (2 + a) t + s, less t/2 - sigma.
    """
    sigma = (2.0 + a) * t + s
    aw, bz = kernels.saddle_weights(tables, sigma, t / 2.0 - sigma, t / 2.0 - sigma, f"s = {s}")
    return tables[0], aw, tables[3], bz


def _circle_sum(factors, xi, pole):
    """(2 pi i)^-1 sum_z bz e^{-xi (z+1)} / (z + pole) at each xi.

    At pole 1 this is g1 - 1, at pole rho the contour term of g_rho.
    """
    z, bz = factors[2:4]
    e2 = np.exp(-np.multiply.outer(np.atleast_1d(xi), z + 1.0))
    return e2 @ (bz / (z + pole)) / (2j * np.pi)


def _nystrom_stat(a, t, s, rho, tables, size=384):
    """det(1 - K), det(1 - K - f* x g1) and <g_rho, (1 - K)^-1 f*> on a Nystrom grid.

    The kernel, the rank-one pair and g_rho are tabulated on the nodes of
    build_grid(s, a, size) from their contour integrals.
    """
    factors = _stat_factors(a, t, 0.0, tables)
    w, aw, z, _ = factors
    bz_s = _stat_factors(a, t, s, tables)[3]
    cauchy = 1.0 / np.subtract.outer(w, z)
    two_pi_i = 2j * np.pi
    x, weights = fredholm.build_grid(s, a, size)
    e1 = np.exp(np.multiply.outer(x, w + 1.0))
    f_star = (e1 @ (aw / (w + 1.0) + aw * (cauchy @ (bz_s / (z + 1.0))) / two_pi_i)) / two_pi_i
    g_one = 1.0 + _circle_sum(factors, x, 1.0)
    g_rho = (np.exp(-t * rates.phase_packed(-rho, a) - (1.0 - rho) * x)
             + _circle_sum(factors, x, rho))
    kmat = kernels.khat_packed_grid(x, x, factors)
    det1 = fredholm._det_core(kmat, weights)[0]
    det2 = fredholm._det_core(kmat + np.outer(f_star, g_one), weights)[0]
    y = np.linalg.solve(np.eye(size) - kmat * weights, f_star)
    return det1, det2, np.sum(weights * g_rho * y)


def _rho_tables(a, t, rho):
    """prob_stat_rho's tables: the packed contours, the circle at radius 0.9 rho."""
    line, circle = contours.build_packed_contours(a, t)
    radius = np.abs(circle.nodes).max()
    circle = contours.scale_circle(circle, 0.9 * rho / radius)
    return kernels.finite_tables(t, t, (line, circle), kernels.packed_gram_order(a, t))


@pytest.mark.parametrize("t, a", [(4, 1.0), (4, 0.5)])
def test_stat_gram_pairings_match_a_nystrom_grid(t, a):
    # the bordered Gram and the rho pairings against the kernel, the rank-one
    # pair and g_rho tabulated on 384 grid nodes, at the finite-difference levels
    rho = 0.9
    tables = _rho_tables(a, t, rho)
    m = kernels.packed_gram_order(a, t)
    h = 1e-3 * (1.0 + a * t)
    for s in (-h, 0.0, h):
        bordered, _, left = kernels.stat_components(a, t, s, tables)
        assert bordered.shape == (m + 1, m + 1) and left.shape[1] == m + 1
        row, _ = kernels.stat_rho_pieces(a, t, s, rho, tables, left)
        gram = bordered[:m, :m]
        s_gram = row[m] + row[:m] @ np.linalg.solve(np.eye(m) - gram, bordered[:m, m])
        det1, det2, s_grid = _nystrom_stat(a, t, s, rho, tables)
        assert abs(np.linalg.det(np.eye(m) - gram) - det1) <= 1e-12
        assert abs(np.linalg.det(np.eye(m + 1) - bordered) - det2) <= 1e-12
        assert abs(s_gram - s_grid) <= 1e-12


def _saddle_scaled_tables(a, t, m):
    """finite_tables of particle t with fw and fz shifted by t H(w-) and t H(w+).

    The stationary weights then carry e^{t (H(w) - H(w-))} and
    e^{t (H(w+) - H(z))}, and the pairings keep every entry of order one at
    any t and a, where the true-scale weights underflow; the series and
    Cauchy routes must agree on any weights.
    """
    tables = kernels.finite_tables(t, t, contours.build_packed_contours(a, t), m)
    w_minus, w_plus = rates.saddle_points(a)
    w, dw, fw, z, dz, fz = tables[:6]
    return (w, dw, fw - t * rates.phase_packed(w_minus, a),
            z, dz, fz - t * rates.phase_packed(w_plus, a)) + tables[6:]


def _finite_weights(a, t, tables):
    """finite_gram's own contour weights at n = t and s = (2 + a) t.

    They carry e^{f(w) - f(w-)} and e^{f(w+) - f(z)}, with the saddles of
    finite_anchors.  The e^{t (H(w) - H(w-))} of _saddle_scaled_tables, or
    the w- of saddle_points, round differently, and from t = 256 the Gram
    would then differ from its reference by more than 1e-13.
    """
    n, s = t, (2 + a) * t
    w_minus, w_plus = contours.finite_anchors(n, t, s)
    f_lo = rates._f_vals(w_minus, n, t, s).real
    f_hi = rates._f_vals(w_plus, n, t, s).real
    aw, bz = kernels.saddle_weights(tables, s, f_lo, f_hi, f"s = {s}")
    return tables[0], aw, tables[3], bz


def _cauchy_gram(w, aw, z, bz, m):
    """The moment Gram of order m through 1/(w - z) whole."""
    w_mom = aw[:, None] * np.vander(1.0 / w, m + 1, increasing=True)[:, 1:]
    z_mom = bz[:, None] * np.vander(z, m, increasing=True)
    return -kernels._DOUBLE_PREF * (z_mom.T @ ((1.0 / np.subtract.outer(w, z)).T @ w_mom))


def _cauchy_double_sums(a, t, s, rho, tables, left):
    """The bordered Gram and the rho row through 1/(w - z) whole.

    They follow stat_components and stat_rho_pieces with the series
    replaced by the n_w x n_z Cauchy matrix, on the same weights.
    """
    w, aw_s, z, bz_s = _stat_factors(a, t, s, tables)
    m = tables[6].shape[1]
    two_pi_i = 2j * np.pi
    cauchy = 1.0 / np.subtract.outer(w, z)
    right = bz_s[:, None] * np.column_stack((np.vander(z, m, increasing=True),
                                             1.0 / (two_pi_i * (z + 1.0))))
    coupled = cauchy @ right
    f_star = aw_s / two_pi_i * (1.0 / (w + 1.0) + coupled[:, m])
    full_left = np.column_stack(((kernels._DOUBLE_PREF * aw_s)[:, None]
                                 * np.vander(1.0 / w, m + 1, increasing=True)[:, 1:], f_star))
    bordered = -(coupled.T @ full_left)
    bordered[m] -= (1.0 / (w + 1.0)) @ full_left
    res_s = np.exp(-t * rates.phase_packed(-rho, a) - (1.0 - rho) * s)
    row = -(res_s / (w + rho) + cauchy @ (bz_s / (z + rho)) / two_pi_i) @ left
    return bordered, row


@pytest.mark.parametrize("t", [1, 2, 4, 16, 64, 256, 1024])
@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 5.0, 30.0])
def test_moment_grams_match_the_cauchy_double_sum(t, a):
    # the Cauchy factor through its series, cut at m: exact at m = t (every
    # term with j + l >= t integrates to zero), |w+|^(2m) <= 1e-18 below it
    rho = 0.9
    m = kernels.packed_gram_order(a, t)
    scaled = _saddle_scaled_tables(a, t, m)
    assert scaled[6].shape[1] == scaled[7].shape[1] == m and m <= t
    assert np.abs(scaled[3]).max() < 0.9 * rho   # stat_rho_pieces keeps the circle
    # the packed Gram is particle t's at level (2 + a) t, where rho = 1
    tables = kernels.finite_tables(t, t, contours.build_packed_contours(a, t), m)
    gram = kernels.finite_gram(t, t, (2 + a) * t, tables)[0]
    ref_gram = _cauchy_gram(*_finite_weights(a, t, tables), m)
    for s in (-0.25, 0.0, 0.5):
        bordered, _, left = kernels.stat_components(a, t, s, scaled)
        row = kernels.stat_rho_pieces(a, t, s, rho, scaled, left)[0]
        ref_bordered, ref_row = _cauchy_double_sums(a, t, s, rho, scaled, left)
        for new, ref in ((gram, ref_gram), (bordered, ref_bordered), (row, ref_row)):
            assert np.abs(ref).max() > 0.0
            assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


def test_stat_components_boundary_remainder_and_rho_pairing():
    a, t, rho = 1.0, 4, 0.9
    tables = _rho_tables(a, t, rho)
    factors = _stat_factors(a, t, 0.0, tables)
    h = 1e-5
    for s in (0.0, 0.5, 2.0):
        # the boundary remainder from Fhat_t = s + a t + Rhat_t(s) - 1
        r_hat = [kernels.stat_components(a, t, u, tables)[1] - u - a * t + 1.0
                 for u in (s - h, s + h)]
        # derivative identity d/ds r_hat = g_one(s) - 1, by central differences
        np.testing.assert_allclose((r_hat[1] - r_hat[0]) / (2 * h),
                                   _circle_sum(factors, s, 1.0)[0].real, atol=1e-9)
        # <g_rho, 1> against the quadrature of g_rho over (s, infinity)
        left = np.zeros((tables[0].size, 1))
        pair = kernels.stat_rho_pieces(a, t, s, rho, tables, left)[1]

        def g_rho(x):
            residue = np.exp(-t * rates.phase_packed(-rho, a) - (1.0 - rho) * x)
            return (residue + _circle_sum(factors, x, rho)[0]).real

        np.testing.assert_allclose(pair, integrate.quad(g_rho, s, np.inf)[0], rtol=1e-9)


def test_stat_rho_pieces_rejects_wide_circle():
    a, t = 1.0, 4
    tables = kernels.finite_tables(t, t, contours.build_packed_contours(a, t),
                                   kernels.packed_gram_order(a, t))
    with pytest.raises(NumericFailure):
        kernels.stat_rho_pieces(a, t, 0.0, 0.05, tables, np.zeros((1, 1)))


@pytest.mark.parametrize("fn, xi1, xi2", [
    (kernels.khat_packed, -1000.0, 0.0),
    (kernels.khat_packed, 0.0, -1000.0),
])
def test_pointwise_kernels_raise_when_the_exponentials_overflow(fn, xi1, xi2):
    # negative offsets leave the steep-descent bound and the value is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailure, match="not finite") as info:
            fn(1.0, 4, xi1, xi2)
    assert "-1000.0" in info.value.hint
