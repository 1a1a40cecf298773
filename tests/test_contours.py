import dataclasses

import numpy as np
import pytest

from bmtails import contours, kernels, rates
from bmtails.errors import NumericFailure
from bmtails.lambertw import solve_wexpw
from bmtails.rates import _g_vals, _h_vals


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("t", [1, 4, 16])
def test_packed_contours_geometry(a, t):
    line, circle = contours.build_packed_contours(a, t)
    w_minus, w_plus = rates.saddle_points(a)
    assert np.allclose(line.nodes.real, w_minus)
    assert abs(line.nodes[len(line.nodes) // 2] - w_minus) < 1e-12
    np.testing.assert_allclose(np.abs(circle.nodes), -w_plus, rtol=1e-12)
    # circle weights sum to zero for a closed loop, line weights to i*length
    assert abs(circle.weights.sum()) < 1e-10
    # trapezoid weights on the line integrate a constant to i * (2 y_max)
    total = line.weights.sum()
    assert abs(total.real) < 1e-12
    assert total.imag > 0


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_steep_descent_certificates(a):
    t = 4
    line, circle = contours.build_packed_contours(a, t)
    assert contours.steep_descent_report(line, _h_vals(line.nodes, a).real, 0.1) > 0
    assert contours.steep_descent_report(circle, -_h_vals(circle.nodes, a).real, 0.1) > 0

    path = contours.build_flat_contour(a)
    g_real = _g_vals(path.nodes, path.phi_nodes, a).real
    assert contours.steep_descent_report(path, g_real, 0.1) > 0


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_flat_spiral_stays_on_level_set(a):
    f = rates.rate_flat(a)
    z_a = f.saddle_lo
    path = contours.build_flat_contour(a)
    mid = np.argmin(np.abs(path.params))
    assert abs(path.nodes[mid] - z_a) < 1e-10
    # gamma e^gamma runs along the circle through z_a e^{z_a}
    level = np.abs(z_a * np.exp(z_a))
    np.testing.assert_allclose(
        np.abs(path.nodes * np.exp(path.nodes)), level, rtol=1e-9
    )
    # mirror symmetry of the two half-turns
    np.testing.assert_allclose(
        path.nodes, np.conj(path.nodes[::-1]), atol=1e-12
    )
    # companion phi nodes solve the same pre-image equation on the sheet
    # through the unit disc (W0 is analytic on the whole pre-image circle)
    pre_image = z_a * np.exp(z_a) * np.exp(2j * np.pi * path.params)
    np.testing.assert_allclose(
        path.phi_nodes * np.exp(path.phi_nodes), pre_image, rtol=1e-9
    )
    assert np.abs(path.phi_nodes).max() < 1.0
    assert -1.0 < path.phi_nodes[mid].real < 0.0


def test_line_halfwidth_shrinks_with_t():
    a = 1.0
    n_prev = None
    for t in (1, 4, 16, 64):
        line, _ = contours.build_packed_contours(a, t)
        span = line.nodes.imag.max()
        if n_prev is not None:
            assert span < n_prev
        n_prev = span


def test_builders_validate_density_and_window():
    with pytest.raises(ValueError, match="points_per_unit"):
        contours.build_packed_contours(1.0, 4, points_per_unit=4)
    with pytest.raises(ValueError, match="points_per_unit"):
        contours.build_flat_contour(1.0, points_per_unit=4)
    with pytest.raises(ValueError, match="points_per_unit"):
        contours.flat_contour_for(1.0, 4, points_per_unit=4)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tau_max"):
            contours.build_flat_contour(1.0, tau_max=bad)


@pytest.mark.parametrize("t, a, tau", [(2, 0.03, 0.697), (1, 0.01, 1.497), (4, 1.0, 0.608),
                                       (256, 0.03, 0.031)])
def test_flat_window_ends_where_the_phase_is_below_the_truncation_tolerance(t, a, tau):
    # at small a and t, e^{tG} at the end of the Gaussian window is up to
    # 5e-3 of its saddle value, and the window doubles (tau 0.348 and 0.374
    # here, once and twice); at (4, 1) and (256, 0.03) the Gaussian one holds
    saddle = rates.rate_flat(a)
    path = contours.flat_contour_for(a, t, saddle=saddle)
    assert t * (_g_vals(path.nodes[-1], path.phi_nodes[-1], a).real + saddle.rate) <= np.log(1e-12)
    assert path.params[-1] == pytest.approx(tau, abs=2e-3)


def test_steep_descent_flags_bad_contour():
    line, _ = contours.build_packed_contours(1.0, 4)
    # a phase that rises away from the critical point on purpose
    rigged = -_h_vals(line.nodes, 1.0).real
    assert contours.steep_descent_report(line, rigged, 0.1) <= 0


def test_flat_march_accuracy_survives_coarse_stepping():
    # the minimum allowed resolution must still keep every node on the
    # level set, otherwise the continuity guard would have tripped
    path = contours.build_flat_contour(1.0, points_per_unit=8)
    z_a = rates.solve_za(1.0)
    level = np.abs(z_a * np.exp(z_a))
    np.testing.assert_allclose(
        np.abs(path.nodes * np.exp(path.nodes)), level, rtol=1e-8
    )


def _continued_spiral(z_a, ppu, n_steps):
    """The tau >= 0 half of the spiral traced node by node: an Euler predictor
    along gamma' = 2 pi i gamma / (1 + gamma), then a Halley solve from it,
    which stays on the predictor's sheet through every branch switch."""
    base = z_a * np.exp(z_a)
    gam = [complex(z_a)]
    for j in range(1, n_steps + 1):
        g = gam[-1]
        seed = g + 2j * np.pi * g / (1.0 + g) / ppu
        gam.append(complex(solve_wexpw(base * np.exp(2j * np.pi * j / ppu), seed)))
    return np.array(gam)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("ppu", [8, 64, 392])
def test_flat_spiral_branches_match_continuation(a, ppu):
    # gamma_j = W_ceil(tau_j) lands every node, integer tau included, on
    # the sheet that analytic continuation from z_a reaches
    path = contours.build_flat_contour(a, points_per_unit=ppu, tau_max=6.0)
    z_a = rates.solve_za(a)
    n = 6 * ppu
    assert path.nodes[n] == z_a
    ref = _continued_spiral(z_a, ppu, n)
    np.testing.assert_allclose(path.nodes[n:], ref, rtol=1e-10, atol=0)
    # the target phase reduced by whole turns first, so that it carries no
    # rounding of 2 pi tau at large tau
    j = np.arange(-n, n + 1)
    zeta = z_a * np.exp(z_a) * np.exp(2j * np.pi * np.mod(j, ppu) / ppu)
    resid = np.abs(path.nodes * np.exp(path.nodes) - zeta)
    assert np.all(resid <= 1e-14 * np.abs(zeta))


def test_flat_spiral_guard_catches_a_wrong_branch(monkeypatch):
    true_w = contours.lambert_w
    ppu = None

    def off_by_one(k, z):
        k = np.array(k)
        if k.ndim:
            k[21 * ppu // 8 - 1] += 1  # tau = 21/8 put on the next sheet
        return true_w(k, z)

    monkeypatch.setattr(contours, "lambert_w", off_by_one)
    # at 8 points per unit the slip, about 6.3, is 8 tangent steps
    for ppu in (64, 8):
        with pytest.raises(NumericFailure, match="lost continuity") as info:
            contours.build_flat_contour(1.0, points_per_unit=ppu)
        assert "offending tau = 2.625000" in info.value.hint


def test_paths_are_frozen_and_finite():
    line, circle = contours.build_packed_contours(1.0, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        line.params = np.zeros(3)
    assert np.isfinite(line.nodes).all() and np.isfinite(circle.weights).all()


@pytest.mark.parametrize("route", ["packed", "raw"])
def test_line_nodes_are_exact_multiples_of_the_step(route):
    # every node is exactly step * (j - m), so the conjugate of each node is
    # a node, on the packed line and on the particle-n line of the bulk
    if route == "packed":
        line, _ = contours.build_packed_contours(1.0, 4)
    else:
        line, _ = contours.build_finite_contours(5, 1.0, contours.finite_anchors(5, 1.0, 0.5))
    y = line.params
    m = (y.size - 1) // 2
    step = y[m + 1]
    assert y.size % 2 == 1
    np.testing.assert_array_equal(y[::-1], -y)
    np.testing.assert_array_equal(y, step * np.arange(-m, m + 1))
    np.testing.assert_array_equal(line.weights[1:-1], 1j * step)


def test_line_rejects_even_counts():
    with pytest.raises(ValueError, match="odd"):
        contours._line(-1.0, 2.0, 8)


def _layout(path):
    return path.nodes, path.weights, path.params, path.phi_nodes


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("fine, coarse", [
    (lambda: contours._line(-1.3, 7.0, 81), lambda: contours._line(-1.3, 7.0, 41)),
    (lambda: contours._circle(-0.7, 64), lambda: contours._circle(-0.7, 32)),
    (lambda: contours.flat_contour_for(1.0, 4, 2 * contours.POINTS_PER_UNIT),
     lambda: contours.flat_contour_for(1.0, 4)),
], ids=["line", "circle", "flat spiral (4, 1)"])
def test_sub_rule_is_the_half_density_layout_where_counts_nest(fine, coarse):
    # 2 m + 1 = 81 line nodes hold those of 41, 64 circle nodes those of 32,
    # and the x2 spiral of flat (4, 1) the 239 nodes of the x1 one, bit for bit
    _assert_same_bits(_layout(contours.sub_path(fine())), _layout(coarse()))


def test_sub_rule_of_the_finite_tables_is_the_half_density_tables():
    # the line and circle of particle 5 at t = 1 below the edge, laid out at
    # two densities whose counts nest: the tables on the sub-rule are the
    # half-density tables, and halving the fine tables forms no new value
    c, w_hi = contours.finite_anchors(5, 1.0, 2.5)
    layouts = [(contours._line(c, 6.0, 2 * k + 1), contours._circle(w_hi, k)) for k in (80, 40)]
    fine, coarse = (kernels.finite_tables(5, 1.0, layout, 10) for layout in layouts)
    sub = kernels.finite_tables(5, 1.0, [contours.sub_path(path) for path in layouts[0]], 10)
    _assert_same_bits(sub, coarse)
    _assert_same_bits(kernels.sub_tables(fine), sub)
    # finite_gram's sub-rule Gram is the half-density Gram up to the order of
    # its sums
    gram, sub_gram, log_scale = kernels.finite_gram(5, 1.0, 2.5, fine)
    half_gram, _, half_scale = kernels.finite_gram(5, 1.0, 2.5, coarse)
    assert log_scale == half_scale
    np.testing.assert_allclose(sub_gram, half_gram, rtol=0, atol=1e-14 * np.abs(half_gram).max())


@pytest.mark.parametrize("count", [81, 83])
def test_sub_rule_integrates_on_the_line_to_trapezoid_accuracy(count):
    # on w = c + i y, e^{(w - c)^2 / 2} dw integrates to i sqrt(2 pi); the
    # trapezoid rule with step 0.45 or 0.439 on (-9, 9), where the Gaussian
    # falls below 3e-18, is exact to rounding (its error is about e^{-2 pi^2 / h^2})
    nodes, weights, params, _ = _layout(contours.sub_path(contours._line(-1.3, 9.0, count)))
    value = np.sum(np.exp((nodes + 1.3) ** 2 / 2.0) * weights)
    np.testing.assert_allclose(value, 1j * np.sqrt(2.0 * np.pi), rtol=1e-14)
    # and the weights sum to i times the span they cover: with m = 41 odd
    # the sub-rule keeps neither end node, and each of its m nodes weighs 2 step
    span = params[-1] - params[0] + (params[1] - params[0]) * (count % 4 == 3)
    np.testing.assert_allclose(np.sum(weights), 1j * span, rtol=1e-14)


@pytest.mark.parametrize("count", [64, 76])
def test_sub_rule_integrates_on_the_circle_to_trapezoid_accuracy(count):
    # the oint of e^z / z^3 dz / (2 pi i) is 1 / 2, and of z^k dz zero for
    # 0 <= k < count / 2 - 1; the periodic trapezoid rule is exact to rounding
    nodes, weights, _, _ = _layout(contours.sub_path(contours._circle(-0.7, count)))
    assert nodes.size == count // 2
    np.testing.assert_allclose(np.sum(np.exp(nodes) / nodes ** 3 * weights) / (2j * np.pi), 0.5,
                               rtol=1e-14)
    for k in range(count // 2 - 1):
        assert abs(np.sum(nodes ** k * weights)) <= 1e-14


@pytest.mark.parametrize("path", [
    contours._line(-1.3, 7.0, 23),
    contours._circle(-0.7, 38),
    contours.build_flat_contour(1.0, 8, tau_max=1.125),
], ids=["line m = 11", "circle count / 2 = 19", "spiral 9 steps"])
def test_sub_rule_with_an_odd_centre_keeps_the_critical_node_and_the_symmetry(path):
    # the critical node sits at an odd index: the sub-rule takes the odd
    # nodes, so it keeps params 0 and the node conjugate to each of its nodes
    centre = int(np.argmin(np.abs(path.params)))
    assert centre % 2 == 1 and contours.sub_rule(path.nodes) == slice(1, None, 2)
    nodes, weights, params, _ = _layout(contours.sub_path(path))
    assert params[nodes.size // 2] == 0.0 and nodes[nodes.size // 2] == path.nodes[centre]
    np.testing.assert_allclose(nodes[::-1], nodes.conj(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights[::-1], -weights.conj(), rtol=0, atol=1e-15)
    if path.phi_nodes is not None:
        # the spiral is conjugate-symmetric bit for bit
        np.testing.assert_array_equal(nodes[::-1], nodes.conj())
