import dataclasses

import numpy as np
import pytest

from bmtails import contours, rates
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
