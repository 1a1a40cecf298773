import numpy as np
import pytest

from bmtails import rates
from bmtails.errors import NumericFailure
from bmtails.lambertw import phi


A_GRID = np.logspace(-2, 2, 50)

# frozen reference values at a = 1 (high-precision root finds, checked against
# an independent multiprecision run)
REF = {
    "w_minus": -2.618033988749895,
    "w_plus": -0.38196601125010515,
    "h_minus": -0.9646273330056354,
    "h_plus": 0.4646273330056354,
    "r_packed": 1.4292546660112708,
    "r_stat": 0.4646273330056354,
    "z_a": -2.4075760858158044,
    "phi_z_a": -0.2895588309029712,
    "r_flat": 1.379745363606539,
    "eta": -149.57744542388616,
}


def test_reference_point_a_equals_one():
    w_minus, w_plus = rates.saddle_points(1.0)
    np.testing.assert_allclose(w_minus, REF["w_minus"], rtol=1e-14)
    np.testing.assert_allclose(w_plus, REF["w_plus"], rtol=1e-14)
    d = rates.saddle_packed(1.0)
    np.testing.assert_allclose(d.phase_lo, REF["h_minus"], rtol=1e-13)
    np.testing.assert_allclose(d.phase_hi, REF["h_plus"], rtol=1e-13)
    np.testing.assert_allclose(rates.rate_packed(1.0), REF["r_packed"], rtol=1e-13)
    np.testing.assert_allclose(rates.rate_stat(1.0), REF["r_stat"], rtol=1e-13)
    f = rates.rate_flat(1.0)
    np.testing.assert_allclose(f.saddle_lo, REF["z_a"], rtol=1e-12)
    np.testing.assert_allclose(f.saddle_hi, REF["phi_z_a"], rtol=1e-12)
    np.testing.assert_allclose(f.rate, REF["r_flat"], rtol=1e-12)
    np.testing.assert_allclose(f.second_deriv[0], REF["eta"], rtol=1e-11)


# 25-digit values of the closed forms (mpmath, 40 digits); 1 + a/2 -
# sqrt(a + a^2/4) cancels at large a, so the rates must not be formed from it
@pytest.mark.parametrize("a, r_stat, r_packed", [
    (30.0, 27.03475285606512915719621, 504.0695057121302583143924),
    (100.0, 95.87507524977475807388717, 5191.750150499549516147774),
])
def test_closed_form_rates_at_large_a(a, r_stat, r_packed):
    np.testing.assert_allclose(rates.rate_stat(a), r_stat, rtol=5e-16, atol=0)
    np.testing.assert_allclose(rates.rate_packed(a), r_packed, rtol=5e-16, atol=0)


def test_saddle_residuals_on_grid():
    for a in A_GRID:
        w_minus, w_plus = rates.saddle_points(a)
        assert abs(rates.phase_packed_d1(w_minus, a)) <= 1e-12
        assert abs(rates.phase_packed_d1(w_plus, a)) <= 1e-12
        assert w_minus * w_plus == pytest.approx(1.0, rel=1e-14)


def test_flat_saddle_residuals_on_grid():
    for a in A_GRID:
        z_a = rates.solve_za(a)
        assert abs((z_a + 1.0) * (phi(z_a) + 1.0) + a) <= 1e-12 * (1.0 + a)


def test_solve_za_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def g(z, a):
            return (z + 1) * (mpmath.re(mpmath.lambertw(z * mpmath.exp(z))) + 1) + a

        for a in np.geomspace(1e-4, 1e3, 60):
            z_a = rates.solve_za(a)
            ref = mpmath.findroot(lambda z: g(z, mpmath.mpf(a)), mpmath.mpf(z_a))
            assert abs((z_a - ref) / ref) <= 1e-15


def test_rate_flat_against_mpmath():
    # the 50 rows of `bmtails rates`; forming (z + p)/2 + 1 + a cancelled terms
    # of order 1 and left 1.4e-14 at a = 0.0176
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for a in np.geomspace(0.01, 10.0, 50):
            f = rates.rate_flat(a)
            aa = mpmath.mpf(a)
            z = mpmath.findroot(
                lambda z: (z + 1) * (mpmath.re(mpmath.lambertw(z * mpmath.exp(z))) + 1) + aa,
                mpmath.mpf(f.saddle_lo))
            p = mpmath.re(mpmath.lambertw(z * mpmath.exp(z)))
            ref = (p - z) * ((z + p) / 2 + 1 + aa)
            assert abs((f.rate - ref) / ref) <= 5e-15


@pytest.mark.parametrize("a", [1e17, 1e100])
def test_solve_za_at_large_a(a):
    # phi(-1 - a) underflows to 0, so -1 - a is the root to double precision;
    # the bracket end -3 - a rounds to -a above about 3.6e16
    z_a = rates.solve_za(a)
    assert z_a == -1.0 - a
    assert (z_a + 1.0) * (phi(z_a) + 1.0) + a == 0.0
    # r_flat = (phi - z)((z + phi)/2 + 1 + a) = (1 + a)^2 / 2 once phi is 0
    assert rates.rate_flat(a).rate == pytest.approx((1.0 + a) ** 2 / 2.0, rel=1e-15)


def test_flat_curvature_refuses_overflow():
    # (z_a + 1)^2 overflows with a * a; at 1e150 the flat diagnostics are finite
    assert np.isfinite(rates.rate_flat(1e150).second_deriv[0])
    with pytest.raises(NumericFailure, match=r"not finite at a = 1e\+155"):
        rates.rate_flat(1e155)


def test_solve_za_raises_when_newton_runs_out_of_steps(monkeypatch):
    monkeypatch.setattr(rates, "_ZA_MAX_ITER", 1)
    with pytest.raises(NumericFailure, match="did not converge"):
        rates.solve_za(1.0)


def test_closed_forms_match_phase_values():
    """The closed rates equal the phase function evaluated at the saddles."""
    for a in A_GRID:
        d = rates.saddle_packed(a)
        assert abs(rates.rate_stat(a) - d.phase_hi) <= 1e-12
        assert abs(rates.rate_packed(a) - (d.phase_hi - d.phase_lo)) <= 1e-12


def test_flat_rate_is_grid_maximum_of_minus_g():
    for a in (0.01, 0.1, 1.0, 10.0, 100.0):
        f = rates.rate_flat(a)
        z_a = f.saddle_lo
        span = max(0.5, 0.2 * abs(z_a))
        zs = np.linspace(z_a - span, min(-1.0 - 1e-9, z_a + span), 20001)
        p = phi(zs)
        g = (zs * zs - p * p) / 2.0 + (1.0 + a) * (zs - p)
        assert abs(f.rate - (-g).max()) <= 1e-8


def test_rate_ordering_and_monotonicity():
    prev = None
    for a in A_GRID:
        rp = rates.rate_packed(a)
        rf = rates.rate_flat(a).rate
        rs = rates.rate_stat(a)
        # more constrained starts deviate harder
        assert rp > rf > rs > 0
        if prev is not None:
            assert rp > prev[0] and rf > prev[1] and rs > prev[2]
        prev = (rp, rf, rs)


def test_asymptote_values():
    a = 1e-4
    assert abs(rates.rate_flat(a).rate - rates.rate_asymptote("flat", a, "small")) <= 5 * a * a
    assert abs(rates.rate_stat(a) - rates.rate_asymptote("stationary", a, "small")) <= 5 * a * a
    assert abs(rates.rate_flat(20.0).rate - rates.rate_asymptote("flat", 20.0, "large")) <= 1e-3
    # the large-a stationary expansion carries a -2/a remainder, so the gap
    # at a = 30 sits near 0.064 rather than inside 0.05
    gap = rates.rate_stat(30.0) - rates.rate_asymptote("stationary", 30.0, "large")
    np.testing.assert_allclose(gap, -2.0 / 30.0, atol=4e-3)


def test_rate_flat_refuses_tiny_a():
    # the closed form cancels to a relative error of about 1e-16 / a^1.5
    with pytest.raises(NumericFailure) as info:
        rates.rate_flat(1e-8)
    assert 'rate_asymptote("flat"' in info.value.hint


@pytest.mark.parametrize("rate", [rates.rate_packed, rates.rate_stat])
def test_closed_form_rates_refuse_overflow(rate):
    # a * a overflows above a of about 1.3e154; at 1e150 the rates are finite
    assert np.isfinite(rate(1e150))
    with pytest.raises(NumericFailure, match=r"not finite at a = 1e\+155"):
        rate(1e155)


def test_phase_packed_rejects_cut():
    with pytest.raises(ValueError):
        rates.phase_packed(0.5, 1.0)


def test_invalid_a_rejected():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises((ValueError, TypeError)):
            rates.rate_packed(bad)


def test_second_derivative_signs():
    for a in (0.1, 1.0, 10.0):
        d = rates.saddle_packed(a)
        # minimum along the vertical line, maximum around the circle
        assert d.second_deriv[0] > 0
        assert d.second_deriv[1] < 0
        assert rates.rate_flat(a).second_deriv[0] < 0


@pytest.mark.parametrize("ic", ["flat", "stationary"])
def test_small_a_asymptote_refuses_overflow(ic):
    # a^1.5 overflows above a of about 3e205; at 1e200 the asymptotes are finite
    assert np.isfinite(rates.rate_asymptote(ic, 1e200, "small"))
    with pytest.raises(NumericFailure, match=r"not finite at a = 1e\+300"):
        rates.rate_asymptote(ic, 1e300, "small")
