import numpy as np
import pytest

from bmtails.lambertw import lambert_w, phi, phi_prime, solve_wexpw


EM1 = np.exp(-1.0)


def sample_box(seed, count):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    return z[np.abs(z) > 1e-3]


@pytest.mark.parametrize("branch", [-2, -1, 0, 1, 2])
def test_defining_identity_on_random_points(branch):
    z = sample_box(7, 10_000)
    w = lambert_w(branch, z)
    resid = np.abs(w * np.exp(w) - z)
    assert np.all(resid <= 1e-12 * (1.0 + np.abs(z)))


def _mp_lambert(k, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([complex(mpmath.lambertw(mpmath.mpc(v.real, v.imag), int(b)))
                         for b, v in np.broadcast(k, z)])


@pytest.mark.parametrize("branch", [-2, -1, 0, 1, 2])
def test_agrees_with_mpmath(branch):
    z = sample_box(11, 200)
    w = lambert_w(branch, z)
    np.testing.assert_allclose(w, _mp_lambert(branch, z), rtol=1e-14, atol=0)


def test_array_of_branches_broadcasts():
    z = sample_box(13, 40)
    k = np.arange(-3, 4)[:, None]
    w = lambert_w(k, z)
    assert w.shape == (7, z.size)
    np.testing.assert_allclose(w.ravel(), _mp_lambert(k, z), rtol=1e-14, atol=0)
    np.testing.assert_array_equal(w[3], lambert_w(0, z))
    # one argument on several branches, and W_k(0) named by its branch
    np.testing.assert_array_equal(lambert_w(np.array([-1, 0]), -EM1), [-1.0, -1.0])
    with pytest.raises(ValueError, match="W_2"):
        lambert_w(np.array([0, 2]), 0.0)
    with pytest.raises(ValueError, match="integer"):
        lambert_w(np.array([0.0, 1.0]), 1.0)


def test_known_values():
    # principal branch at -0.2, real
    np.testing.assert_allclose(
        lambert_w(0, -0.2), -0.2591711018190738, rtol=1e-14
    )
    # omega constant
    np.testing.assert_allclose(
        lambert_w(0, 1.0).real, 0.5671432904097838, rtol=1e-14
    )
    assert lambert_w(0, 1.0).imag == 0.0


def test_branch_point_snap():
    """Within 1e-12 of -1/e the branches 0 and -1 both return exactly -1."""
    for k in (0, -1):
        w = lambert_w(k, -EM1)
        assert w == -1.0
        w = lambert_w(k, -EM1 + 5e-13)
        assert w == -1.0


def test_real_line_branches_stay_real():
    x = np.linspace(-EM1 + 1e-8, 20.0, 500)
    w0 = lambert_w(0, x)
    assert np.abs(w0.imag).max() == 0.0
    assert np.all(np.diff(w0.real) > 0)

    xm = np.linspace(-EM1 + 1e-8, -1e-8, 500)
    wm = lambert_w(-1, xm)
    assert np.abs(wm.imag).max() == 0.0
    assert np.all(wm.real <= -1.0)


def test_phi_values_and_derivative():
    np.testing.assert_allclose(phi(-2.0), -0.40637573995996, rtol=1e-13)
    np.testing.assert_allclose(phi_prime(-2.0), -0.34228363572316767, rtol=1e-13)
    # phi solves phi e^phi = z e^z
    for z in (-1.5, -2.0, -5.0, -12.0):
        p = phi(z)
        assert -1.0 < p < 0.0
        np.testing.assert_allclose(p * np.exp(p), z * np.exp(z), rtol=1e-13)
    # derivative against central differences
    h = 1e-6
    fd = (phi(-2.0 + h) - phi(-2.0 - h)) / (2 * h)
    np.testing.assert_allclose(phi_prime(-2.0), fd, rtol=1e-8)


def test_phi_vectorized_matches_scalar():
    z = np.linspace(-8.0, -1.1, 40)
    vec = phi(z)
    scl = np.array([phi(float(v)) for v in z])
    # scalars and arrays share one path
    np.testing.assert_array_equal(vec, scl)
    assert all(type(phi(v)) is float for v in (-3.0, -1.05, -0.5, np.float64(-2.0)))
    # the identity part passes through untouched
    mixed = np.array([-3.0, -0.5, 0.7])
    np.testing.assert_array_equal(phi(mixed)[1:], mixed[1:])


@pytest.mark.parametrize("z", [np.array([-2 + 0.1j]), -2 + 0.1j])
def test_phi_rejects_non_real_input(z):
    with pytest.raises(ValueError, match="real"):
        phi(z)


@pytest.mark.parametrize("k", range(3, 13))
def test_phi_scalar_near_branch_point(k):
    # scalars and arrays take phi from its reflection series here, where the
    # defining equation has a double root; phi(z) + 1 is of order z + 1
    z = -1.0 - 10.0 ** -k
    scl = phi(z)
    assert np.isfinite(scl)
    np.testing.assert_allclose(scl, phi(np.array([z]))[0], rtol=0, atol=2 * 10.0 ** -k)


@pytest.mark.parametrize("k", range(3, 13))
def test_phi_reflection_series_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    z = -1.0 - 10.0 ** -k
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        ref = float(mpmath.re(mpmath.lambertw(zm * mpmath.exp(zm))))
    assert abs(phi(z) - ref) <= 2e-16
    assert abs(phi(np.array([z]))[0] - ref) <= 2e-16


def test_phi_both_paths_against_mpmath():
    # series inside eps <= 0.12, the Lambert / bracketed solve outside it
    mpmath = pytest.importorskip("mpmath")
    z = -1.0 - np.logspace(-12, 0, 200)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.re(mpmath.lambertw(mpmath.mpf(v) * mpmath.exp(v))))
                        for v in z])
    np.testing.assert_allclose(phi(z), ref, rtol=0, atol=2e-15)
    np.testing.assert_allclose([phi(float(v)) for v in z], ref, rtol=0, atol=2e-15)


def test_phi_just_outside_series_window_against_mpmath():
    # the Newton step on the log form keeps the digits that w e^w = z e^z
    # loses near its double root (1e-15 with the plain step)
    mpmath = pytest.importorskip("mpmath")
    z = -1.0 - np.linspace(0.1201, 1.0, 200)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.re(mpmath.lambertw(mpmath.mpf(v) * mpmath.exp(v))))
                        for v in z])
    np.testing.assert_allclose(phi(z), ref, rtol=0, atol=3e-16)


def test_solve_wexpw_tracks_seed_branch():
    # the continuation solve behind the spiral tests: target just off the real
    # locus, seeded with the real solution, must stay on the same sheet
    z0 = -2.4
    target = z0 * np.exp(z0) * np.exp(0.05j)
    g = solve_wexpw(target, z0)
    np.testing.assert_allclose(g * np.exp(g), target, rtol=1e-12)
    assert abs(g - z0) < 0.2
