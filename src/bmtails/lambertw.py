"""Multi-branch Lambert W and the left-to-right collision map phi.

The Lambert W function solves w*exp(w) = z.  lambert_w is
scipy.special.lambertw with the branch cuts of Corless et al., Adv.
Comput. Math. 5 (1996), broadcast over an array of branches, plus the
argument checks and an exact -1 at the branch point z = -1/e.  The cuts
lie on the real axis, so W_k(conj z) = conj(W_{-k}(z)) off them, and on
branch 0 the flat spiral takes phi on its tau >= 0 half only.
scipy.special is imported on the first call of lambert_w, or of phi
beyond its series window, so that importing the package, and every route
but the flat one, loads no scipy.
solve_wexpw is a Halley iteration on f(w) = w*exp(w) - z from an explicit
seed, run until |w e^w - z| <= 1e-13 (1 + |z|): it follows whichever
sheet the seed lies on, which makes it a reference for analytic
continuation.

phi maps a real z < -1 to the conjugate solution of w*exp(w) = z*exp(z)
inside (-1, 0); on z >= -1 it is the identity.  Within 0.12 below z = -1,
where that equation has a double root and loses digits, phi is taken
from its reflection series; further out it is W_0(z e^z) with one Newton
step, taken on the equation's log form within 1 of z = -1.  Scalars and
arrays take the same path.  phi shows up as the image of the steep-descent
variable in the flat-start kernel, so its derivative identity
phi'(z) * z * (1 + phi) = (1 + z) * phi is exposed as well.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure, SingularityError

_EM1 = np.exp(-1.0)         # 1/e
_BP_SNAP = 1e-12            # snap-to-branch-point radius
_PHI_SERIES = 0.12          # phi(-1 - eps) from its reflection series for eps <= this
# phi(-1 - eps) = -1 + eps (1 - 2 eps/3 + 4 eps^2/9 - ...), highest power first;
# the first omitted term is 8407858707080704 eps^18 / 125364292963284375 < 2e-18
# inside the window
_PHI_COEFFS = (
    886909037097472.0 / 12463116844303125.0, -314833934543872.0 / 4154372281434375.0,
    11547336704.0 / 142492618125.0, -9352282112.0 / 107417512125.0,
    893393408.0 / 9499507875.0, -1441952704.0 / 14105329875.0,
    89072576.0 / 795685275.0, -23429344.0 / 189448875.0,
    31712.0 / 229635.0, -2848.0 / 18225.0, 7648.0 / 42525.0,
    -40.0 / 189.0, 104.0 / 405.0, -44.0 / 135.0, 4.0 / 9.0, -2.0 / 3.0, 1.0,
)
_RTOL = 1e-13               # every solve meets |w e^w - z| <= _RTOL (1 + |z|)
_MAX_ITER = 100             # Halley steps before a solve is declared failed


def lambert_w(k, z):
    """Branch k of the Lambert W function at complex z.

    Parameters
    ----------
    k : int or array_like of int
        Branch index, broadcast against z.
    z : complex or array_like
        Argument(s); must be finite.  z = 0 is only valid on branch 0.

    Returns
    -------
    complex or ndarray
        scipy.special.lambertw, except that within 1e-12 of -1/e, where
        scipy returns NaN, branches 0 and -1 give exactly -1.  Real inputs
        on branch 0 (z >= -1/e) and branch -1 (-1/e <= z < 0) give results
        with zero imaginary part.
    """
    k_arr = np.asarray(k)
    if not np.issubdtype(k_arr.dtype, np.integer):
        raise ValueError(f"branch index must be an integer, got {k!r}")
    z_arr = np.asarray(z, dtype=complex)
    if not np.isfinite(z_arr).all():
        raise ValueError("lambert_w requires finite arguments")
    k_arr, z_arr = np.broadcast_arrays(k_arr, z_arr)
    at_zero = (k_arr != 0) & (z_arr == 0)
    if at_zero.any():
        raise ValueError(f"W_{int(k_arr[at_zero][0])}(0) is not finite")

    from scipy.special import lambertw

    w = lambertw(z_arr, k_arr)
    x = z_arr.real
    real_line = (z_arr.imag == 0.0) & (x >= -_EM1) & ((k_arr == 0) | ((k_arr == -1) & (x < 0.0)))
    w = np.where(real_line, w.real, w)
    snap = (np.abs(z_arr + _EM1) <= _BP_SNAP) & ((k_arr == 0) | (k_arr == -1))
    w = np.where(snap, -1.0, w)
    return complex(w) if w.ndim == 0 else w


def solve_wexpw(target, seed):
    """Solve w*exp(w) = target by Halley's iteration from an explicit seed.

    Continuation helper: no branch logic, the iteration lands on whichever
    sheet the seed belongs to.  Both arguments may be complex arrays of the
    same shape; every entry meets |w e^w - target| <= 1e-13 (1 + |target|)
    within _MAX_ITER steps, or NumericFailure is raised.  Tracing a contour
    node by node with it gives a reference for the branch each node lies on.
    """
    z = np.asarray(target, dtype=complex)
    w = np.array(seed, dtype=complex)
    tol = _RTOL * (1.0 + np.abs(z))
    for _ in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - z
        done = np.abs(f) <= tol
        if done.all():
            return w
        w1 = w + 1.0
        # keep the denominator away from the double root at w = -1
        w1 = np.where(np.abs(w1) < 1e-30, 1e-30, w1)
        step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w = np.where(done, w, w - step)
    bad = ~(np.abs(w * np.exp(w) - z) <= tol)
    raise NumericFailure(
        "Halley iteration for Lambert W did not converge",
        last=w,
        residual=float(np.max(np.abs(w * np.exp(w) - z))),
        hint="seed closer to the target branch "
             f"({int(np.count_nonzero(bad))} point(s) unconverged)",
    )


def phi(z):
    """Collision map: the solution of w*exp(w) = z*exp(z) with w in (-1, 0].

    Acts as the identity for real z >= -1 and maps (-inf, -1) monotonically
    (decreasing) onto (-1, 0).  Scalars and arrays share one path, a scalar
    giving a float; an argument with a nonzero imaginary part raises
    ValueError.
    """
    if np.iscomplexobj(z) and np.any(np.imag(z) != 0.0):
        raise ValueError("phi requires real arguments")
    out = np.real(np.asarray(z)).astype(float)
    if not np.isfinite(out).all():
        raise ValueError("phi requires finite arguments")
    eps = -1.0 - out
    near = (eps > 0.0) & (eps <= _PHI_SERIES)
    if near.any():
        # w e^w = z e^z has a double root at w = z = -1, which the series avoids
        out[near] = -1.0 + eps[near] * np.polyval(_PHI_COEFFS, eps[near])
    far = eps > _PHI_SERIES
    if far.any():
        x, u = out[far], eps[far]
        target = x * np.exp(x)
        # target is in (-1/e, 0) and at least 2e-3 from the branch point, where
        # lambert_w's checks and snap never act, so scipy's W_0 is called directly
        from scipy.special import lambertw

        w = lambertw(target).real
        ew = np.exp(w)
        # one Newton polish on w e^w = z e^z; within eps <= 1, near its double
        # root, on the log form log(-w) + (w + 1) = log1p(eps) - eps instead,
        # whose two sides are of order eps^2 and keep their digits
        step = (w * ew - target) / (ew * (w + 1.0))
        m = u <= 1.0
        wm, um = w[m], u[m]
        step[m] = ((np.log(-wm) + (wm + 1.0)) - (np.log1p(um) - um)) * wm / (wm + 1.0)
        out[far] = w - step
    return float(out) if out.ndim == 0 else out


def phi_prime(z):
    """Derivative of phi via the identity phi' = (1+z) phi / (z (1+phi)).

    Raises SingularityError at z = -1 (kink of phi) and z = 0 (pole of the
    identity's denominator).
    """
    x = float(np.real(z))
    if x == -1.0 or x == 0.0:
        raise SingularityError(f"phi_prime is singular at z = {x}")
    p = phi(x)
    return (1.0 + x) * p / (x * (1.0 + p))
