"""Multi-branch Lambert W and the left-to-right collision map phi.

The Lambert W function solves w*exp(w) = z.  Branch k is selected through
the usual logarithmic shift log(z) + 2*pi*i*k in the starting guess; near
the branch point z = -1/e a square-root series seeds the iteration instead,
and for large |z| the two-term asymptotic log(z) - log(log(z)) is used.
Iterations are Halley steps on f(w) = w*exp(w) - z, run until
|w e^w - z| <= 1e-13 (1 + |z|) for every entry; the tolerance and the
iteration cap are fixed, since no caller needs other values.

phi maps a real z < -1 to the conjugate solution of w*exp(w) = z*exp(z)
inside (-1, 0); on z >= -1 it is the identity.  Within 1e-3 below z = -1,
where that equation has a double root and loses half the digits, phi is
taken from its reflection series instead.  It shows up as the image of
the steep-descent variable in the flat-start kernel, so its derivative
identity phi'(z) * z * (1 + phi) = (1 + z) * phi is exposed as well.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import NumericFailure, SingularityError

_EM1 = np.exp(-1.0)          # 1/e
_BP_SNAP = 1e-12             # snap-to-branch-point radius
_BP_SERIES = 0.25            # use the square-root series inside this radius
_PHI_SERIES = 1e-3           # phi(-1 - eps) from its reflection series for eps <= this
# phi(-1 - eps) = -1 + eps (1 - 2 eps/3 + 4 eps^2/9 - ...), highest power first;
# the first omitted term is 7648 eps^7 / 42525 < 2e-22 inside the window
_PHI_COEFFS = (-40.0 / 189.0, 104.0 / 405.0, -44.0 / 135.0, 4.0 / 9.0, -2.0 / 3.0, 1.0)
_RTOL = 1e-13                # every solve meets |w e^w - z| <= _RTOL (1 + |z|)
_MAX_ITER = 100              # Halley steps before a solve is declared failed


def _halley(z, w):
    """Vectorized Halley iteration for w*exp(w) = z from seed w.

    Both arguments may be complex arrays of the same shape.  Raises
    NumericFailure if any entry fails to meet |w e^w - z| <= _RTOL (1 + |z|)
    within _MAX_ITER steps.
    """
    z = np.asarray(z, dtype=complex)
    w = np.array(w, dtype=complex)
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


def _seed(k, z):
    """Branch-aware starting guesses (vectorized in z)."""
    z = np.asarray(z, dtype=complex)
    w = np.empty_like(z)

    near_bp = np.abs(z + _EM1) <= _BP_SERIES
    p2 = 2.0 * (np.e * z + 1.0)
    p = np.sqrt(p2)
    if k == 0:
        ser = -1.0 + p - p2 / 6.0 + 11.0 / 72.0 * p * p2
        small = (np.abs(z) < 0.8) & ~near_bp
        big = ~near_bp & ~small
        w[near_bp] = ser[near_bp]
        w[small] = z[small] * (1.0 - z[small])
        if big.any():
            zb = z[big]
            lz = np.log(zb)
            # log z - log log z misbehaves when log z is small (z near 1);
            # there log(1 + z) is a safe principal-branch guess instead
            tame = np.abs(lz) < 1.0
            wb = np.empty_like(zb)
            wb[tame] = np.log(1.0 + zb[tame])
            wb[~tame] = lz[~tame] - np.log(lz[~tame])
            w[big] = wb
        return w

    # the sheets k = 1 (from below) and k = -1 (from above / real axis)
    # also touch the branch point; the series with the opposite root sign
    # starts on the correct side
    use_ser = near_bp & (
        ((k == -1) & (z.imag >= 0.0)) | ((k == 1) & (z.imag < 0.0))
    )
    ser = -1.0 - p - p2 / 6.0 - 11.0 / 72.0 * p * p2
    lz = np.log(np.where(z == 0.0, 1.0, z)) + 2j * np.pi * k
    w[:] = lz - np.log(lz)
    w[use_ser] = ser[use_ser]
    if k == -1:
        # real W_-1 on (-1/e, 0): seed and converge on the real line
        real_neg = (z.imag == 0.0) & (z.real < 0.0) & (z.real >= -_EM1) & ~use_ser
        if real_neg.any():
            x = z[real_neg].real
            lx = np.log(-x)
            w[real_neg] = lx - np.log(-lx)
    return w


def lambert_w(k, z):
    """Branch k of the Lambert W function at complex z.

    Parameters
    ----------
    k : int
        Branch index.
    z : complex or array_like
        Argument(s); must be finite.  z = 0 is only valid on branch 0.

    Returns
    -------
    complex or ndarray
        The result satisfies |w e^w - z| <= 1e-13 (1 + |z|).  Real inputs
        on branch 0 (z >= -1/e) and branch -1 (-1/e <= z < 0) give results
        with zero imaginary part.
    """
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"branch index must be an integer, got {k!r}")
    k = int(k)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    if not np.isfinite(z_arr).all():
        raise ValueError("lambert_w requires finite arguments")
    if k != 0 and (z_arr == 0).any():
        raise ValueError(f"W_{k}(0) is not finite")

    out = np.empty_like(z_arr)
    snap = (np.abs(z_arr + _EM1) <= _BP_SNAP) & (k in (0, -1))
    out[snap] = -1.0

    rest = ~snap
    if rest.any():
        zr = z_arr[rest]
        real_line = zr.imag == 0.0
        if k == 0:
            real_line &= zr.real >= -_EM1
        elif k == -1:
            real_line &= (zr.real >= -_EM1) & (zr.real < 0.0)
        else:
            real_line &= False
        vals = np.empty_like(zr)
        if real_line.any():
            x = zr[real_line]
            w0 = _seed(k, x)
            vals[real_line] = _halley(x.real, w0.real)
        if (~real_line).any():
            x = zr[~real_line]
            vals[~real_line] = _halley(x, _seed(k, x))
        out[rest] = vals

    return complex(out[0]) if scalar else out.reshape(np.shape(z))


def solve_wexpw(target, seed):
    """Solve w*exp(w) = target starting from an explicit seed.

    Continuation helper: no branch logic, the iteration lands on whichever
    sheet the seed belongs to, to the residual lambert_w meets.  Used to
    trace contours through branch switches node by node.
    """
    return _halley(target, seed)


def _phi_reflection(eps):
    """phi(-1 - eps) for 0 < eps <= _PHI_SERIES from its series in eps.

    w e^w = z e^z has a double root at w = z = -1, so solving it for z just
    below -1 loses half the digits; the series in eps keeps them all.
    """
    return -1.0 + eps * np.polyval(_PHI_COEFFS, eps)


def phi(z):
    """Collision map: the solution of w*exp(w) = z*exp(z) with w in (-1, 0].

    Acts as the identity for real z >= -1 and maps (-inf, -1) monotonically
    (decreasing) onto (-1, 0).  Complex arguments are routed through the
    principal branch.
    """
    if np.ndim(z) > 0:
        x = np.real(np.asarray(z)).astype(float)
        if not np.isfinite(x).all():
            raise ValueError("phi requires finite arguments")
        out = np.where(x >= -1.0, x, 0.0)
        near = (x < -1.0) & (x >= -1.0 - _PHI_SERIES)
        out[near] = _phi_reflection(-1.0 - x[near])
        far = x < -1.0 - _PHI_SERIES
        if far.any():
            xb = x[far]
            target = xb * np.exp(xb)
            w = lambert_w(0, target).real
            ew = np.exp(w)
            # one Newton polish; w + 1 is of order 1e-3 or more out here
            w -= (w * ew - target) / (ew * (w + 1.0))
            out[far] = w
        return out
    if np.iscomplexobj(z) and np.asarray(z).imag != 0.0:
        zc = complex(z)
        return lambert_w(0, zc * np.exp(zc))
    x = float(np.real(z))
    if not np.isfinite(x):
        raise ValueError("phi requires a finite argument")
    if x >= -1.0:
        return x
    if x >= -1.0 - _PHI_SERIES:
        return float(_phi_reflection(-1.0 - x))
    target = x * np.exp(x)
    # w*exp(w) is increasing on (-1, 0), so the root is bracketed
    w = brentq(lambda w: w * np.exp(w) - target, -1.0, 0.0,
               xtol=1e-15, rtol=8.9e-16)
    # one Newton polish for a machine-level residual
    ew = np.exp(w)
    w -= (w * ew - target) / (ew * (w + 1.0))
    return float(w)


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
