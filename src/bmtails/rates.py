"""Rate functions for the upper tail of the top colliding Brownian particle.

For each initial condition (packed: all particles at the origin; flat:
particles at the integers; stationary: i.i.d. Exp(1) gaps) the probability
that the tagged particle exceeds 2t + at decays exponentially with a rate
r(a) per unit time.  The three rates come from saddle-point analysis of two
phase functions:

    H(w) = (w^2 - 1)/2 + (2 + a)(w + 1) + log(-w)
    G(z) = (z^2 - phi(z)^2)/2 + (1 + a)(z - phi(z))

H has two real saddles w- < -1 - a and w+ in (-1, 0), the roots of
w^2 + (2+a)w + 1 = 0.  G has a single relevant saddle z_a < -1 determined
by (z_a + 1)(phi(z_a) + 1) + a = 0.  The closed forms are

    packed:     (2+a) sqrt(a + a^2/4) + 2 log(1 + a/2 - sqrt(a + a^2/4))
    flat:       -G(z_a)
    stationary: -a^2/4 + (1 + a/2) sqrt(a + a^2/4) + log(1 + a/2 - sqrt(..))

and the identities rate_packed = H(w+) - H(w-), rate_stat = H(w+) hold to
rounding.  Since (1 + a/2 - sqrt(..))(1 + a/2 + sqrt(..)) = 1, the code
evaluates them without cancellation as

    packed:     (2+a) sqrt(..) - 2 log(1 + a/2 + sqrt(..))
    stationary: sqrt(..) + a^2 / (2 (sqrt(..) + a/2)) - log(1 + a/2 + sqrt(..))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .lambertw import phi

_ZA_RIGHT_MARGIN = 1e-9
_ZA_XTOL = 1e-15          # Newton stops on a step below this, relative to z
_ZA_MAX_ITER = 100        # Newton steps before solve_za is declared failed


def check_a(a):
    """Validate a deviation parameter (finite real, strictly positive)."""
    a = float(a)
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError(f"deviation parameter must be finite and > 0, got {a}")
    return a


@dataclass(frozen=True)
class SaddleDiagnostics:
    """Saddle data backing a rate value.

    For packed/stationary, (saddle_lo, saddle_hi) = (w-, w+), the phases are
    H(w-), H(w+) and second_deriv holds the pair (H''(w-), H''(w+)).  For
    flat, (saddle_lo, saddle_hi) = (z_a, phi(z_a)), phase_lo = G(z_a) = -rate,
    phase_hi = 0 and second_deriv is the curvature eta of G along the
    steep-descent contour (strictly negative).
    """

    ic: str
    a: float
    saddle_lo: float
    saddle_hi: float
    phase_lo: float
    phase_hi: float
    second_deriv: tuple
    rate: float


def _h_vals(w, a):
    """Packed phase H on a complex array (principal log branch), unchecked."""
    w = np.asarray(w, dtype=complex)
    return (w * w - 1.0) / 2.0 + (2.0 + a) * (w + 1.0) + np.log(-w)


def _g_vals(z, phi, a):
    """Flat phase G from z and its image phi = phi(z), elementwise, unchecked."""
    return (z * z - phi * phi) / 2.0 + (1.0 + a) * (z - phi)


def _f_free(w, n, t):
    """The level-free part t w^2/2 + n log(-w) of the particle-n phase :func:`_f_vals`."""
    w = np.asarray(w, dtype=complex)
    return t * w * w / 2.0 + n * np.log(-w)


def _f_vals(w, n, t, s):
    """Particle-n phase f(w) = t w^2/2 + n log(-w) + s w (t H at n = t, s = (2+a) t)."""
    w = np.asarray(w, dtype=complex)
    return _f_free(w, n, t) + s * w


def phase_packed(w, a):
    """H(w) = (w^2-1)/2 + (2+a)(w+1) + log(-w), principal branch.

    Rejects points on the branch cut [0, inf).
    """
    a = check_a(a)
    w = complex(w)
    if w.imag == 0.0 and w.real >= 0.0:
        raise ValueError(f"phase_packed is undefined on the cut [0, inf): w={w}")
    val = _h_vals(w, a)
    return val.real if abs(val.imag) == 0.0 else val


def phase_packed_d1(w, a):
    """H'(w) = w + 2 + a + 1/w."""
    a = check_a(a)
    w = complex(w)
    if w == 0.0:
        raise ValueError("H' has a pole at w = 0")
    val = w + 2.0 + a + 1.0 / w
    return val.real if val.imag == 0.0 else val


def phase_packed_d2(w, a):
    """H''(w) = 1 - 1/w^2."""
    check_a(a)
    w = complex(w)
    if w == 0.0:
        raise ValueError("H'' has a pole at w = 0")
    val = 1.0 - 1.0 / (w * w)
    return val.real if val.imag == 0.0 else val


def saddle_points(a):
    """The two real zeros (w-, w+) of H', computed cancellation-free.

    w- = -1 - a/2 - sqrt(a + a^2/4) sums negative terms directly; w+ comes
    from the exact product w+ w- = 1, which avoids the subtractive loss in
    -1 - a/2 + sqrt(...) for large a.
    """
    a = check_a(a)
    disc = np.sqrt(a + a * a / 4.0)
    w_minus = _finite_rate("the saddle w-", a, -1.0 - a / 2.0 - disc)
    return w_minus, 1.0 / w_minus


def saddle_packed(a):
    """SaddleDiagnostics for the packed (and stationary) phase H."""
    a = check_a(a)
    w_minus, w_plus = saddle_points(a)
    h_lo = phase_packed(w_minus, a)
    h_hi = phase_packed(w_plus, a)
    return SaddleDiagnostics(
        ic="packed",
        a=a,
        saddle_lo=w_minus,
        saddle_hi=w_plus,
        phase_lo=h_lo,
        phase_hi=h_hi,
        second_deriv=(phase_packed_d2(w_minus, a), phase_packed_d2(w_plus, a)),
        rate=h_hi - h_lo,
    )


def _finite_rate(what, a, rate, hint="a * a overflows above a of about 1.3e154"):
    if not np.isfinite(rate):
        raise NumericFailure(f"{what} is not finite at a = {a!r}", last=rate, hint=hint)
    return rate


def rate_packed(a):
    """Upper-tail rate for the packed start (closed form)."""
    a = check_a(a)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = np.sqrt(a + a * a / 4.0)
        rate = (2.0 + a) * disc - 2.0 * np.log1p(a / 2.0 + disc)
    return _finite_rate("rate_packed", a, rate)


def rate_stat(a):
    """Upper-tail rate for the stationary start (closed form, = H(w+))."""
    a = check_a(a)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = np.sqrt(a + a * a / 4.0)
        rate = disc + a * a / (2.0 * (disc + a / 2.0)) - np.log1p(a / 2.0 + disc)
    return _finite_rate("rate_stat", a, rate)


def phase_flat(z, a):
    """G(z) = (z^2 - phi(z)^2)/2 + (1+a)(z - phi(z)) for real z < -1."""
    a = check_a(a)
    z = float(z)
    if z >= -1.0:
        raise ValueError(f"phase_flat requires z < -1, got {z}")
    return _g_vals(z, phi(z), a)


def phase_flat_d1(z, a):
    """G'(z) in the factored form (z-phi)/(z(phi+1)) * ((z+1)(phi+1)+a)."""
    a = check_a(a)
    z = float(z)
    if z >= -1.0:
        raise ValueError(f"phase_flat_d1 requires z < -1, got {z}")
    p = phi(z)
    return (z - p) / (z * (p + 1.0)) * ((z + 1.0) * (p + 1.0) + a)


def solve_za(a):
    """The flat saddle z_a < -1 solving (z+1)(phi(z)+1) + a = 0.

    (z+1)(phi(z)+1) is a monotone bijection of (-inf,-1) onto (-inf,0), so
    the root is bracketed in (-3-a, -1).  Newton's method runs inside that
    bracket from z = -1 - e with e^2 = a (1 + e), its slope from the phi'
    identity, and bisects whenever a step would leave the bracket.  Once
    phi(-1 - a) underflows (a > 746), the root is -1 - a to double precision.
    """
    a = check_a(a)

    def res(z):
        return (z + 1.0) * (phi(z) + 1.0) + a

    if a > 700.0 and phi(-1.0 - a) == 0.0:
        return -1.0 - a
    lo, hi = -3.0 - a, -1.0 - _ZA_RIGHT_MARGIN
    if res(lo) >= 0.0 or res(hi) <= 0.0:
        raise NumericFailure(
            "flat saddle bracket failed", last=(lo, hi),
            residual=min(abs(res(lo)), abs(res(hi))),
            hint="unexpected: the bracket (-3-a, -1) should always contain z_a",
        )
    z = -1.0 - (a + np.sqrt(a * a + 4.0 * a)) / 2.0
    for _ in range(_ZA_MAX_ITER):
        if not lo < z < hi:
            z = (lo + hi) / 2.0
        p = phi(z)
        f = (z + 1.0) * (p + 1.0) + a
        lo, hi = (z, hi) if f < 0.0 else (lo, z)
        # phi' = (1+z) phi / (z (1+phi)), from the phi just computed
        step = f / ((p + 1.0) + (z + 1.0) ** 2 * p / (z * (p + 1.0)))
        z -= step
        if abs(step) <= _ZA_XTOL * abs(z):
            return float(z)
    raise NumericFailure(
        "flat saddle Newton iteration did not converge", last=z, residual=abs(f),
        hint=f"bracket ({lo!r}, {hi!r}) after {_ZA_MAX_ITER} steps",
    )


def flat_curvature(z_a, a):
    """eta = 4 pi^2 (phi - z)(phi/(phi+1)^2 + z/(z+1)^2) at z = z_a (< 0).

    z/(z+1)^2 is divided out one factor at a time, so no square overflows.
    """
    a = check_a(a)
    p = phi(z_a)
    zp1 = z_a + 1.0
    return 4.0 * np.pi ** 2 * (p - z_a) * (p / (p + 1.0) ** 2 + z_a / zp1 / zp1)


def rate_flat(a):
    """Upper-tail rate for the flat start, with saddle diagnostics.

    rate = (phi(z_a) - z_a) * ((phi(z_a) + 1 + (z_a + 1))/2 + a) = -G(z_a).
    The second factor, about 2a/3, is summed from phi(z_a) + 1 and z_a + 1,
    so no terms of order 1 cancel in it; the relative errors of those two
    sums still grow as a falls (3e-12 in the rate at a = 1e-5), so a < 1e-6
    raises NumericFailure, as does a rate past the largest double (a above
    about 1.9e154).
    """
    a = check_a(a)
    if a < 1e-6:
        raise NumericFailure(f"rate_flat cancels to noise below a = 1e-6, got {a!r}",
                             last=a, hint=f'use rate_asymptote("flat", {a!r}, "small")')
    z_a = solve_za(a)
    p = phi(z_a)
    rate = (p - z_a) * ((p + 1.0 + (z_a + 1.0)) / 2.0 + a)
    return SaddleDiagnostics(
        ic="flat",
        a=a,
        saddle_lo=z_a,
        saddle_hi=p,
        phase_lo=-_finite_rate("rate_flat", a, rate),
        phase_hi=0.0,
        second_deriv=(flat_curvature(z_a, a),),
        rate=rate,
    )


def rate_asymptote(ic, a, regime):
    """Small-a / large-a closed asymptotes of the flat and stationary rates."""
    a = check_a(a)
    key = (str(ic), str(regime))
    if key in (("flat", "small"), ("stationary", "small")):
        with np.errstate(over="ignore"):
            power = np.float64(a) ** 1.5
        return float(_finite_rate(f"the small-a {key[0]} asymptote", a,
                                  (4.0 if key[0] == "flat" else 2.0) / 3.0 * power,
                                  hint="a^1.5 overflows above a of about 3e205"))
    if key == ("flat", "large"):
        # halved before it is squared, it stays finite as far as rate_flat
        return _finite_rate("the large-a flat asymptote", a, (a + 1.0) * ((a + 1.0) / 2.0))
    if key == ("stationary", "large"):
        return a + 0.5 - np.log(a)
    raise ValueError(f"no asymptote for ic={ic!r}, regime={regime!r}")
