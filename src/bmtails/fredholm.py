"""Fredholm determinants on a half-line and one-point probabilities.

The projected determinants det(1 - P_s K P_s) are evaluated by the
Nystrom method (Bornemann, Math. Comp. 79 (2010)): Gauss-Legendre nodes
u in (0,1) are mapped to xi = s - log(1-u)/d, which absorbs the proven
exponential kernel decay (rate a for the packed and stationary kernels,
|z_a + 1| for the flat one) so grids of a few dozen nodes converge.
With M = W^1/2 K W^1/2, log det(I - M) comes from LU while the survival
|1 - det| is at least 1e-2, where LU's absolute error of about N eps is
about 1e-12 relative.  Smaller survivals, which 1 - det would lose to
cancellation, come from the trace series -sum_j tr(M^j)/j, whose terms keep
their relative precision; it needs ||M||_F < 1/2, or NumericFailure is raised.

The finite-index route works with a kernel of rank n, given as factors
K = L R^T with n columns each (see :func:`kernels.raw_kernel_grid`).  By
Sylvester's identity det(I - W^1/2 L R^T W^1/2) = det(I - R^T W L), so its
determinant is that of an n x n matrix whatever the grid size; the grid
only sets the quadrature of the n^2 pairings R^T W L.

Every entry point hands a closure evaluate(size, scale) to one driver,
:func:`_solve`, which doubles the grid size and the contour density
together until successive values agree, reports the last change as the
refinement delta, and checks the imaginary residue and the [0, 1] range.
The flat spiral's density is bound to t rather than to the scale once t
is large enough (see :func:`prob_flat`); there the flat refinement delta
refines only the Nystrom grid.
The stationary law needs an s-derivative; it is taken by central
differences with one Richardson extrapolation, and the two step sizes
must agree or the evaluation is rejected.  The contour weights and the
Cauchy matrix do not depend on the level, so each grid size forms them
once for all of its levels.

For the density-rho stationary formula the rank-one perturbation
(1-rho) f (x) g_rho has a non-decaying factor f = 1 + (decaying), so its
pairings are split: the constant part is integrated over (s, infinity)
inside the z-contour integral, where Re(z+1) > 0 makes the tail integral
exact, and only decaying functions ever meet the quadrature grid.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contours import (
    ContourConfig,
    _check_finite,
    _check_time,
    build_packed_contours,
    flat_contour_for,
    scale_circle,
)
from .errors import NumericFailure
from .kernels import (
    _IM_TOL,
    khat_flat_grid,
    khat_packed_grid,
    packed_factors,
    raw_kernel_grid,
    stat_components,
    stat_rho_pieces,
)
from .rates import check_a, rate_flat, rate_packed, solve_za

log = logging.getLogger("bmtails.fredholm")

_CLAMP = 1e-9
# _det_core's routes: LU's log det down to this survival, the trace series below
_LU_SURVIVAL = 1e-2
_SERIES_NORM = 0.5
_SERIES_TERMS = 64
# refinement stops once p moves by less than this between grid sizes
_TARGET = 1e-9
# below this a probability that fails the imaginary-residue gate is not
# resolved by the determinant at all
_UNRESOLVED_P = 1e-12


@dataclass(frozen=True)
class QuadGrid:
    nodes: np.ndarray
    weights: np.ndarray
    size: int

    def __post_init__(self):
        if self.size < 8:
            raise ValueError("grid size must be at least 8")
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise ValueError("grid nodes and weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("grid weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")


@dataclass(frozen=True)
class ProbResult:
    p: float
    log_survival: float
    im_residue: float
    refinement_delta: float
    grid: QuadGrid


@functools.lru_cache(maxsize=None)
def _gauss_legendre(size):
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), one rule per size."""
    x, w = leggauss(size)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def build_grid(s, decay_rate, size):
    """Exponentially mapped Gauss-Legendre grid on (s, infinity)."""
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    x, w = _gauss_legendre(int(size))
    u = 0.5 * (x + 1.0)
    nodes = s - np.log1p(-u) / decay_rate
    weights = 0.5 * w / (decay_rate * (1.0 - u))
    return QuadGrid(nodes=nodes, weights=weights, size=int(size))


def _det_core(kmat, weights):
    """(det, log_survival, im_residue) of I - M with M = sqrt(w) K sqrt(w).

    log det(I - M) is LU's, or the trace series' when |1 - det| from LU is
    below _LU_SURVIVAL; a series that cannot converge raises NumericFailure.
    The log of a real determinant has imaginary part a multiple of pi, odd
    when it is negative; the residue from that multiple is returned.
    """
    sq = np.sqrt(weights)
    m = sq[:, None] * np.asarray(kmat, dtype=complex) * sq[None, :]
    norm = float(np.linalg.norm(m))
    sign, level = np.linalg.slogdet(np.eye(len(m)) - m)
    logdet, power, terms = complex(level, np.angle(sign)), m, 0
    if not (sign.real <= 0.0 or abs(np.expm1(level)) >= _LU_SURVIVAL):
        logdet = 0j
        while norm < _SERIES_NORM and terms < _SERIES_TERMS:
            terms += 1
            term = complex(np.trace(power)) / terms
            logdet -= term
            if abs(term) <= 1e-17 * abs(logdet):
                break
            power = power @ m
        else:
            raise NumericFailure(f"survival below {_LU_SURVIVAL:g}, no convergent trace series",
                                 hint=f"||M||_F = {norm:.3g}, not below {_SERIES_NORM:g}")
    log.debug("determinant of order %d: route %s, %d series terms, ||M||_F %.3e",
              len(m), "series" if terms else "lu", terms, norm)
    turns = np.round(logdet.imag / np.pi)
    im = abs(logdet.imag - turns * np.pi)
    det = float(np.exp(logdet.real)) * (-1.0 if turns % 2 else 1.0)
    survival = 1.0 - det if turns % 2 else float(-np.expm1(logdet.real))
    log_survival = float(np.log(survival)) if survival > 0.0 else -np.inf
    return det, log_survival, im


def _solve(what, evaluate, size0, max_size):
    """Double (size, scale) from (size0, 1) until p moves by less than _TARGET.

    evaluate returns ((p, log_survival, im_residue), grid).  Each grid size
    is logged at DEBUG level, which gives the refinement history.  size0
    must lie in [8, max_size // 2], so that p is refined at least once.
    """
    if not 8 <= size0 <= max_size // 2:
        raise ValueError(f"{what}: grid_size must lie in [8, {max_size // 2}], got {size0}")
    prev, size, scale = None, size0, 1
    while True:
        result, grid = evaluate(size, scale)
        delta = np.inf if prev is None else abs(result[0] - prev[0])
        log.debug("%s: grid size %d, p %.17g, log_survival %.17g, delta %.3e, "
                  "im residue %.3e", what, size, result[0], result[1], delta, result[2])
        if delta < _TARGET or 2 * size > max_size:
            break
        prev = result
        size *= 2
        scale *= 2
    p, log_survival, im = result
    if im > _IM_TOL * (1.0 + abs(p)):
        # a determinant this close to 0 is a cancellation of O(1) terms,
        # and its phase is noise whatever the contour density
        hint = (f"p = {p:.1e} is below what the determinant resolves"
                if abs(p) < _UNRESOLVED_P else
                f"residue stays at grid size {size}, contour density x{scale}"
                + (" (the largest grid)" if 2 * size > max_size
                   else "; increase contour density"))
        raise NumericFailure(
            f"{what}: imaginary residue {im:.3e} in log-determinant",
            last=p,
            residual=im,
            hint=hint,
        )
    if p < -_CLAMP or p > 1.0 + _CLAMP:
        raise NumericFailure(
            f"{what}: probability {p!r} far outside [0, 1]",
            last=p,
        )
    if not 0.0 <= p <= 1.0:
        log.warning("%s: clamping p = %.17g into [0, 1]", what, p)
        p = min(max(p, 0.0), 1.0)
        log_survival = min(log_survival, 0.0)
    return ProbResult(p=p, log_survival=log_survival, im_residue=im,
                      refinement_delta=delta, grid=grid)


# ---------------------------------------------------------------------------
# scaled one-point probabilities


def _contour_cfg(scale):
    """The default contour configuration with its node density times scale."""
    return ContourConfig(points_per_unit=scale * ContourConfig.points_per_unit)


def prob_packed(t, a, *, s_offset=0.0, grid_size=48):
    """P(x_t(t) <= 2t + at + s_offset) under the packed start."""
    a = check_a(a)
    t = float(t)

    def evaluate(size, scale):
        factors = packed_factors(a, t, build_packed_contours(a, t, _contour_cfg(scale)))
        grid = build_grid(s_offset, a, size)
        kmat = khat_packed_grid(grid.nodes, grid.nodes, factors)
        return _det_core(kmat, grid.weights), grid

    return _solve("prob_packed", evaluate, grid_size, 384)


def prob_flat(t, a, *, s_offset=0.0, grid_size=48):
    """P(x_t(t) <= 2t + at + s_offset) under the flat start.

    The spiral's density is set by t once 16 sqrt(t |eta|) exceeds the scaled
    points_per_unit (:func:`contours.flat_contour_for`), so then the
    refinement delta measures only the Nystrom grid.
    """
    a = check_a(a)
    t = float(t)
    z_a = solve_za(a)
    decay = abs(z_a + 1.0)

    def evaluate(size, scale):
        path = flat_contour_for(a, t, _contour_cfg(scale), z_a=z_a)
        grid = build_grid(s_offset, decay, size)
        kmat = khat_flat_grid(a, t, grid.nodes, grid.nodes, path)
        return _det_core(kmat, grid.weights), grid

    return _solve("prob_flat", evaluate, grid_size, 384)


# ---------------------------------------------------------------------------
# stationary start


def _fd_derivative(D, h, a, t, what):
    """D'(0) by central differences at h and h/2 plus one Richardson step.

    h defaults to 1e-3 (1 + a t); the two estimates must agree to 1e-5 (1 + |D'|).
    """
    if h is None:
        h = 1e-3 * (1.0 + a * t)
    if not h > 0:
        raise ValueError(f"finite-difference step h must be positive, got {h}")
    d1 = (D(h) - D(-h)) / (2.0 * h)
    d2 = (D(h / 2.0) - D(-h / 2.0)) / h
    deriv = (4.0 * d2 - d1) / 3.0
    spread = abs(d2 - d1)
    if spread > 1e-5 * (1.0 + abs(deriv)):
        raise NumericFailure(
            f"{what} derivative unstable in the step size",
            last=deriv,
            residual=spread,
            hint="adjust h or raise the grid size",
        )
    return deriv


def prob_stat(t, a, h=None, *, grid_size=48):
    """P(x_t(t) <= 2t + at) under the unit-density stationary start.

    Evaluates D(s) = Fhat_t(s) det(1 - P K P) + det(1 - P(K + f* x g1)P)
    around s = 0 and returns its derivative; the rank-one extension sits
    directly inside the discretized determinant.  The contour weights and
    the Cauchy matrix (:func:`kernels.packed_factors`) are formed once per
    grid size, and each level s takes K, f* and g1 from one
    :func:`kernels.stat_components` assembly on its grid.
    """
    a = check_a(a)
    t = float(t)

    def evaluate(size, scale):
        factors = packed_factors(a, t, build_packed_contours(a, t, _contour_cfg(scale)))
        ims = []

        def D(s):
            grid = build_grid(s, a, size)
            comps = stat_components(a, t, s, factors, grid.nodes)
            det1, _, im1 = _det_core(comps.kmat, grid.weights)
            rank1 = np.outer(comps.f_star, comps.g_one)
            det2, _, im2 = _det_core(comps.kmat + rank1, grid.weights)
            ims.extend((im1, im2))
            return comps.f_hat_t * det1 + det2

        deriv = _fd_derivative(D, h, a, t, "stationary")
        logs = float(np.log1p(-deriv)) if deriv < 1.0 else -np.inf
        return (deriv, logs, max(ims)), build_grid(0.0, a, size)

    return _solve("prob_stat", evaluate, grid_size, 192)


def prob_stat_rho(t, a, rho, *, h=None, grid_size=48):
    """P(x_t(t) <= 2t + at) for the stationary start with density rho < 1.

    Uses det(1 - P(K + (1-rho) f x g_rho)P) = det(1 - PKP) (1 - (1-rho) S)
    with S = <(1 - PKP)^{-1} P f, P g_rho> assembled from the exact tail
    integral of the constant part of f, the z-contour pairing, and a grid
    solve against the decaying remainder f*.
    """
    a = check_a(a)
    t = float(t)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density rho must lie in (0, 1), got {rho}")
    delta_rho = 1.0 - rho

    def evaluate(size, scale):
        line, circle = build_packed_contours(a, t, _contour_cfg(scale))
        radius = float(np.abs(circle.nodes).max())
        if radius >= 0.9 * rho:
            circle = scale_circle(circle, 0.9 * rho / radius)
        factors = packed_factors(a, t, (line, circle))
        ims = []

        def D(s):
            grid = build_grid(s, a, size)
            comps = stat_components(a, t, s, factors, grid.nodes)
            g_rho, pair_res, pair_circ = stat_rho_pieces(
                a, t, s, rho, factors, grid.nodes, comps.e2)
            det1, _, im = _det_core(comps.kmat, grid.weights)
            ims.append(im)
            resolvent = np.eye(size) - comps.kmat * grid.weights[None, :]
            y = np.linalg.solve(resolvent, comps.f_star)
            inner_c = complex(np.sum(grid.weights * g_rho * y))
            ims.append(abs(inner_c.imag))
            s_pair = pair_res + pair_circ + inner_c.real
            return det1 * (1.0 - delta_rho * s_pair)

        deriv = _fd_derivative(D, h, a, t, "density-rho")
        p = D(0.0) + deriv / delta_rho
        logs = float(np.log1p(-p)) if p < 1.0 else -np.inf
        return (p, logs, max(ims)), build_grid(0.0, a, size)

    return _solve("prob_stat_rho", evaluate, grid_size, 192)


# ---------------------------------------------------------------------------
# raw finite-index route (generic level s, small integer n)


def prob_finite_n(n, t, s):
    """P(x_n(t) <= s) for integer n >= 1 via the raw double-contour kernel.

    Valid at any real level s where p is resolved, the bulk and lower tail
    included, because the vertical line is re-anchored at the dominant
    w-saddle of the raw phase t w^2/2 + n log(-w) + xi w instead of the
    upper-tail scaling.  The kernel has rank n, so each grid size costs one
    n x n determinant.  Deep in the lower tail that determinant is a
    cancellation of O(1) entries: near p = 1e-15 (s = -1.79 at n = 5,
    t = 1) its imaginary residue passes 1e-8, and NumericFailure says that
    p is below what the n x n determinant resolves.
    """
    n = int(n)
    if n < 1:
        raise ValueError("particle index must be >= 1")
    t = _check_time(t)
    s = _check_finite(s, "level s")
    edge = 2.0 * np.sqrt(n * t)
    decay = max(0.4 / np.sqrt(t), 0.8 * (s - edge) / t)
    if s > edge:
        # upper tail: anchor the line at the w-saddle of the smallest grid
        # level, so e^{xi c} only shrinks entries as xi grows
        xi_ref = s + min(1.0 / decay, np.sqrt(t))
        c = -(xi_ref + np.sqrt(xi_ref * xi_ref - 4.0 * t * n)) / (2.0 * t)
    else:
        # bulk and lower tail: there is no negative real saddle; a short
        # line keeps every exponential factor of the integrand near 1
        c = -0.3 / np.sqrt(t)
    r = min(0.85 * abs(c), max(n / (t * abs(c)), 0.15 * abs(c)))
    if t * c * c / 2.0 + n * abs(np.log(abs(c))) > 500.0 or \
            t * r * r / 2.0 + n * abs(np.log(r)) > 500.0:
        raise NumericFailure(
            "raw-kernel contour parameters overflow the exponential scale",
            hint=f"level s={s} too extreme for n={n}, t={t}",
        )

    def evaluate(size, scale):
        grid = build_grid(s, decay, size)
        left, right = raw_kernel_grid(n, t, grid.nodes, grid.nodes, line_re=c,
                                      circle_rad=r, oversample=scale)
        # Sylvester: det(I - W^1/2 L R^T W^1/2) = det(I - R^T W L), n x n
        return _det_core((right.T * grid.weights) @ left, np.ones(n)), grid

    return _solve("prob_finite_n", evaluate, 64, 512)


# ---------------------------------------------------------------------------
# tail-rate study


def tail_rate_table(ic, a, ts):
    """LDP convergence rows for t in ts: rate estimates vs the exact rate.

    Each row carries the finite-t rate estimate r_hat = -log(survival)/t,
    the exact rate, and the prefactor-scaled survival t e^{tr} (1-p) for
    the packed start or sqrt(t) e^{tr} (1-p) for the flat one, whose
    approach to a constant exhibits the subexponential correction.
    """
    a = check_a(a)
    ts = [float(t) for t in ts]
    if any(t <= 0 for t in ts) or any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("ts must be positive and strictly increasing")
    if ic == "packed":
        r_exact = rate_packed(a)
        prob, power = prob_packed, 1.0
    elif ic == "flat":
        r_exact = rate_flat(a).rate
        prob, power = prob_flat, 0.5
    else:
        raise ValueError(f"tail study covers 'packed' and 'flat', got {ic!r}")

    rows = []
    for t in ts:
        res = prob(t, a)
        r_hat = -res.log_survival / t
        scaled = t ** power * np.exp(t * r_exact + res.log_survival)
        rows.append({
            "t": t,
            "p": res.p,
            "log_survival": res.log_survival,
            "r_hat": float(r_hat),
            "r_exact": float(r_exact),
            "scaled_survival": float(scaled),
        })
    return rows
