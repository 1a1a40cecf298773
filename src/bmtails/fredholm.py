"""Fredholm determinants on a half-line and one-point probabilities.

The finite-index, packed and stationary determinants need no quadrature
grid.  The particle-n one is det(I_n - G) for the moment Gram G of
:func:`kernels.finite_gram`, exact at order n because that kernel has rank
n, whose survival keeps its relative precision however deep the tail.
At or below the edge 2 sqrt(n t) its contours do not depend on the level,
so their nodes, phases and power tables are formed once per (n, t, contour
density) and shared by all levels (:func:`_finite_tables`).
The packed start's tagged particle is n = t at level (2 + a) t, so its
determinant is the same Gram cut at order m <= t (see :func:`prob_packed`),
and the stationary ones are a packed Gram of order m and its border to
order m + 1 by the rank-one pair (:func:`kernels.stat_components`), on the
same tables (:func:`_stationary`).

The flat determinant det(1 - P_0 K P_0), K real, is evaluated by the
Nystrom method (Bornemann, Math. Comp. 79 (2010)): Gauss-Legendre nodes
u in (0,1) are mapped to xi = s - log(1-u)/d by :func:`build_grid`, which
absorbs the proven exponential kernel decay (rate |z_a + 1|) so grids of
a few dozen nodes converge.  With M = W^1/2 K W^1/2, log det(I - M) comes
from LU while the survival |1 - det| is at least 1e-2, where LU's
absolute error of about N eps is about 1e-12 relative.
Smaller survivals, which 1 - det would lose to cancellation, come from the
trace series -sum_j tr(M^j)/j, whose terms keep their relative precision;
it needs ||M||_F < 1/2, or NumericFailure is raised.  Deep in the tail M
is e^{L} Mt with Mt bounded, and the survival is e^{L} tr(Mt) wherever
:func:`_trace_error` proves that exact to 1e-17 relative from a bound nu on
||Mt||_HS (:func:`_trace_survival`): ||Mt||_F on the Gram routes, which hand
Mt and L to :func:`_det_core` apart, and on the flat route a sum over the
spiral, on which tr(Kt), the integral of the diagonal, is exact too, so
that no grid is built (see :func:`prob_flat`).

Every entry point hands a closure evaluate(size, scale) and its ladder of
sizes to one driver, :func:`_solve`.  Rung k lays out contours once at 2^k
times their base density (:mod:`contours`; a flat Nystrom grid of 48 2^k
nodes; the Gram orders stay) until the p of that trapezoid rule and of its
sub-rule at half the density (:func:`contours.sub_path`) agree; it reports
their difference as the refinement delta and the final grid size, and checks
the imaginary residue and the [0, 1] range; a survival it cannot resolve
(p above 1, or a log_survival that is not finite), or a ladder that ends
before p settles, raises NumericFailure.
Both stationary laws need an s-derivative, taken by central differences
with one Richardson step; the two step sizes must agree, and a survival
below ten times the rounding bound of those differences raises.  Each
rung forms its tables once for all levels, and halves them for its sub-rule.

For the density-rho stationary formula the rank-one perturbation
(1-rho) f (x) g_rho has a non-decaying factor f = 1 + (decaying), so its
pairings are split: the constant part is integrated over (s, infinity)
inside the z-contour integral, where Re(z+1) > 0 makes the tail integral
exact, and the decaying part f* pairs with g_rho and the Gram through the
resolvent (1 - K)^{-1} = 1 + L (I_m - G)^{-1} R^T.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contours import (
    POINTS_PER_UNIT,
    SADDLE_POINTS_PER_UNIT,
    _check_finite,
    _check_time,
    build_finite_contours,
    build_packed_contours,
    finite_anchors,
    flat_contour_for,
    scale_circle,
    sub_path,
)
from .errors import NumericFailure
from .kernels import (
    _IM_TOL,
    finite_gram,
    finite_tables,
    flat_trace_terms,
    khat_flat_grid,
    packed_gram_order,
    stat_components,
    stat_rho_pieces,
    sub_tables,
)
from .rates import check_a, rate_flat, rate_packed

log = logging.getLogger("bmtails.fredholm")

_CLAMP = 1e-9
# _det_core's routes: LU's log det down to this survival, the trace series below
_LU_SURVIVAL = 1e-2
# |log det| proven below this keeps |1 - det| below _LU_SURVIVAL
_LU_SKIP = 0.0099
_SERIES_NORM = 0.5
_SERIES_TERMS = 64
# a survival is its trace once _trace_error proves this relative error
_TRACE_EXACT = 1e-17
# a stationary survival below this many times the rounding bound of its
# finite-difference derivative is not resolved
_FD_FLOOR = 10.0
# refinement stops once p moves by less than this between grid sizes
_TARGET = 1e-9
# below this a probability that fails the imaginary-residue gate is not
# resolved by the determinant at all
_UNRESOLVED_P = 1e-12
# log of the largest double: a log det above it has no finite det
_LOG_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class ProbResult:
    p: float
    log_survival: float
    im_residue: float             # 0 on the flat route, whose kernel is real
    refinement_delta: float       # |p| change from the last rung's sub-rule
    grid_size: int                # flat Nystrom nodes of the returned
                                  # evaluation, the Gram order m of the packed
                                  # and stationary routes, n on the finite-
                                  # index one, or 0 on the flat trace route,
                                  # taken where a Hilbert-Schmidt bound proves
                                  # the trace exact, which builds no grid


@functools.lru_cache(maxsize=None)
def _gauss_legendre(size):
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), one rule per size."""
    x, w = leggauss(size)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def build_grid(s, decay_rate, size):
    """(nodes, weights) of Gauss-Legendre on (0, 1) mapped by u -> s - log(1 - u) / decay_rate.

    The nodes increase strictly on (s, infinity) and the weights are positive.
    """
    if size < 8:
        raise ValueError(f"grid size must be at least 8, got {size}")
    if not 0.0 < decay_rate < np.inf:
        raise ValueError(f"decay_rate must be finite and positive, got {decay_rate}")
    x, w = _gauss_legendre(int(size))
    u = 0.5 * (x + 1.0)
    nodes = s - np.log1p(-u) / decay_rate
    if not np.isfinite(nodes).all():
        raise ValueError("grid nodes must be finite")
    return nodes, 0.5 * w / (decay_rate * (1.0 - u))


def _det_core(kmat, weights, log_scale=0.0):
    """(det, log_survival, im_residue) of I - e^{log_scale} M with M = sqrt(w) K sqrt(w).

    The survival is e^{log_scale} tr M where :func:`_trace_error`, at least
    half that trace, proves it from nu = ||M||_F (:func:`_trace_survival`).
    Otherwise, with M scaled, log det(I - M) is LU's, or the trace series'
    when |1 - det| from LU is below _LU_SURVIVAL (NumericFailure if it diverges).
    With nu = ||M||_F < 1, |tr M^k| <= nu^k for k >= 2, so |log det(I - M)|
    is at most |tr M| + nu^2 / (1 - nu); below _LU_SKIP that proves the
    series route, and LU is not run.  The series stops once its tail after
    k terms, at most nu^(k+1) / ((k + 1)(1 - nu)), is below 1e-17 |log det|,
    before forming the next power.
    The log of a real determinant has imaginary part a multiple of pi, odd
    when it is negative; the residue from that multiple is returned.
    An M or an LU log det past the largest double raises NumericFailure;
    the series' is bounded by its norm.
    """
    sq = np.sqrt(weights)
    with np.errstate(over="ignore", invalid="ignore"):
        m = sq[:, None] * np.asarray(kmat) * sq[None, :]
        trace = complex(m.trace())
        if trace.real > 0.0 and log_scale + math.log(trace.real) <= math.log(2.0 * _TRACE_EXACT):
            # each of the N^2 squares that underflows loses less than the smallest subnormal,
            # 4.9e-324, so ||M||_F <= hypot(norm, N 1e-161) however small M is
            log_nu = math.log(math.hypot(float(np.linalg.norm(m)), len(m) * 1e-161))
            error = _trace_error(log_scale, trace.real, log_nu)
            if error <= _TRACE_EXACT:
                return _trace_survival(len(m), log_scale, trace, error)
        if log_scale:
            m = np.exp(log_scale) * m
        norm = float(np.linalg.norm(m))
    if not norm < np.inf:
        raise NumericFailure(f"M overflows: ||M||_F = {norm}", hint="M passes the largest double")
    series = norm < _SERIES_NORM and \
        abs(np.trace(m)) + norm * norm / (1.0 - norm) < _LU_SKIP
    if not series:
        sign, level = np.linalg.slogdet(np.eye(len(m)) - m)
        if level > _LOG_MAX:
            raise NumericFailure(f"det(I - M) = e^{level:.6g} overflows",
                                 hint="the determinant of a probability lies in [0, 1]: "
                                      "M's entries are too large to cancel in double precision")
        logdet = complex(level, np.angle(sign))
        series = not (sign.real <= 0.0 or abs(np.expm1(level)) >= _LU_SURVIVAL)
    power, terms = m, 0
    if series:
        logdet = 0j
        while norm < _SERIES_NORM and terms < _SERIES_TERMS:
            terms += 1
            term = complex(np.trace(power)) / terms
            logdet -= term
            if abs(term) <= 1e-17 * abs(logdet) or \
                    norm ** (terms + 1) <= 1e-17 * abs(logdet) * (terms + 1) * (1.0 - norm):
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


def _solve(what, evaluate, sizes):
    """Rung k = 1, 2, ... at sizes[k - 1] and contour density 2^k until its two p agree to _TARGET.

    evaluate(size, scale) lays out its contours once and returns the result
    of that trapezoid rule and of its sub-rule, each (p, log_survival,
    im_residue), whose change measures the rule's geometric convergence
    (Trefethen and Weideman, SIAM Rev. 56 (2014)); each rung is logged at
    DEBUG level.  A p above 1, a log_survival that is not finite, or a last
    rung that still moves p by _TARGET or more raises NumericFailure; a p
    within _CLAMP below 0 is set to 0.
    """
    for step, size in enumerate(sizes):
        scale = 2 ** (step + 1)
        result, sub = evaluate(size, scale)
        delta = abs(result[0] - sub[0])
        log.debug("%s: grid size %d, contour density x%d, p %.17g, log_survival %.17g, sub-rule "
                  "log_survival %.17g, |delta log S| %.3e, delta %.3e, im residue %.3e", what, size,
                  scale, result[0], result[1], sub[1], abs(result[1] - sub[1]), delta, result[2])
        if delta < _TARGET:
            break
    p, log_survival, im = result
    if im > _IM_TOL * (1.0 + abs(p)):
        # a determinant this close to 0 is a cancellation of O(1) terms,
        # and its phase is noise whatever the contour density
        hint = (f"p = {p:.1e} is below what the determinant resolves"
                if abs(p) < _UNRESOLVED_P else
                f"residue stays at grid size {size}, contour density x{scale}"
                + (" (the largest grid)" if step == len(sizes) - 1
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
            hint="the determinant is a cancellation of entries far larger than p, "
                 "and p is below what it resolves",
        )
    if p > 1.0 or not np.isfinite(log_survival):
        raise NumericFailure(
            f"{what}: no finite log_survival at p = {p!r}, grid size {size}",
            last=p,
            hint="the survival is below what 1 - det resolves",
        )
    if not delta < _TARGET:
        raise NumericFailure(
            f"{what}: p still moves by {delta:.3e} at grid size {size}, "
            f"contour density x{scale}",
            last=p,
            residual=delta,
            hint=f"the ladder did not converge to {_TARGET:g} by its last rung",
        )
    if p < 0.0:
        log.warning("%s: clamping p = %.17g into [0, 1]", what, p)
        p = 0.0
        log_survival = min(log_survival, 0.0)
    return ProbResult(p=p, log_survival=log_survival, im_residue=im,
                      refinement_delta=delta, grid_size=size)


def _trace_error(log_scale, trace, log_nu):
    """Bound on the relative error of T = e^{log_scale} trace as the survival 1 - det(I - K).

    K = e^{log_scale} Kt with tr Kt = trace > 0 and ||Kt||_HS <= e^{log_nu}.
    With nu = e^{log_scale + log_nu} < 1, |tr K^k| <= nu^k for k >= 2, so
    log det(I - K) = -u with u = T + R, |R| <= rho = nu^2 / (2 (1 - nu)).
    Then |u| <= U = T + rho, |1 - e^{-u} - u| <= u^2 e^{|u|} / 2, and

        |1 - det - T| / T <= rho / T + U^2 e^U / (2 T),

    about nu^2 / (2 T) + T / 2.  With r = rho / T the second term is
    (1 + r) U e^U / 2, so only T and r are formed from logs, and an
    e^{log_scale} that underflows still gives a bound; inf when nu >= 1, the
    trace is not positive, or r or T passes 1, where the bound proves nothing.
    """
    log_nu += log_scale
    if not (trace > 0.0 and log_nu < 0.0):
        return math.inf
    log_t = log_scale + math.log(trace)
    log_r = 2.0 * log_nu - math.log(-2.0 * math.expm1(log_nu)) - log_t
    if log_r > 0.0 or log_t > 0.0:
        return math.inf
    r = math.exp(log_r)
    u = math.exp(log_t) * (1.0 + r)
    return r + (1.0 + r) * u * math.exp(u) / 2.0


def _trace_survival(order, log_scale, trace, error):
    """(1, log_survival, im_residue) of I - e^{log_scale} K as e^{log_scale} tr K.

    For a caller whose :func:`_trace_error` bound, ``error``, is at most
    _TRACE_EXACT; the trace's phase is the imaginary residue.
    """
    log.debug("determinant of order %d: route trace, relative error at most %.3e",
              order, error)
    return 1.0, float(log_scale + np.log(trace.real)), abs(trace.imag / trace.real)


# ---------------------------------------------------------------------------
# scaled one-point probabilities


def prob_packed(t, a):
    """P(x_t(t) <= 2t + at) under the packed start.

    The tagged particle is n = t at level (2 + a) t, so det(1 - P_0 Khat P_0)
    is det(I_m - G) for that particle's moment Gram G
    (:func:`kernels.finite_gram`), cut at the order m of
    :func:`kernels.packed_gram_order`, with no Nystrom grid: grid_size
    reports m, and only the contour density is doubled.  G = e^{-t r} Gt
    with Gt bounded, and :func:`_det_core` takes Gt and -t r apart: where
    its bound proves it, log_survival is -t r + log tr(Gt).
    """
    a = check_a(a)
    t = _check_time(t)

    def evaluate(size, scale):
        contours = build_packed_contours(a, t, scale * SADDLE_POINTS_PER_UNIT)
        *grams, log_scale = finite_gram(t, t, (2 + a) * t, finite_tables(t, t, contours, 2 * size))
        return [_det_core(gram, np.ones(size), log_scale) for gram in grams]

    # saddle densities x2 to x32 of SADDLE_POINTS_PER_UNIT: 32 to 512 per unit
    return _solve("prob_packed", evaluate, [packed_gram_order(a, t)] * 5)


def prob_flat(t, a):
    """P(x_t(t) <= 2t + at) under the flat start.

    One :func:`rates.rate_flat` call gives the saddle z_a, the spiral's
    curvature and the rate r.  Khat = e^{-t r} Kt with Kt bounded and real.
    On the spiral of :func:`contours.flat_contour_for` at twice the default
    density, tr(Kt), the integral of Kt's diagonal, and a bound on ||Kt||_HS
    are exact sums over its nodes (:func:`kernels.flat_trace_terms`).  Where
    that bound proves e^{-t r} tr(Kt) to be the survival
    (:func:`_trace_survival`), grid_size is 0 since no grid is built, and
    the ladder only doubles the spiral's density.
    Elsewhere det(1 - P_0 Khat P_0) is taken on Nystrom grids of 96 to 384
    nodes, and half that on its :func:`contours.sub_path`, the spiral doubled
    in density at each rung.  Rung 1 of either ladder reuses the x2 spiral
    and its traces, which decided the route.
    """
    a = check_a(a)
    t = float(t)
    saddle = rate_flat(a)
    z_a, rate = saddle.saddle_lo, saddle.rate
    log_scale = -t * rate
    first = flat_contour_for(a, t, 2 * POINTS_PER_UNIT, saddle=saddle)
    *traces, hs_bound = flat_trace_terms(a, t, first, rate)
    error = _trace_error(log_scale, traces[0], math.log(hs_bound))

    def evaluate(size, scale):
        path = first if scale == 2 else flat_contour_for(a, t, scale * POINTS_PER_UNIT,
                                                         saddle=saddle)
        if not size:
            rung = traces if path is first else flat_trace_terms(a, t, path, rate)[:2]
            return [_trace_survival(0, log_scale, trace, error) for trace in rung]
        return [_det_core(khat_flat_grid(a, t, x, x, rule), w) for rule, (x, w) in (
            (path, build_grid(0.0, abs(z_a + 1.0), size)),
            (sub_path(path), build_grid(0.0, abs(z_a + 1.0), size // 2)))]

    return _solve("prob_flat", evaluate, [0] * 3 if error <= _TRACE_EXACT else [96, 192, 384])


# ---------------------------------------------------------------------------
# stationary start


def _fd_derivative(D, a, t, what):
    """(D'(0), its rounding bound) by central differences at h and h/2 plus one Richardson step.

    h = 1e-3 (1 + a t); the two estimates must agree to 1e-5 (1 + |D'|).
    Rounding each D value to eps |D| moves the estimate by at most
    3 eps max|D| / h, the bound returned.
    """
    h = 1e-3 * (1.0 + a * t)
    values = [D(h), D(-h), D(h / 2.0), D(-h / 2.0)]
    d1 = (values[0] - values[1]) / (2.0 * h)
    d2 = (values[2] - values[3]) / h
    deriv = (4.0 * d2 - d1) / 3.0
    spread = abs(d2 - d1)
    if spread > 1e-5 * (1.0 + abs(deriv)):
        raise NumericFailure(
            f"{what} derivative unstable in the step size",
            last=deriv,
            residual=spread,
            hint=f"D(s) is not smooth on the scale of the step h = {h:.3g}",
        )
    return deriv, 3.0 * np.finfo(float).eps * max(map(abs, values)) / h


def _stationary(what, t, a, rho, D_at):
    """:func:`_solve` on D(s) = D_at(a, t, tables, size, ims, s) at each contour density.

    a and t are checked here; tables are :func:`kernels.finite_tables` of
    particle t on the packed contours, the circle shrunk to radius 0.9 rho at
    a density rho < 1, or their :func:`kernels.sub_tables`, shared by all
    finite-difference levels; D_at appends its imaginary residues to ims.
    p is D'(0) at unit density (rho None), else
    D(0) + D'(0) / (1 - rho), its rounding bound divided likewise; a
    survival 0 < 1 - p below _FD_FLOOR times the bound raises NumericFailure.
    """
    a = check_a(a)
    t = _check_time(t)

    def evaluate(size, scale):
        line, circle = build_packed_contours(a, t, scale * SADDLE_POINTS_PER_UNIT)
        radius = float(np.abs(circle.nodes).max())
        if rho is not None and radius >= 0.9 * rho:
            circle = scale_circle(circle, 0.9 * rho / radius)
        fine = finite_tables(t, t, (line, circle), size)
        return [value(tables, size) for tables in (fine, sub_tables(fine))]

    def value(tables, size):
        ims = []
        D = functools.partial(D_at, a, t, tables, size, ims)
        p, rounding = _fd_derivative(D, a, t, what)
        if rho is not None:
            p, rounding = D(0.0) + p / (1.0 - rho), rounding / (1.0 - rho)
        if 0.0 < 1.0 - p < _FD_FLOOR * rounding:
            raise NumericFailure(
                f"{what}: survival {1.0 - p:.3e} below {_FD_FLOOR:g}x the rounding "
                f"bound {rounding:.3e} of the finite-difference derivative",
                last=p, residual=rounding,
                hint="the survival is below what central differences of D resolve")
        logs = float(np.log1p(-p)) if p < 1.0 else -np.inf
        return p, logs, max(ims)

    # x2 to x16 of SADDLE_POINTS_PER_UNIT: 32 to 256 per unit
    return _solve(what, evaluate, [packed_gram_order(a, t)] * 4)


def prob_stat(t, a):
    """P(x_t(t) <= 2t + at) under the unit-density stationary start.

    Evaluates D(s) = Fhat_t(s) det(1 - P K P) + det(1 - P(K + f* x g1)P)
    around s = 0 and returns its derivative.  The determinants are
    det(I_m - G) and det(I - B) for the Gram G of order m
    (:func:`kernels.packed_gram_order`) and its border B of order m + 1 by
    the rank-one pair (:func:`kernels.stat_components`), on the tables
    :func:`prob_packed` builds for the same (t, a) (:func:`_stationary`).
    """

    def D_at(a, t, tables, size, ims, s):
        bordered, f_hat_t = stat_components(a, t, s, tables)[:2]
        det1, _, im1 = _det_core(bordered[:size, :size], np.ones(size))
        det2, _, im2 = _det_core(bordered, np.ones(size + 1))
        ims.extend((im1, im2))
        return f_hat_t * det1 + det2

    return _stationary("prob_stat", t, a, None, D_at)


def prob_stat_rho(t, a, rho):
    """P(x_t(t) <= 2t + at) for the stationary start with density rho < 1.

    Uses det(1 - P(K + (1-rho) f x g_rho)P) = det(1 - PKP) (1 - (1-rho) S)
    with S = <(1 - PKP)^{-1} P f, P g_rho> = <g_rho, 1> + <g_rho, (1 - PKP)^{-1} f*>,
    f* the decaying factor of :func:`prob_stat`.  With K = L R^T and
    G = <R, L>, (1 - PKP)^{-1} = 1 + L (I_m - G)^{-1} R^T, so
    S = <g_rho, 1> + <g_rho, f*> + <g_rho, L> (I_m - G)^{-1} <R, f*>, every
    pairing exact on the contours (:func:`kernels.stat_rho_pieces`).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density rho must lie in (0, 1), got {rho}")

    def D_at(a, t, tables, size, ims, s):
        bordered, _, left, bz = stat_components(a, t, s, tables)
        row, pair = stat_rho_pieces(a, t, s, rho, tables, left, bz)
        gram = bordered[:size, :size]
        det1, _, im = _det_core(gram, np.ones(size))
        y = np.linalg.solve(np.eye(size) - gram, bordered[:size, size])
        s_resolvent = complex(row[size] + row[:size] @ y)
        ims.extend((im, abs(s_resolvent.imag)))
        return det1 * (1.0 - (1.0 - rho) * (pair + s_resolvent.real))

    return _stationary("prob_stat_rho", t, a, rho, D_at)


# ---------------------------------------------------------------------------
# raw finite-index route (generic level s, small integer n)


@functools.lru_cache(maxsize=4)
def _finite_tables(n, t, anchors, points_per_unit):
    """Read-only :func:`kernels.finite_tables` of width 2n, for the order-n Gram, through anchors.

    The bulk levels of a sweep share one entry per contour density, and the
    five rungs x2 to x32 hold one ladder; above the edge the anchors move with s.
    """
    tables = finite_tables(n, t, build_finite_contours(n, t, anchors, points_per_unit), 2 * n)
    for table in tables:
        table.setflags(write=False)
    return tables


def prob_finite_n(n, t, s):
    """P(x_n(t) <= s) for integer n >= 1 as det(I_n - G), G of :func:`kernels.finite_gram`.

    Only the contour density is doubled, and grid_size reports n.  At n = t
    and s = (2 + a) t this is :func:`prob_packed`'s determinant, deep tail
    included.  Deep in the lower tail the determinant is a cancellation of
    O(1) entries: near p = 1e-15 (s = -1.79 at n = 5, t = 1) its imaginary
    residue passes 1e-8, and NumericFailure says that p is below what the
    n x n determinant resolves.
    """
    if not float(n).is_integer() or n < 1:
        raise ValueError(f"particle index must be an integer >= 1, got {n}")
    n = int(n)
    t = _check_time(t)
    s = _check_finite(s, "level s")
    anchors = finite_anchors(n, t, s)

    def evaluate(size, scale):
        tables = _finite_tables(n, t, anchors, scale * SADDLE_POINTS_PER_UNIT)
        *grams, log_scale = finite_gram(n, t, s, tables)
        return [_det_core(gram, np.ones(n), log_scale) for gram in grams]

    return _solve("prob_finite_n", evaluate, [n] * 5)


# ---------------------------------------------------------------------------
# tail-rate study


def tail_rate_table(ic, a, ts):
    """LDP convergence rows for t in ts: rate estimates vs the exact rate.

    Each row carries the finite-t rate estimate r_hat = -log(survival)/t,
    the exact rate, and the prefactor-scaled survival t e^{tr} (1-p) for
    the packed start or sqrt(t) e^{tr} (1-p) for the flat one, whose
    approach to a constant exhibits the subexponential correction.  A t
    whose probability raises NumericFailure stops the table: the failure is
    raised again, naming that t, with the rows of the earlier times as its
    ``last``.
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
        try:
            res = prob(t, a)
        except NumericFailure as exc:
            raise NumericFailure(f"t = {t:g}: {exc}", last=rows, residual=exc.residual,
                                 hint=exc.hint) from exc
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
