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

The flat determinant det(1 - P_0 K P_0) is evaluated by the Nystrom
method (Bornemann, Math. Comp. 79 (2010)): Gauss-Legendre nodes u in
(0,1) are mapped to xi = s - log(1-u)/d by :func:`build_grid`, which
absorbs the proven exponential kernel decay (rate |z_a + 1|) so grids of
a few dozen nodes converge.  With M = W^1/2 K W^1/2, log det(I - M) comes
from LU while the survival |1 - det| is at least 1e-2, where LU's
absolute error of about N eps is about 1e-12 relative.
Smaller survivals, which 1 - det would lose to cancellation, come from the
trace series -sum_j tr(M^j)/j, whose terms keep their relative precision;
it needs ||M||_F < 1/2, or NumericFailure is raised.  A kernel e^{L} Kt
with Kt bounded and L below -600 has survival e^{L} tr(Kt), one rule
(:func:`_deep_trace`) for the Gram routes and the flat one.  On the flat
route tr(Kt) is the integral of the kernel's diagonal, exact on the
spiral, and no grid is built (see :func:`prob_flat`).

Every entry point hands a closure evaluate(size, scale) and its fixed
ladder of sizes to one driver, :func:`_solve`, which doubles the contour
density at each rung (and on the flat Nystrom route the grid size, 48 to
384; the Gram orders m and n stay) until successive values agree; it
reports the last change as the refinement delta and the final grid size,
and checks the imaginary residue and the [0, 1] range; a survival it
cannot resolve (p above 1, or a log_survival that is not finite), or a
ladder that ends before p settles, raises NumericFailure.
Both stationary laws need an s-derivative, taken by central differences
with one Richardson step; the two step sizes must agree, and a survival
below ten times the rounding bound of those differences raises.  Each
contour density forms its tables once for all levels.

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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contours import (
    POINTS_PER_UNIT,
    _check_finite,
    _check_time,
    build_finite_contours,
    build_packed_contours,
    finite_anchors,
    flat_contour_for,
    scale_circle,
)
from .errors import NumericFailure
from .kernels import (
    _IM_TOL,
    finite_gram,
    finite_tables,
    khat_flat_grid,
    khat_flat_trace,
    packed_gram_order,
    stat_components,
    stat_rho_pieces,
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
# below this log e^{-t r} the packed and flat survivals are e^{-t r} times a
# trace to double precision
_DEEP_LOG_SCALE = -600.0
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
    im_residue: float
    refinement_delta: float
    grid_size: int                # flat Nystrom nodes of the returned
                                  # evaluation, the Gram order m of the packed
                                  # and stationary routes, n on the finite-
                                  # index one, or 0 on the deep flat trace,
                                  # which builds no grid


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


def _det_core(kmat, weights):
    """(det, log_survival, im_residue) of I - M with M = sqrt(w) K sqrt(w).

    log det(I - M) is LU's, or the trace series' when |1 - det| from LU is
    below _LU_SURVIVAL; a series that cannot converge raises NumericFailure.
    With nu = ||M||_F < 1, |tr M^k| <= nu^k for k >= 2, so |log det(I - M)|
    is at most |tr M| + nu^2 / (1 - nu); below _LU_SKIP that proves the
    series route, and LU is not run.  The series stops once its tail after
    k terms, at most nu^(k+1) / ((k + 1)(1 - nu)), is below 1e-17 |log det|,
    before forming the next power.  Deep in the tail M's entries are near
    the underflow threshold, where LU and the matrix products would run in
    slow subnormal arithmetic.
    The log of a real determinant has imaginary part a multiple of pi, odd
    when it is negative; the residue from that multiple is returned.
    An LU log det above that of the largest double raises NumericFailure;
    the series' is bounded by its norm.
    """
    sq = np.sqrt(weights)
    m = sq[:, None] * np.asarray(kmat, dtype=complex) * sq[None, :]
    norm = float(np.linalg.norm(m))
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
    """Evaluate at sizes[k] and contour density 2^k until p moves by less than _TARGET.

    evaluate(size, scale) returns (p, log_survival, im_residue).  Each step
    is logged at DEBUG level, which gives the refinement history.  A p above
    1, a log_survival that is not finite, or a ladder whose last rung still
    moves p by _TARGET or more raises NumericFailure; a p within _CLAMP
    below 0 is set to 0.
    """
    prev = None
    for step, size in enumerate(sizes):
        scale = 2 ** step
        result = evaluate(size, scale)
        delta = np.inf if prev is None else abs(result[0] - prev[0])
        log.debug("%s: grid size %d, p %.17g, log_survival %.17g, delta %.3e, "
                  "im residue %.3e", what, size, result[0], result[1], delta, result[2])
        if delta < _TARGET:
            break
        prev = result
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


def _deep_trace(log_scale, trace):
    """(p, log_survival, im_residue) of det(1 - e^{log_scale} K), K bounded with trace ``trace``.

    At log_scale <= _DEEP_LOG_SCALE, 1 - det is e^{log_scale} trace to a relative
    e^{log_scale} |K| < 1e-260; the trace's phase is the imaginary residue.
    """
    return 1.0, float(log_scale + np.log(trace.real)), abs(trace.imag / trace.real)


def _gram_det(gram, log_scale):
    """(p, log_survival, im_residue) of det(I - e^{log_scale} gram), gram bounded.

    Below _DEEP_LOG_SCALE the survival is :func:`_deep_trace`'s.
    """
    if log_scale > _DEEP_LOG_SCALE:
        return _det_core(np.exp(log_scale) * gram, np.ones(len(gram)))
    return _deep_trace(log_scale, complex(np.trace(gram)))


# ---------------------------------------------------------------------------
# scaled one-point probabilities


def prob_packed(t, a):
    """P(x_t(t) <= 2t + at) under the packed start.

    The tagged particle is n = t at level (2 + a) t, so det(1 - P_0 Khat P_0)
    is det(I_m - G) for that particle's moment Gram G
    (:func:`kernels.finite_gram`), cut at the order m of
    :func:`kernels.packed_gram_order`, with no Nystrom grid: grid_size
    reports m, and only the contour density is doubled.  G = e^{-t r} Gt
    with Gt bounded, so once t r exceeds 600 log_survival is
    -t r + log tr(Gt) (:func:`_deep_trace`).
    """
    a = check_a(a)
    t = _check_time(t)

    def evaluate(size, scale):
        contours = build_packed_contours(a, t, scale * POINTS_PER_UNIT)
        return _gram_det(*finite_gram(t, t, (2 + a) * t, finite_tables(t, t, contours, size)))

    # contour densities x1 to x8, as on the flat route's grids 48 to 384
    return _solve("prob_packed", evaluate, [packed_gram_order(a, t)] * 4)


def prob_flat(t, a):
    """P(x_t(t) <= 2t + at) under the flat start.

    det(1 - P_0 Khat P_0) on a Nystrom grid of 48 to 384 nodes, with the
    spiral of :func:`contours.flat_contour_for` doubled in density at each
    rung.  One :func:`rates.rate_flat` call gives the saddle z_a and the
    rate r.  Khat = e^{-t r} Kt with Kt bounded.  Once t r exceeds 600 the
    survival is :func:`_deep_trace`'s, the trace being the integral of
    Kt's diagonal, exact on the spiral (:func:`kernels.khat_flat_trace`),
    and grid_size is 0, since no grid is built.
    """
    a = check_a(a)
    t = float(t)
    saddle = rate_flat(a)
    z_a, rate = saddle.saddle_lo, saddle.rate

    def evaluate(size, scale):
        path = flat_contour_for(a, t, scale * POINTS_PER_UNIT, z_a=z_a)
        if not size:
            return _deep_trace(-t * rate, khat_flat_trace(a, t, path, rate))
        nodes, weights = build_grid(0.0, abs(z_a + 1.0), size)
        return _det_core(khat_flat_grid(a, t, nodes, nodes, path), weights)

    deep = -t * rate <= _DEEP_LOG_SCALE
    return _solve("prob_flat", evaluate, [0] * 4 if deep else [48, 96, 192, 384])


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
    """:func:`_solve` on D(s) = D_at(tables, size, ims, s) at each contour density.

    tables are :func:`kernels.finite_tables` of particle t on the packed
    contours, the circle shrunk to radius 0.9 rho at a density rho < 1,
    shared by all finite-difference levels; D_at appends its imaginary
    residues to ims.  p is D'(0) at unit density (rho None), else
    D(0) + D'(0) / (1 - rho), its rounding bound divided likewise; a
    survival 0 < 1 - p below _FD_FLOOR times the bound raises NumericFailure.
    """
    a = check_a(a)
    t = float(t)

    def evaluate(size, scale):
        line, circle = build_packed_contours(a, t, scale * POINTS_PER_UNIT)
        radius = float(np.abs(circle.nodes).max())
        if rho is not None and radius >= 0.9 * rho:
            circle = scale_circle(circle, 0.9 * rho / radius)
        ims = []
        D = functools.partial(D_at, finite_tables(t, t, (line, circle), size), size, ims)
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

    # contour densities x1, x2 and x4
    return _solve(what, evaluate, [packed_gram_order(a, t)] * 3)


def prob_stat(t, a):
    """P(x_t(t) <= 2t + at) under the unit-density stationary start.

    Evaluates D(s) = Fhat_t(s) det(1 - P K P) + det(1 - P(K + f* x g1)P)
    around s = 0 and returns its derivative.  The determinants are
    det(I_m - G) and det(I - B) for the Gram G of order m
    (:func:`kernels.packed_gram_order`) and its border B of order m + 1 by
    the rank-one pair (:func:`kernels.stat_components`), on the tables
    :func:`prob_packed` builds for the same (t, a) (:func:`_stationary`).
    """

    def D_at(tables, size, ims, s):
        bordered, f_hat_t, _ = stat_components(a, t, s, tables)
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

    def D_at(tables, size, ims, s):
        bordered, _, left = stat_components(a, t, s, tables)
        row, pair = stat_rho_pieces(a, t, s, rho, tables, left)
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
    """Read-only :func:`kernels.finite_tables` of order n on the contours through anchors.

    The bulk levels of a sweep share one entry per contour density, and four
    entries hold one ladder; above the edge the anchors move with s.
    """
    tables = finite_tables(n, t, build_finite_contours(n, t, anchors, points_per_unit), n)
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
        tables = _finite_tables(n, t, anchors, scale * POINTS_PER_UNIT)
        return _gram_det(*finite_gram(n, t, s, tables))

    return _solve("prob_finite_n", evaluate, [n] * 4)


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
