"""Contour-integral kernels entering the Fredholm determinants.

The conjugated packed kernel is a double contour integral over the saddle
contours,

    Khat(x1, x2) = (2 pi i)^-2 int dw oint dz
                   e^{t(H(w) - H(z))} e^{x1(w+1) - x2(z+1)} / (w - z),

with w on the vertical line through the left saddle and z on the circle
through the right saddle.  The flat kernel is a single integral along the
Lambert spiral with the image branch phi carried along,

    Khat(x1, x2) = int dtau e^{t G(gamma)} (gamma / (1 + gamma))
                   e^{x1(gamma+1) - x2(phi(gamma)+1)},

real since the spiral is conjugate-symmetric, and assembled in real
arithmetic on its tau >= 0 half.  On that half :func:`flat_trace_terms`
integrates its diagonal and bounds its Hilbert-Schmidt norm, in one pass
over the nodes.

The contours come from :mod:`contours`; this module folds the phases
into their weights and assembles the kernels.  The one-point determinants
need no kernel matrix.  :func:`finite_gram` gives the particle-n one as a
small moment Gram matrix on the contours alone; the packed start is
particle n = t at level (2 + a) t, and its Gram is that one cut at order
:func:`packed_gram_order`.  On the saddle contours |z/w| <= |w+|^2, so the
Cauchy factor 1/(w - z) is the series sum_l z^l / w^(l+1), cut at the
Gram order m; the Gram of order m is the product of two Hankel matrices of
2m - 1 power moments, one set per contour, each a single matrix-vector
product over that contour's power table, and no line x circle matrix is
formed.  All exponents are assembled before exponentiation, and on the
saddle contours every exponential factor has modulus at most one for
offsets xi1, xi2 >= 0, so there the evaluation never overflows regardless
of t.  At negative offsets e^{xi1(w+1)} and e^{-xi2(z+1)} grow, and a
value that overflows raises NumericFailure naming the offsets.

The stationary one-point formula needs a boundary-value remainder and a
rank-one pair on the packed contours, from the packed Gram's own
:func:`finite_tables`.  One routine, :func:`saddle_weights`, exponentiates
the phase for every saddle route: at the anchors for :func:`finite_gram`,
at the true scale of e^{t H}, which the boundary remainder needs, once per
level in :func:`stat_components` (the packed Gram bordered by the rank-one
pair), which hands its circle weights on to :func:`stat_rho_pieces`.
Every function involved is a sum of exponentials in xi over the contour
nodes, or a constant, so each integral over (s, infinity) is exact.
:func:`khat_packed_grid` tabulates the packed kernel itself on a grid,
through the whole Cauchy matrix and :func:`packed_factors`, for the
pointwise kernel and the checks, and :func:`raw_kernel_grid` the
finite-index kernel, on contours the caller places.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import (
    POINTS_PER_UNIT,
    _check_finite,
    _check_time,
    build_packed_contours,
    build_raw_contours,
    finite_anchors,
    sub_rule,
)
from .errors import NumericFailure
from .rates import (
    _f_free,
    _f_vals,
    _g_vals,
    _h_vals,
    check_a,
    phase_packed,
    phase_packed_d2,
    rate_flat,
    saddle_points,
)

_IM_TOL = 1e-8
_TWO_PI_I = 2j * np.pi
_DOUBLE_PREF = -1.0 / (4.0 * np.pi ** 2)  # 1 / (2 pi i)^2


@dataclass(frozen=True)
class KernelEval:
    value: float
    im_residue: float
    refinement_delta: float


def _demand_real(value, what, level):
    """|Im value|, after rejecting a non-finite or non-real value computed at level."""
    if not np.isfinite(value):
        raise NumericFailure(f"{what} is not finite at {level}", last=value,
                             hint=f"the contour exponentials overflow at {level}; "
                                  "they are bounded only for offsets >= 0")
    im = abs(value.imag)
    if im > _IM_TOL * (1.0 + abs(value)):
        raise NumericFailure(f"{what} has imaginary residue {im:.3e}", last=value,
                             residual=im, hint="double the contour node density")
    return im


# ---------------------------------------------------------------------------
# packed kernel


def packed_factors(a, t, contours):
    """(w, aw, z, bz): the packed kernel's nodes and weights for :func:`khat_packed_grid`.

    Line nodes w with weights carrying e^{t H(w)} and circle nodes z with
    weights carrying e^{-t H(z)}, for the pointwise kernel and the checks;
    the determinants take theirs from :func:`saddle_weights`.
    """
    line, circle = contours
    w, z = line.nodes, circle.nodes
    aw = line.weights * np.exp(t * _h_vals(w, a))
    bz = circle.weights * np.exp(-t * _h_vals(z, a))
    return w, aw, z, bz


def packed_gram_order(a, t):
    """The packed Gram order m = min(t, ceil(log(1e-18) / (2 log|w+|))).

    Order t is exact.  The terms k >= m of the Cauchy series sum to
    (z/w)^m / (w - z), and |z/w| <= |w+|^2 on the contours, so the part of
    the kernel's integrand that they drop is at most |w+|^(2m) <= 1e-18 of
    its modulus.  m is 4 at t = 4, and 11 (a = 5) to 30 (a = 0.5) at t >= 30.
    """
    w_plus = saddle_points(a)[1]
    return min(int(t), int(np.ceil(np.log(1e-18) / (2.0 * np.log(abs(w_plus))))))


def finite_tables(n, t, contours, width):
    """Level-free part of :func:`finite_gram`: (w, dw, fw, z, dz, fz, z_pows, w_pows).

    The line nodes w and circle nodes z with their trapezoid factors dw and
    dz, the s-free phase t x^2/2 + n log(-x) at each node (fw, fz), and one
    contiguous power table per contour, width columns wide: z_pows holds
    (z / rho)^p and w_pows (rho / w)^(p+1), p < width, rho = sqrt(n / t).
    The Gram of order m needs width 2 m; the stationary pieces take width m.
    """
    line, circle = contours
    w, z = line.nodes, circle.nodes
    rho = np.sqrt(n / t)
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / (w / rho)
        pows = _powers(1.0, z / rho, width), _powers(inv, inv, width)
    return (w, line.weights, _f_free(w, n, t), z, circle.weights, _f_free(z, n, t)) + pows


def _powers(first, x, width):
    """Contiguous table of width columns: first, then each column the last one times x."""
    table = np.empty((len(x), width), dtype=complex)
    table[:, 0] = first
    for p in range(1, width):
        np.multiply(table[:, p - 1], x, out=table[:, p])
    return table


def sub_tables(tables):
    """:func:`finite_tables` of the contours' :func:`contours.sub_path`, bit for bit."""
    w, dw, fw, z, dz, fz, z_pows, w_pows = tables
    ws, zs = sub_rule(w), sub_rule(z)
    return w[ws], 2.0 * dw[ws], fw[ws], z[zs], 2.0 * dz[zs], fz[zs], z_pows[zs], w_pows[ws]


def saddle_weights(tables, sigma, lo, hi, where):
    """Line and circle weights dw e^{(fw + sigma w) - lo} and dz e^{hi - (fz + sigma z)}.

    fw + sigma w is the phase f of :func:`finite_tables` at level sigma.
    :func:`finite_gram` takes lo and hi at its anchors, the stationary
    pieces at the true scale of e^{t H}.  An overflow raises NumericFailure.
    """
    w, dw, fw, z, dz, fz = tables[:6]
    with np.errstate(over="ignore", invalid="ignore"):
        aw = dw * np.exp(fw + sigma * w - lo)
        bz = dz * np.exp(hi - (fz + sigma * z))
    if not (np.isfinite(aw).all() and np.isfinite(bz).all()):
        raise NumericFailure(f"the contour weights overflow at {where}",
                             hint="at or below the edge 2 sqrt(n t) the line's stay below one, "
                                  "and the circle's reach e^((0.9 sqrt(n) - s / (2 sqrt(t)))^2)")
    return aw, bz


def finite_gram(n, t, s, tables):
    """Moment Grams of the particle-n kernel on (s, infinity), on :func:`finite_tables`.

    :func:`raw_kernel_grid`'s kernel with the level folded into its phase
    f(w) = t w^2/2 + n log(-w) + s w.  Returns (gram, sub_gram, log_scale),
    with det(1 - P_s K P_s) = det(I - e^{log_scale} gram), log_scale = f(c)
    - f(w_hi) at :func:`contours.finite_anchors`, and sub_gram the sub-rules'
    Gram, whose weights 2 aw and 2 bz double each moment.  Through the series
    1/(w - z) = sum_l z^l / w^(l+1), and the integral e^{s (w - z)} / (z - w)
    of e^{xi (w - z)} over (s, infinity), since Re(w - z) < 0,

        gram_jk = -(2 pi i)^-2 sum_l (sum_z bz z^(j+l)) (sum_w aw w^-(l+k+2)),

    a product of two Hankel matrices, Z_jl = mu_(j+l) and W_lk = nu_(l+k),
    from the 2m - 1 moments mu_p = sum_z bz z^p and nu_p = sum_w aw w^-(p+2)
    of each contour, m the order (half the tables' width).  aw and bz
    (:func:`saddle_weights`) carry e^{f(w) - f(c)} and e^{f(w_hi) - f(z)}.
    The z-integrand's only pole is of order n at 0, so order n is exact.
    Above the edge c and w_hi are the saddles w- and w+, both weights have
    modulus at most one, and the gram stays bounded however deep the tail.
    The packed Gram is particle n = t at s = (2 + a) t, cut at
    :func:`packed_gram_order`.  The powers are those of z / rho and rho / w,
    rho = sqrt(n / t) = sqrt(w- w+): this conjugates the gram by diag(rho^j)
    and scales it by rho^-2, which keeps det and trace, and keeps every power
    at most one (below the edge |c| = rho), so n > t does not overflow them.
    Only s w and the anchors depend on the level, so at or below the edge
    the tables are formed once per (n, t, contour density) and shared by all
    levels.  A weight that overflows raises NumericFailure, and so does a
    moment, in :func:`fredholm._det_core`.
    """
    z_pows, w_pows = tables[6:]
    m = w_pows.shape[1] // 2
    hankel = np.add.outer(np.arange(m), np.arange(m))
    c, w_hi = finite_anchors(n, t, s)
    f_lo, f_hi = float(_f_vals(c, n, t, s).real), float(_f_vals(w_hi, n, t, s).real)
    rho = np.sqrt(n / t)
    aw, bz = saddle_weights(tables, s, f_lo, f_hi, f"n = {n}, t = {t}, s = {s}")
    zs, ws = sub_rule(bz), sub_rule(aw)
    with np.errstate(over="ignore", invalid="ignore"):
        # aw @ w_pows holds the sums of aw w^-(p+1), so nu is its tail
        grams = [scale * (mu[hankel] @ w_moments[1:][hankel]) for scale, mu, w_moments in (
            (1.0, bz @ z_pows, aw @ w_pows), (4.0, bz[zs] @ z_pows[zs], aw[ws] @ w_pows[ws]))]
    return tuple(-_DOUBLE_PREF * gram / (rho * rho) for gram in grams) + (f_lo - f_hi,)


def _cauchy_grid(xi1, xi2, w, aw, z, bz, shift):
    """(2 pi i)^-2 sum aw e^{xi1 (w + shift)} bz e^{-xi2 (z + shift)} / (w - z), 1/(w - z) whole."""
    e1 = np.exp(np.multiply.outer(np.asarray(xi1, dtype=float), w + shift))
    e2 = np.exp(-np.multiply.outer(np.asarray(xi2, dtype=float), z + shift))
    return _DOUBLE_PREF * ((e1 * aw) @ (1.0 / np.subtract.outer(w, z)) @ (e2 * bz).T)


def khat_packed_grid(xi1, xi2, factors):
    """Conjugated packed kernel on the product grid xi1 x xi2 (complex), 1/(w - z) whole."""
    return _cauchy_grid(xi1, xi2, *factors, 1.0)


def khat_packed(a, t, xi1, xi2):
    """Pointwise conjugated packed kernel with a refinement certificate.

    The value is taken at twice the default contour density, and the
    certificate is its change from the value at the default density.
    """
    a = check_a(a)
    t = _check_time(t)
    xi1 = _check_finite(xi1, "xi1")
    xi2 = _check_finite(xi2, "xi2")

    def value_at(ppu):
        factors = packed_factors(a, t, build_packed_contours(a, t, ppu))
        return khat_packed_grid([xi1], [xi2], factors)[0, 0]

    coarse, fine = value_at(POINTS_PER_UNIT), value_at(2 * POINTS_PER_UNIT)
    im = _demand_real(fine, "packed kernel value", f"(xi1, xi2) = ({xi1}, {xi2})")
    return KernelEval(value=float(fine.real), im_residue=im, refinement_delta=abs(fine - coarse))


# ---------------------------------------------------------------------------
# flat kernel


def _half_spiral(a, t, path, shift):
    """(gamma, phi, c) on the spiral's tau >= 0 half, c = dtau gamma' e^{t (G + shift)} / (2 pi i).

    At -tau gamma, phi and c are the conjugates of those at tau, so a spiral
    sum of c f(gamma, phi), f real on the real axis, is Re sum c f over this
    half with the tau > 0 weights doubled (weights carry dtau gamma').
    """
    half = len(path.nodes) // 2
    gam, phi = path.nodes[half:], path.phi_nodes[half:]
    c = path.weights[half:] * np.exp(t * (_g_vals(gam, phi, a) + shift)) / _TWO_PI_I
    c[1:] *= 2.0
    return gam, phi, c


def khat_flat_grid(a, t, xi1, xi2, path):
    """Conjugated flat kernel on the product grid xi1 x xi2 (real).

    Re(E1 E2^T) for E1 = c e^{xi1 (gamma + 1)}, E2 = e^{-xi2 (phi + 1)} on
    :func:`_half_spiral`: one real product of the (re, im) views of E1, conj(E2).
    """
    gam, phi, c = _half_spiral(a, t, path, 0.0)
    e1 = np.exp(np.multiply.outer(np.asarray(xi1, dtype=float), gam + 1.0)) * c
    e2 = np.exp(-np.multiply.outer(np.asarray(xi2, dtype=float), phi.conj() + 1.0))
    return e1.view(float) @ e2.view(float).T


def flat_trace_terms(a, t, path, rate):
    """(trace, sub-rule trace, HS bound) of the flat kernel on (0, infinity), times e^{t rate}.

    K(x, x) = sum_gamma c_gamma e^{-x (phi - gamma)} with Re(phi - gamma) > 0
    on the spiral, so the integral of the diagonal is sum_gamma c_gamma /
    (phi - gamma) exactly.  Each term c e^{x1 (gamma + 1)} e^{-x2 (phi + 1)}
    has Hilbert-Schmidt norm |c| / (2 sqrt(-Re(gamma + 1) Re(phi + 1))), and
    their sum bounds the kernel's; it is inf when a node has Re(gamma + 1) >=
    0 or Re(phi + 1) <= 0, where a term does not decay.  All three are sums
    over one :func:`_half_spiral` at shift rate = -G(z_a), where |c_gamma|
    peaks at one, at the saddle: there the half starts, so twice its even
    terms give the trace on the :func:`contours.sub_path`.  The traces are real.
    """
    gam, phi, c = _half_spiral(a, t, path, rate)
    terms = c / (phi - gam)
    traces = float(np.sum(terms).real), float(2.0 * np.sum(terms[::2]).real)
    if not (np.all(gam.real < -1.0) and np.all(phi.real > -1.0)):
        return traces + (np.inf,)
    norms = np.abs(c) / (2.0 * np.sqrt(-(gam.real + 1.0) * (phi.real + 1.0)))
    return traces + (float(np.sum(norms)),)


# ---------------------------------------------------------------------------
# stationary Gram pairings (on the packed tables)


def stat_components(a, t, s, tables):
    """Gram pairings of the unit-density stationary determinants at offset s.

    On the :func:`finite_tables` of particle t on the packed contours, the
    packed kernel is K = L R^T with L_k = (2 pi i)^-2 sum_w aw w^-(k+1) e^{xi (w+1)}
    and R_j = sum_z bz z^j e^{-xi (z+1)}, k, j < m (see :func:`finite_gram`),
    aw and bz carrying e^{t H(w) + s (w+1)} and e^{-t H(z) - s (z+1)} at their
    true scale, which the boundary remainder needs: the particle-t phase at
    sigma = (2 + a) t + s less t/2 - sigma.  The rank-one pair is
    f*(xi) = sum_w c_w e^{xi (w+1)} (decaying) and
    g1(xi) = 1 + (2 pi i)^-1 sum_z bz e^{-xi (z+1)} / (z+1).  On (s, infinity)
    a line term pairs with a circle term through the integral of e^{xi (w-z)},
    e^{s (w-z)} / (z - w), and with the constant 1 of g1 through that of
    e^{xi (w+1)}, -e^{s (w+1)} / (w+1), since Re(w + 1) < 0 on the line.
    1/(w - z) acts through the power tables, exact at m = t for g1 too.

    Returns (bordered, f_hat_t, left, bz).  bordered is the Gram of order
    m + 1, [[G, <R, f*>], [<g1, L>, <g1, f*>]]: det(I - G) is
    det(1 - P_s K P_s) and det(I - bordered) is det(1 - P_s (K + f* x g1) P_s).
    f_hat_t = s + a t + Rhat_t(s) - 1 with the boundary remainder Rhat_t(s).
    left holds the line coefficients of L_0 .. L_{m-1} and f*, each times
    e^{s (w+1)}, and bz the circle weights, for :func:`stat_rho_pieces`: each
    level calls :func:`saddle_weights` once, and a and t are not re-checked.
    """
    w, z, z_pows, w_pows = tables[0], tables[3], tables[6], tables[7]
    wp1, zp1 = w + 1.0, z + 1.0
    sigma = (2.0 + a) * t + s
    aw_s, bz_s = saddle_weights(tables, sigma, t / 2.0 - sigma, t / 2.0 - sigma, f"s = {s}")

    r_hat_c = -np.sum(bz_s / zp1 ** 2) / _TWO_PI_I
    _demand_real(r_hat_c, "stationary boundary remainder", f"s = {s}")
    # circle coefficients of R_0 .. R_{m-1} and of g1 - 1
    right = bz_s[:, None] * np.column_stack((z_pows, 1.0 / (_TWO_PI_I * zp1)))
    coupled = w_pows @ (z_pows.T @ right)    # 1/(w - z) applied to them
    # f* pairs the line with the z-side vector of g1 through the Cauchy factor
    f_star = aw_s / _TWO_PI_I * (1.0 / wp1 + coupled[:, -1])
    left = np.column_stack(((_DOUBLE_PREF * aw_s)[:, None] * w_pows, f_star))
    bordered = -(coupled.T @ left)
    bordered[-1] -= (1.0 / wp1) @ left
    return bordered, s + a * t + float(r_hat_c.real) - 1.0, left, bz_s


def stat_rho_pieces(a, t, s, rho, tables, left, bz):
    """Pairings of g_rho with the columns of ``left`` and with the constant 1.

    ``left`` and ``bz`` are the last two values :func:`stat_components`
    returns for the same tables and offset.  g_rho splits into a residue term
    e^{-t H(-rho)} e^{-(1 - rho) xi} and a contour term
    (2 pi i)^-1 sum_z bz e^{-xi (z+1)} / (z + rho) on the z-circle (the circle
    radius stays below rho, so the pole at -rho is picked up explicitly).
    On (s, infinity) the residue term pairs with e^{xi (w+1)} through
    -e^{s (w + rho)} / (w + rho), and the contour term as in
    :func:`stat_components`.  Returns (row, pair): row = <g_rho, left> over
    its columns (complex), pair = <g_rho, 1>, integrated contour-first, which
    converges because Re(z + 1) > 0 along the whole circle.
    """
    w, z, z_pows, w_pows = tables[0], tables[3], tables[6], tables[7]
    if np.abs(z).max() >= rho:
        raise NumericFailure("z-circle radius must stay below rho",
                             residual=float(np.abs(z).max()),
                             hint="rebuild gamma_plus with a smaller radius")
    res_s = np.exp(-t * phase_packed(-rho, a) - (1.0 - rho) * s)
    row = -(res_s / (w + rho) + w_pows @ (z_pows.T @ (bz / (z + rho))) / _TWO_PI_I) @ left
    pair_circ_c = np.sum(bz / ((z + 1.0) * (z + rho))) / _TWO_PI_I
    _demand_real(pair_circ_c, "rho pairing contour term", f"s = {s}")
    return row, float(res_s / (1.0 - rho) + pair_circ_c.real)


# ---------------------------------------------------------------------------
# saddle-point limit kernels


def klimit(ic, a):
    """Pointwise t -> infinity limit of the rescaled kernels.

    For the packed case the saddle-point limit of t e^{t r} Khat_t is

        e^{x1(w- + 1) - x2(w+ + 1)} / (2 pi sqrt(H''(w-) |H''(w+)|) (w+ - w-));

    its integrated diagonal, the integral of K(x, x) over x >= 0, is the
    packed tail constant w- w+ (2 pi (w- - w+)^2 sqrt((w-^2 - 1)(1 - w+^2)))^{-1},
    the limit of t e^{t r} P(upper tail).  The flat limit is that of
    sqrt(t) e^{t r} Khat_t, from its single saddle z_a.  Returns a
    broadcasting callable of (x1, x2).
    """
    a = check_a(a)
    if ic == "packed":
        w_minus, w_plus = saddle_points(a)
        curv = np.sqrt(phase_packed_d2(w_minus, a) * -phase_packed_d2(w_plus, a))
        pref = 1.0 / (2.0 * np.pi * curv * (w_plus - w_minus))
        c1, c2 = w_minus + 1.0, w_plus + 1.0
    elif ic == "flat":
        saddle = rate_flat(a)
        z_a, phi_a, eta = saddle.saddle_lo, saddle.saddle_hi, saddle.second_deriv[0]
        pref = np.sqrt(2.0 * np.pi / abs(eta)) * (z_a / (1.0 + z_a))
        c1, c2 = z_a + 1.0, phi_a + 1.0
    else:
        raise ValueError(f"unknown initial condition {ic!r}, expected 'packed' or 'flat'")

    def kernel(x1, x2):
        return pref * np.exp(np.asarray(x1, dtype=float) * c1 - np.asarray(x2, dtype=float) * c2)

    return kernel


# ---------------------------------------------------------------------------
# raw kernel at finite particle index


def raw_kernel_grid(n, t, xi1, xi2, line_re, circle_rad):
    """Particle-n kernel on generic contours, conjugated by e^{-line_re xi}.

    The w-contour is the vertical line Re w = line_re < 0 and the
    z-contour the circle |z| = circle_rad around the pole of order n at
    the origin; the circle must stay strictly inside the line's modulus
    so the Cauchy coupling keeps its nesting.  xi are absolute positions
    (no macroscopic recentring).  Returns the matrix of

        K(xi1, xi2) = (2 pi i)^-2 int dw oint dz e^{xi1 (w - c) - xi2 (z - c)}
                      e^{t (w^2 - z^2)/2} (w / z)^n / (w - z),

    c = line_re, through the whole line x circle Cauchy matrix.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"particle index must be a positive integer, got {n}")
    t = _check_time(t)
    c = float(line_re)
    r = float(circle_rad)
    if c >= 0:
        raise ValueError("line_re must be negative")
    if not 0 < r < -c:
        raise ValueError("need 0 < circle_rad < |line_re| for contour nesting")
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    n = int(n)

    line, circle = build_raw_contours(n, t, xi1, xi2, c, r)
    w, z = line.nodes, circle.nodes
    aw = line.weights * np.exp(_f_vals(w, n, t, 0.0))
    bz = circle.weights * np.exp(-_f_vals(z, n, t, 0.0))
    return _cauchy_grid(xi1, xi2, w, aw, z, bz, -c)
