"""Contour-integral kernels entering the Fredholm determinants.

The conjugated packed kernel is a double contour integral over the saddle
contours,

    Khat(x1, x2) = (2 pi i)^-2 int dw oint dz
                   e^{t(H(w) - H(z))} e^{x1(w+1) - x2(z+1)} / (w - z),

with w on the vertical line through the left saddle and z on the circle
through the right saddle.  The flat kernel is a single integral along the
Lambert spiral with the image branch phi carried along,

    Khat(x1, x2) = int dtau e^{t G(gamma)} (gamma / (1 + gamma))
                   e^{x1(gamma+1) - x2(phi(gamma)+1)}.

The contours come from :mod:`contours`; this module folds the phases
into their weights and assembles the kernels.  Both kernels are evaluated
on whole quadrature grids at once by splitting the integrand into
per-contour-node factors; the double integral couples the two contours
only through the Cauchy factor 1/(w - z), which becomes a fixed matrix.
All exponents are assembled before exponentiation, and on the saddle
contours every exponential factor has modulus at most one for offsets
xi1, xi2 >= 0, so there the evaluation never overflows regardless of t.
At negative offsets e^{xi1(w+1)} and e^{-xi2(z+1)} grow, and a value
that overflows raises NumericFailure naming the offsets.

The stationary one-point formula needs three further contour objects
(a boundary-value remainder, a rank-one pair) which share the packed
contours.  :func:`packed_factors` folds the phases into the contour
weights and forms the Cauchy matrix; none of this depends on the level,
so the stationary formulas form the contour weights and the Cauchy matrix
once per grid size.  From those factors :func:`stat_components` returns
the stationary data together with the packed kernel matrix on the same
quadrature nodes, so each finite-difference level forms its grid
exponentials once.  A raw kernel for finite particle index n on generic
contours (vertical line, small circle around the pole of order n) supports
cross-checks against exact Gaussian and matrix-diagonalization laws at
small n.  It is returned as two n-column factors instead of a matrix: on
the circle |z| < |w|, so the Cauchy factor is the series
sum_k z^k / w^(k+1), and since the only singularity of the z-integrand
inside the circle is the pole of order n at 0, every term with k >= n
integrates to zero.  The kernel is the sum of the first n products of
w-moments and z-moments, of rank exactly n like the Hermite kernel.
On the line w = c + iy the level factor is e^{xi c} times the phase
e^{i xi y}, which is summed in blocks of about sqrt(N) of the N nodes:
2 sqrt(N) exponentials per level instead of N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contours import (
    ContourConfig,
    _check_finite,
    _check_time,
    build_packed_contours,
    build_raw_contours,
    flat_contour_for,
)
from .errors import NumericFailure
from .lambertw import phi
from .rates import (
    _g_vals,
    _h_vals,
    check_a,
    flat_curvature,
    phase_packed,
    phase_packed_d2,
    saddle_points,
    solve_za,
)

_IM_TOL = 1e-8
_TWO_PI_I = 2j * np.pi
_DOUBLE_PREF = -1.0 / (4.0 * np.pi ** 2)  # 1 / (2 pi i)^2


@dataclass(frozen=True)
class KernelEval:
    value: float
    im_residue: float
    refinement_delta: float


@dataclass(frozen=True)
class StatComponents:
    kmat: np.ndarray      # packed kernel on nodes x nodes (complex)
    f_star: np.ndarray    # decaying rank-one factor on the nodes
    g_one: np.ndarray     # bounded rank-one factor on the nodes
    e2: np.ndarray        # z-side exponentials e^{-xi (z+1)} on the nodes
    r_hat: float
    f_hat_t: float


def _demand_real(value, what, level):
    """|Im value|, after rejecting a non-finite or non-real value computed at level."""
    if not np.isfinite(value):
        raise NumericFailure(
            f"{what} is not finite at {level}",
            last=value,
            hint=f"the contour exponentials overflow at {level}; "
                 "they are bounded only for offsets >= 0",
        )
    im = abs(value.imag)
    if im > _IM_TOL * (1.0 + abs(value)):
        raise NumericFailure(
            f"{what} has imaginary residue {im:.3e}",
            last=value,
            residual=im,
            hint="double the contour node density",
        )
    return im


# ---------------------------------------------------------------------------
# packed kernel


def packed_factors(a, t, contours):
    """Level-independent factors of the packed kernel on the saddle contours.

    Returns (w, aw, z, bz, cauchy): line nodes w with weights carrying
    e^{t H(w)}, circle nodes z with weights carrying e^{-t H(z)}, and the
    Cauchy matrix cauchy = 1/(w - z).
    """
    line, circle = contours
    w = line.nodes
    z = circle.nodes
    aw = line.weights * np.exp(t * _h_vals(w, a))
    bz = circle.weights * np.exp(-t * _h_vals(z, a))
    return w, aw, z, bz, 1.0 / np.subtract.outer(w, z)


def _packed_assembly(factors, xi1, xi2):
    """Packed kernel on xi1 x xi2 with its grid exponentials.

    Returns (kmat, e1, e2), where e1 = e^{xi1 (w+1)} and e2 = e^{-xi2 (z+1)}.
    """
    w, aw, z, bz, cauchy = factors
    e1 = np.exp(np.multiply.outer(np.asarray(xi1, dtype=float), w + 1.0))
    e2 = np.exp(-np.multiply.outer(np.asarray(xi2, dtype=float), z + 1.0))
    return _DOUBLE_PREF * ((e1 * aw) @ cauchy @ (e2 * bz).T), e1, e2


def khat_packed_grid(xi1, xi2, factors):
    """Conjugated packed kernel on the product grid xi1 x xi2 (complex)."""
    return _packed_assembly(factors, xi1, xi2)[0]


def _certified(what, xi1, xi2, cfg, value_at):
    """KernelEval of value_at(cfg) refined against twice cfg's points_per_unit."""
    coarse = value_at(cfg)
    fine = value_at(replace(cfg, points_per_unit=2 * cfg.points_per_unit))
    im = _demand_real(fine, what, f"(xi1, xi2) = ({xi1}, {xi2})")
    return KernelEval(value=float(fine.real), im_residue=im, refinement_delta=abs(fine - coarse))


def khat_packed(a, t, xi1, xi2):
    """Pointwise conjugated packed kernel with a refinement certificate."""
    a = check_a(a)
    t = _check_time(t)
    xi1 = _check_finite(xi1, "xi1")
    xi2 = _check_finite(xi2, "xi2")
    return _certified(
        "packed kernel value", xi1, xi2, ContourConfig(),
        lambda c: khat_packed_grid(
            [xi1], [xi2], packed_factors(a, t, build_packed_contours(a, t, c)))[0, 0])


# ---------------------------------------------------------------------------
# flat kernel


def khat_flat_grid(a, t, xi1, xi2, path):
    """Conjugated flat kernel on the product grid xi1 x xi2 (complex)."""
    gam = path.nodes
    phi = path.phi_nodes
    # weights already carry dtau * gamma' = dtau * 2 pi i gamma/(1+gamma)
    core = path.weights * np.exp(t * _g_vals(gam, phi, a)) / _TWO_PI_I
    e1 = np.exp(np.multiply.outer(np.asarray(xi1, dtype=float), gam + 1.0))
    e2 = np.exp(-np.multiply.outer(np.asarray(xi2, dtype=float), phi + 1.0))
    return (e1 * core) @ e2.T


def khat_flat(a, t, xi1, xi2, cfg=None):
    """Pointwise conjugated flat kernel with a refinement certificate."""
    a = check_a(a)
    t = _check_time(t)
    xi1 = _check_finite(xi1, "xi1")
    xi2 = _check_finite(xi2, "xi2")
    z_a = solve_za(a)
    return _certified(
        "flat kernel value", xi1, xi2, cfg or ContourConfig(),
        lambda c: khat_flat_grid(a, t, [xi1], [xi2], flat_contour_for(a, t, c, z_a=z_a))[0, 0])


# ---------------------------------------------------------------------------
# stationary pieces (shared packed factors)


def stat_components(a, t, s_offset, factors, nodes):
    """Packed kernel and stationary rank-one data at offset s on the nodes.

    From the :func:`packed_factors` of the contours, one formation of the
    grid exponentials gives the packed kernel matrix on nodes x nodes, the
    rank-one pair f_star (decaying) and g_one (bounded) on the nodes, the
    boundary remainder r_hat = Rhat_t(s) and the scalar prefactor
    f_hat_t = s + a t + Rhat_t(s) - 1.  The nodes are offsets >= s.
    """
    a = check_a(a)
    t = _check_time(t)
    s = float(s_offset)
    w, aw, z, bz, cauchy = factors
    kmat, e1, e2 = _packed_assembly(factors, nodes, nodes)
    zp1 = z + 1.0
    wp1 = w + 1.0
    bz_s = bz * np.exp(-s * zp1)

    r_hat_c = -np.sum(bz_s / zp1 ** 2) / _TWO_PI_I
    _demand_real(r_hat_c, "stationary boundary remainder", f"s = {s}")
    # the Cauchy-coupled part of f_star pairs the line with a fixed z-side vector
    f_star = (e1 @ (aw / wp1)) / _TWO_PI_I + _DOUBLE_PREF * (e1 @ (aw * (cauchy @ (bz_s / zp1))))
    g_one = 1.0 + (e2 @ (bz / zp1)) / _TWO_PI_I
    r_hat = float(r_hat_c.real)
    return StatComponents(
        kmat=kmat,
        f_star=f_star.real,
        g_one=g_one.real,
        e2=e2,
        r_hat=r_hat,
        f_hat_t=s + a * t + r_hat - 1.0,
    )


def stat_rho_pieces(a, t, s_offset, rho, factors, nodes, e2):
    """Density-rho ingredients: g_rho on the nodes and its exact tail pairing.

    ``e2`` is the :class:`StatComponents` field of the same factors and
    nodes, so the z-side exponentials are formed once per level.

    g_rho splits into a residue term decaying at rate 1 - rho and a contour
    term on the z-circle (the circle radius stays below rho, so the pole at
    -rho is picked up explicitly).  The pairing scalars integrate the
    constant part of the rank-one row over (s, infinity) contour-first,
    which converges because Re(z + 1) > 0 along the whole circle.
    """
    a = check_a(a)
    t = _check_time(t)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"density rho must lie in (0, 1), got {rho}")
    s = float(s_offset)
    _, _, z, bz, _ = factors
    if np.abs(z).max() >= rho:
        raise NumericFailure(
            "z-circle radius must stay below rho",
            residual=float(np.abs(z).max()),
            hint="rebuild gamma_plus with a smaller radius",
        )
    zp1 = z + 1.0
    res_amp = np.exp(-t * phase_packed(-rho, a))

    xi = np.asarray(nodes, dtype=float)
    g_rho = res_amp * np.exp(-(1.0 - rho) * xi) + (e2 @ (bz / (z + rho))) / _TWO_PI_I
    pair_res = res_amp * np.exp(-(1.0 - rho) * s) / (1.0 - rho)
    pair_circ_c = np.sum(bz * np.exp(-s * zp1) / (zp1 * (z + rho))) / _TWO_PI_I
    _demand_real(pair_circ_c, "rho pairing contour term", f"s = {s}")
    return g_rho.real, float(pair_res), float(pair_circ_c.real)


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
        z_a = solve_za(a)
        eta = flat_curvature(z_a, a)
        phi_a = phi(z_a)
        pref = np.sqrt(2.0 * np.pi / abs(eta)) * (z_a / (1.0 + z_a))
        c1, c2 = z_a + 1.0, phi_a + 1.0
    else:
        raise ValueError(f"unknown initial condition {ic!r}, expected 'packed' or 'flat'")

    def kernel(x1, x2):
        return pref * np.exp(np.asarray(x1, dtype=float) * c1 - np.asarray(x2, dtype=float) * c2)

    return kernel


# ---------------------------------------------------------------------------
# raw kernel at finite particle index


def _raw_weights(n, t, contours):
    """Nodes and weights of the raw contours with the phases folded in.

    Returns (w, aw, z, bz): line nodes w with weights carrying
    e^{t w^2/2} (-w)^n, circle nodes z with weights carrying
    e^{-t z^2/2} (-z)^{-n}.
    """
    line, circle = contours
    w = line.nodes
    z = circle.nodes
    aw = line.weights * np.exp(t * w * w / 2.0 + n * np.log(-w))
    bz = circle.weights * np.exp(-t * z * z / 2.0 - n * np.log(-z))
    return w, aw, z, bz


def raw_kernel_grid(n, t, xi1, xi2, line_re, circle_rad, sigma=None, oversample=1):
    """Particle-n kernel on generic contours, conjugated by e^{sigma xi}.

    The w-contour is the vertical line Re w = line_re < 0 and the
    z-contour the circle |z| = circle_rad around the pole of order n at
    the origin; the circle must stay strictly inside the line's modulus
    so the Cauchy coupling keeps its nesting.  xi are absolute positions
    (no macroscopic recentring).

    Returns the factors (left, right), of shapes (len(xi1), n) and
    (len(xi2), n), with K = left @ right.T:

        left[:, k]  = (2 pi i)^-2 int dw e^{xi1 (w + sigma)} e^{t w^2/2} (-w)^n w^-(k+1),
        right[:, k] = oint dz e^{-xi2 (z + sigma)} e^{-t z^2/2} (-z)^-n z^k.

    Since |z| < |w|, 1/(w - z) = sum_k z^k / w^(k+1), and inside the circle
    the z-integrand's only singularity is the pole of order n at 0, so every
    term with k >= n integrates to zero: the kernel has rank exactly n.

    The left factor is e^{xi1 (line_re + sigma)}, exactly 1 for the default
    sigma, times the blocked phase transform of the w-moments, which needs
    the exact line layout of :func:`contours._line` (see
    :func:`_line_phase_transform`).
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
    if sigma is None:
        sigma = -c
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    n = int(n)

    contours = build_raw_contours(n, t, xi1, xi2, c, r, oversample)
    w, aw, z, bz = _raw_weights(n, t, contours)
    w_pows = np.vander(1.0 / w, n + 1, increasing=True)[:, 1:]   # w^-(k+1)
    z_pows = np.vander(z, n, increasing=True)                     # z^k
    moments = (_DOUBLE_PREF * aw)[:, None] * w_pows
    left = _line_phase_transform(xi1, contours[0].params, moments)
    left *= np.exp(xi1 * (c + sigma))[:, None]
    e2 = np.exp(-np.multiply.outer(xi2, z + sigma))
    right = e2 @ (bz[:, None] * z_pows)
    return left, right


def _line_phase_transform(xi, y, moments):
    """sum_j e^{i xi y_j} moments[j] for every xi, by blocks of B nodes.

    y is the exact layout y_j = step (j - m) of :func:`contours._line`, so
    y[bB + l] is the anchor y[bB] plus the offset y[m + l] = step l, both
    nodes themselves.  Tables of e^{i xi y[bB]} and e^{i xi y[m + l]}
    replace the len(xi) x len(y) phase table: 2 sqrt(len(y)) exponentials
    per xi.  On linspace nodes anchors and offsets miss the nodes by
    rounding; the cancelling bulk sums amplify that phase error, and at
    n = 5, t = 1, s = -0.5 the imaginary residue rises from 6.8e-11 to 3.4e-9.
    """
    count = y.size
    m = (count - 1) // 2
    block = int(np.ceil(np.sqrt(count)))  # <= m + 1, so y[m:m + block] exists
    n_blocks = -(-count // block)
    cols = moments.shape[1]
    padded = np.zeros((n_blocks * block, cols), dtype=complex)
    padded[:count] = moments
    # row l holds the moments at offset l of every block, so one product
    # with the step table sums all blocks
    by_offset = padded.reshape(n_blocks, block, cols).transpose(1, 0, 2).reshape(block, -1)
    steps = np.exp(1j * np.multiply.outer(xi, y[m:m + block]))
    anchors = np.exp(1j * np.multiply.outer(xi, y[::block]))
    per_block = (steps @ by_offset).reshape(xi.size, n_blocks, cols)
    return np.einsum("xb,xbk->xk", anchors, per_block)
