"""Steepest-descent integration contours and their discretizations.

Every contour the kernels integrate over is laid out here:

* a vertical line Re w = c at the exact multiples y = step (j - m),
  j = 0 ... 2m, of a step in y = Im w, with trapezoid weights,
* a circle of signed radius r, equispaced in the angle from -pi and
  traversed counterclockwise, so theta = 0 sits at r on the real axis,
* the Lambert spiral gamma(tau) solving gamma e^gamma = z_a e^{z_a + 2 pi i
  tau}, which starts at the flat saddle z_a and steps to the next Lambert
  branch each time tau crosses an integer.

Above its edge the saddle contours of the particle-n phase are the line
through the left saddle w- and the circle of radius |w+| through the right
saddle w+ on the negative real axis (:func:`finite_anchors`).  The packed
phase H is that phase at n = t and level (2 + a) t, so
:func:`build_packed_contours` takes its contours from
:func:`build_finite_contours`, the one layout of a saddle line and circle;
the raw finite-n kernel matrix uses a line and a circle placed by the
caller.  The node-count rules of each route sit beside the function that
lays it out, under one bound _MAX_NODES, and one helper rescales a circle.
The saddle and spiral builders take their density as an int,
points_per_unit (default 64, at least 8), which the determinant solver
doubles at each refinement step.

Paths store their parameter values with the critical point at parameter 0,
so steep-descent diagnostics can separate a saddle neighbourhood from the
contour tails uniformly across families.  Weights are the dz quadrature
factors of a trapezoidal rule in the parameter: ``sum(f(nodes) * weights)``
approximates the contour integral of f.  Every second node from the middle
one, where the parameter is 0, with the weights doubled is the rule at half
the density (:func:`sub_path`), and where node counts nest, that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericFailure
from .lambertw import lambert_w
from .rates import _g_vals, check_a, rate_flat, solve_za

# e^{t * phase} below this, relative to its value at c, is cut off each
# line, and relative to the saddle off the flat spiral
_TRUNCATION_TOL = 1e-12
# default contour density, in nodes per unit of length or of tau
POINTS_PER_UNIT = 64
# the flat spiral's tau window never reaches past this many turns
_TAU_CAP = 4.0
# the most nodes a saddle contour, or the spiral per unit of tau, may take; at
# t = 2^20, a in [0.25, 5], the most are 76,382 (circle, a = 5) and 1,156,644
# (spiral, a = 0.25, at 8x density)
_MAX_NODES = 2 ** 21


@dataclass(frozen=True)
class ContourPath:
    nodes: np.ndarray          # complex positions
    weights: np.ndarray        # complex dz quadrature factors
    params: np.ndarray         # real parameter, critical point at 0
    phi_nodes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.nodes).all():
            raise ValueError("contour contains non-finite nodes")


def _check_time(t):
    t = float(t)
    if not np.isfinite(t) or t <= 0:
        raise ValueError(f"time parameter must be finite and > 0, got {t}")
    return t


def _check_density(points_per_unit):
    if points_per_unit < 8:
        raise ValueError(f"points_per_unit must be at least 8, got {points_per_unit}")
    return points_per_unit


def _node_count(count, what, t):
    """A float node count or density as an int; NumericFailure past _MAX_NODES, before any array."""
    if not count <= _MAX_NODES:
        raise NumericFailure(f"the {what} would be {count:.3g}, above {_MAX_NODES} at t = {t:g}",
                             hint="node counts grow like sqrt(t); t = 2^20 needs at most 1.2e6")
    return int(count)


def _check_finite(x, name):
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _line_halfwidth(c, ratio, t, tol):
    """Smallest y with Re phase(c + iy) - phase(c) <= log(tol) / t.

    For the phase w^2/2 + ratio log(-w) + (linear), with ratio n/t for the
    particle-n phase (1 for H), the drop is -y^2/2 + ratio log(1 +
    y^2/c^2)/2 >= -y^2/2: start from the Gaussian estimate and pad for the log.
    """
    target = np.log(tol) / t
    drop = lambda y: -y * y / 2.0 + ratio * 0.5 * np.log1p(y * y / (c * c))
    y = np.sqrt(-2.0 * target)
    while drop(y) > target:
        y *= 1.25
    return y


def _line(c, half, count):
    """The line c + iy at an odd count of y = step (j - m) in [-half, half].

    With m = (count - 1) / 2 and step = half / m every node is an exact
    multiple of the step, so the layout is exactly symmetric (y[::-1] == -y),
    y[m] == 0 and y[m + l] == step * l.  Weights are trapezoid dz factors.
    """
    if count < 3 or count % 2 == 0:
        raise ValueError(f"line node count must be odd and at least 3, got {count}")
    m = (count - 1) // 2
    step = half / m
    y = step * np.arange(-m, m + 1)
    weights = np.full(count, 1j * step, dtype=complex)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ContourPath(nodes=c + 1j * y, weights=weights, params=y)


def _circle(radius, count):
    """The circle radius e^{i theta} at count equispaced theta from -pi, with dz weights.

    A negative radius puts theta = 0 on the negative real axis.
    """
    theta = -np.pi + 2.0 * np.pi * np.arange(count) / count
    z = radius * np.exp(1j * theta)
    return ContourPath(nodes=z, weights=1j * z * (2.0 * np.pi / count), params=theta)


def sub_rule(nodes):
    """Slice of the sub-rule: every second node from the middle one, the critical node."""
    return slice(len(nodes) // 2 % 2, None, 2)


def sub_path(path):
    """The rule at half path's density: its :func:`sub_rule` nodes with the weights doubled."""
    sub = sub_rule(path.nodes)
    phi = None if path.phi_nodes is None else path.phi_nodes[sub]
    return replace(path, nodes=path.nodes[sub], weights=2.0 * path.weights[sub],
                   params=path.params[sub], phi_nodes=phi)


def scale_circle(circle, factor):
    """The circle path with its radius multiplied by factor."""
    return replace(circle, nodes=circle.nodes * factor, weights=circle.weights * factor)


def build_packed_contours(a, t, points_per_unit=POINTS_PER_UNIT):
    """(gamma_minus, gamma_plus) for the packed-phase double integral.

    The packed start's tagged particle is n = t at level (2 + a) t, so these
    are that particle's :func:`build_finite_contours`: the truncated
    vertical line through w- and the full circle of radius |w+|.  t must be
    whole: otherwise the circle crosses the branch cut of (-w)^t (-z)^{-t}
    in e^{tH}, and the kernel depends on its radius.
    """
    a = check_a(a)
    t = _check_time(t)
    if t != int(t):
        raise ValueError(f"the packed phase needs a whole-number time, got {t}")
    return build_finite_contours(int(t), t, finite_anchors(t, t, (2.0 + a) * t), points_per_unit)


def finite_anchors(n, t, s):
    """(c, w_hi): where the particle-n line and circle cross the negative real axis.

    Above the edge s > 2 sqrt(n t) these are the saddles w- and w+ = n / (t w-)
    of f(w) = t w^2/2 + n log(-w) + s w.  At or below it c = -sqrt(n / t), the
    modulus of the complex saddles, and the circle's radius is 0.9 |c|: there
    the line's weights stay below one, the circle's below e^{(0.9 sqrt(n) -
    s / (2 sqrt(t)))^2}, and the powers (c / w)^l and (z / c)^l below one.
    """
    if s > 2.0 * np.sqrt(n * t):
        c = -(s + np.sqrt(s * s - 4.0 * n * t)) / (2.0 * t)
        return c, n / (t * c)
    c = -np.sqrt(n / t)
    return c, 0.9 * c


def build_finite_contours(n, t, anchors, points_per_unit=POINTS_PER_UNIT):
    """(line, circle) through anchors (c, w_hi), the only saddle line/circle layout.

    anchors are :func:`finite_anchors` of a level; node densities resolve the
    Gaussian widths 1 / sqrt|f''| of the phase, |f''| = |t - n / w^2|, at both
    anchors, and the line's cubic width |f'''(c)|^(-1/3), f''' = 2 n / w^3,
    which sets it where f'' vanishes, at the bulk anchor c = -sqrt(n / t), and
    near the edge: in w / |c| the phase depends on t only through s |c|, so
    12 (2 n)^(1/3) / |c| nodes per unit serve every t.  The layout depends
    on the level only through the anchors, the same at every
    s <= 2 sqrt(n t), so prob_finite_n lays out the bulk contours, and forms
    their tables, once per (n, t, density) and shares them by all levels.
    """
    t = _check_time(t)
    _check_density(points_per_unit)
    c, w_hi = anchors
    y_max = _line_halfwidth(c, n / t, t, _TRUNCATION_TOL)
    per_unit = max(points_per_unit, np.ceil(12.0 * np.sqrt(abs(t - n / (c * c)))),
                   np.ceil(12.0 * np.cbrt(2.0 * n) / abs(c)))
    # near the largest double t a count overflows to inf, which _node_count refuses
    with np.errstate(over="ignore"):
        line_count = 2.0 * np.ceil(y_max * per_unit) + 1.0
        circle_count = max(np.ceil(2.0 * np.pi * points_per_unit),
                           np.ceil(24.0 * np.pi * np.sqrt(abs(n / (w_hi * w_hi) - t)) * abs(w_hi)))
    count = _node_count(line_count, "line's node count", t)
    m = _node_count(circle_count, "circle's node count", t)
    m += m % 2  # keep theta = 0 on the grid
    return _line(c, y_max, count), _circle(w_hi, m)


def build_raw_contours(n, t, xi1, xi2, c, r):
    """(line, circle) for the particle-n kernel on a grid of levels: Re w = c and |z| = r.

    The line is trimmed where the Gaussian factor e^{t w^2/2} (-w)^n falls
    below 1e-12 of its value at c, and both node counts grow with the
    largest level so that e^{xi w} and e^{-xi z} stay resolved.
    """
    half = _line_halfwidth(c, n / t, t, _TRUNCATION_TOL)
    freq = float(np.max(np.abs(xi1 + t * c))) + 1.0
    n_line = 2 * int(np.ceil(half * max(12.0 * np.sqrt(t), 2.0 * freq))) + 1
    m = max(256, 8 * int(n), int(np.ceil(8.0 * r * (float(np.max(np.abs(xi2))) + t * r + 1.0))))
    return _line(c, half, n_line), _circle(r, m)


def build_flat_contour(a, points_per_unit=POINTS_PER_UNIT, tau_max=_TAU_CAP, z_a=None):
    """The Lambert spiral through the flat saddle z_a, truncated at |tau| = tau_max.

    Nodes sit at tau = j / points_per_unit: gamma_0 = z_a = W_{-1}(z_a e^{z_a})
    and gamma_j = W_k(z_a e^{z_a + 2 pi i tau}) with k = ceil(tau) for j >= 1,
    since under the branch cuts of Corless et al. the spiral enters W_1 once
    tau > 0 and W_{k+1} once tau passes each integer k.  The tau < 0 half is
    the complex conjugate by symmetry of the pre-image.
    """
    a = check_a(a)
    ppu = _check_density(points_per_unit)
    if not tau_max > 0:
        raise ValueError(f"tau_max must be positive, got {tau_max}")
    if z_a is None:
        z_a = solve_za(a)

    h = 1.0 / ppu
    n_steps = int(np.round(tau_max * ppu))
    base = z_a * np.exp(z_a)
    if abs(base) < np.finfo(float).tiny:
        raise NumericFailure(f"the spiral's base z_a e^(z_a) underflows at a = {a!r}", last=base,
                             hint="above a of 700 the survival is below what 1 - det resolves")
    j = np.arange(1, n_steps + 1)
    branch = -(-j // ppu)
    # the argument turned back by whole turns to (-1, 0]; at 0 it lies on the
    # negative real axis, where W_k takes its value from above
    turn = (j - ppu * branch) * h
    gam = np.concatenate([[z_a], lambert_w(branch, base * np.exp(2j * np.pi * turn))])

    tau = np.concatenate([-h * np.arange(n_steps, 0, -1), h * np.arange(n_steps + 1)])
    # tau is exactly antisymmetric, so nodes and phi at -tau are the
    # conjugates of those at tau, bit for bit
    mirror = lambda half: np.concatenate([half[:0:-1].conj(), half])
    nodes = mirror(gam)
    weights = (2j * np.pi * nodes / (1.0 + nodes)) * h
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # a step along the spiral never exceeds its tangent step |weight|; a node off
    # its branch jumps by about 2 pi, 8 tangent steps even at 8 points per unit
    gap = np.abs(np.diff(gam))
    jump = gap > 2.0 * np.abs(weights[n_steps:-1]) + 1e-9
    if jump.any():
        first = int(np.argmax(jump))
        raise NumericFailure(
            "flat contour lost continuity across a branch switch",
            last=gam[first + 1],
            residual=float(gap[first]),
            hint=f"offending tau = {(first + 1) * h:.6f}; raise points_per_unit",
        )
    # |z_a e^{z_a}| < 1/e, so the pre-image circle avoids the branch point
    # and the principal branch is smooth along it.
    return ContourPath(
        nodes=nodes,
        weights=weights,
        params=tau,
        phi_nodes=mirror(lambert_w(0, base * np.exp(2j * np.pi * tau[n_steps:]))),
    )


def flat_contour_for(a, t, points_per_unit=POINTS_PER_UNIT, saddle=None):
    """Lambert spiral dense enough for the time-t phase e^{tG}.

    The parameter-space Gaussian width at the saddle is 1/sqrt(t |eta|), so
    the density is points_per_unit max(1, sqrt(t |eta|) / 8), 8 sqrt(t |eta|)
    at the default.  The window is twice the tau where that Gaussian falls
    to 1e-12, doubled while e^{tG} at its end is above 1e-12 of its saddle
    value (small a and t, where G is far from quadratic), to at most |tau| = 4.
    Doubling points_per_unit doubles the density on about the same window:
    239 nodes at the default once the Gaussian width sets both, then 477.
    z_a and eta come from ``saddle``, the :func:`rates.rate_flat` record of a.
    """
    a = check_a(a)
    t = _check_time(t)
    _check_density(points_per_unit)
    if saddle is None:
        saddle = rate_flat(a)
    z_a, eta = saddle.saddle_lo, saddle.second_deriv[0]
    # the spiral's node count, about 3.7 points_per_unit, does not grow with t
    ppu = _node_count(np.ceil(points_per_unit * max(1.0, np.sqrt(t * abs(eta)) / 8.0)),
                      "spiral's nodes per unit of tau", t)
    span = 2.0 * np.sqrt(2.0 * np.log(1.0 / _TRUNCATION_TOL) / (t * abs(eta)))
    tau_max = min(_TAU_CAP, span)
    while True:
        path = build_flat_contour(a, ppu, tau_max, z_a=z_a)
        edge = t * (_g_vals(path.nodes[-1], path.phi_nodes[-1], a).real + saddle.rate)
        if tau_max == _TAU_CAP or edge <= np.log(_TRUNCATION_TOL):
            return path
        tau_max = min(_TAU_CAP, 2.0 * tau_max)


def steep_descent_report(path, phase, delta):
    """Certify that the phase peaks only near the critical parameter.

    ``phase`` holds the per-node phase values (typically the real part of
    the exponent).  Returns epsilon, the drop from the critical node
    (parameter closest to 0) to the best node with |parameter| >= delta; a
    positive epsilon certifies uniform exponential suppression of the
    contour tails.
    """
    if len(path.nodes) == 0:
        raise ValueError("empty contour path")
    if delta <= 0:
        raise ValueError("delta must be positive")
    values = np.asarray(phase, dtype=float)
    if values.shape != path.nodes.shape:
        raise ValueError("phase values must align with contour nodes")

    crit = int(np.argmin(np.abs(path.params)))
    exterior = np.abs(path.params) >= delta
    max_ext = float(values[exterior].max()) if exterior.any() else -np.inf
    return float(values[crit] - max_ext)
