"""Steepest-descent integration contours and their discretizations.

Three contour families feed the kernel quadratures:

* a vertical line through the left saddle w- (role ``w_line``),
* a circle of radius |w+| about the origin, traversed counterclockwise,
  passing through the right saddle w+ on the negative real axis (role
  ``z_circle``),
* the Lambert spiral gamma(tau) solving gamma e^gamma = z_a e^{z_a + 2 pi i
  tau}, which starts at the flat saddle z_a and hops Lambert branches each
  time tau crosses an integer (role ``lambert_gamma``).

Paths store their parameter values with the critical point at parameter 0,
so steep-descent diagnostics can separate a saddle neighbourhood from the
contour tails uniformly across families.  Weights are the dz quadrature
factors of a trapezoidal rule in the parameter: ``sum(f(nodes) * weights)``
approximates the contour integral of f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure
from .lambertw import lambert_w, solve_wexpw
from .rates import check_a, saddle_points, phase_packed_d2, solve_za


@dataclass(frozen=True)
class ContourConfig:
    points_per_unit: int = 64
    truncation_tol: float = 1e-12
    tau_max: float = 4.0

    def __post_init__(self):
        if self.points_per_unit < 8:
            raise ValueError("points_per_unit must be at least 8")
        if not 0.0 < self.truncation_tol <= 1e-8:
            raise ValueError("truncation_tol must lie in (0, 1e-8]")
        if self.tau_max <= 0:
            raise ValueError("tau_max must be positive")


@dataclass(frozen=True)
class ContourPath:
    nodes: np.ndarray          # complex positions
    weights: np.ndarray        # complex dz quadrature factors
    params: np.ndarray         # real parameter, critical point at 0
    role: str                  # w_line | z_circle | lambert_gamma
    closed: bool
    phi_nodes: np.ndarray | None = field(default=None, repr=False)
    pre_image: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.nodes).all():
            raise ValueError(f"contour '{self.role}' contains non-finite nodes")


def _check_time(t):
    t = float(t)
    if not np.isfinite(t) or t <= 0:
        raise ValueError(f"time parameter must be finite and > 0, got {t}")
    return t


def _line_halfwidth(c, ratio, t, tol):
    """Smallest y with Re phase(c + iy) - phase(c) <= log(tol) / t.

    For the phase w^2/2 + ratio log(-w) + (linear), with ratio 1 for H and
    n/t for the raw particle-n phase, the drop is -y^2/2 + ratio log(1 +
    y^2/c^2)/2 >= -y^2/2: start from the Gaussian estimate and pad for the log.
    """
    target = np.log(tol) / t
    drop = lambda y: -y * y / 2.0 + ratio * 0.5 * np.log1p(y * y / (c * c))
    y = np.sqrt(-2.0 * target)
    while drop(y) > target:
        y *= 1.25
    return y


def build_packed_contours(a, t, cfg=None):
    """(gamma_minus, gamma_plus) for the packed-phase double integral.

    gamma_minus is the truncated vertical line through w-, gamma_plus the
    full circle of radius |w+|.  Node densities scale with the local
    Gaussian width 1/sqrt(t |H''|) so the trapezoidal rule stays spectrally
    accurate as t grows.
    """
    a = check_a(a)
    t = _check_time(t)
    cfg = cfg or ContourConfig()

    w_minus, w_plus = saddle_points(a)
    h2_lo = phase_packed_d2(w_minus, a)           # > 0
    h2_hi = -phase_packed_d2(w_plus, a)           # > 0

    y_max = _line_halfwidth(w_minus, 1.0, t, cfg.truncation_tol)
    per_unit = max(cfg.points_per_unit, int(np.ceil(12.0 * np.sqrt(t * h2_lo))))
    n_line = 2 * int(np.ceil(y_max * per_unit)) + 1
    y = np.linspace(-y_max, y_max, n_line)
    dy = y[1] - y[0]
    lw = np.full(n_line, 1j * dy)
    lw[0] *= 0.5
    lw[-1] *= 0.5
    line = ContourPath(
        nodes=w_minus + 1j * y,
        weights=lw,
        params=y,
        role="w_line",
        closed=False,
    )

    m = max(
        int(np.ceil(2.0 * np.pi * cfg.points_per_unit)),
        int(np.ceil(24.0 * np.pi * np.sqrt(t * h2_hi) * abs(w_plus))),
    )
    m += m % 2  # keep theta = 0 on the grid
    theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
    z = w_plus * np.exp(1j * theta)
    circle = ContourPath(
        nodes=z,
        weights=1j * z * (2.0 * np.pi / m),
        params=theta,
        role="z_circle",
        closed=True,
    )
    return line, circle


def build_flat_contour(a, cfg=None, z_a=None):
    """The Lambert spiral through the flat saddle z_a, truncated at tau_max.

    Marches tau outward from 0 in steps 1/points_per_unit.  Each node is the
    Halley solution of gamma e^gamma = z_a e^{z_a + 2 pi i tau} seeded by an
    Euler predictor from the previous node, which follows the analytic
    continuation straight through the branch switches at integer tau.  The
    tau < 0 half is the complex conjugate by symmetry of the pre-image.
    """
    a = check_a(a)
    cfg = cfg or ContourConfig()
    if z_a is None:
        z_a = solve_za(a)

    h = 1.0 / cfg.points_per_unit
    n_steps = int(np.round(cfg.tau_max * cfg.points_per_unit))
    base = z_a * np.exp(z_a)

    gam = np.empty(n_steps + 1, dtype=complex)
    gam[0] = z_a
    for j in range(n_steps):
        g = gam[j]
        tangent = 2j * np.pi * g / (1.0 + g)
        target = base * np.exp(2j * np.pi * (j + 1) * h)
        gam[j + 1] = solve_wexpw(target, g + h * tangent)
        gap = abs(gam[j + 1] - g)
        local = abs(tangent) * h
        if gap > 10.0 * local + 1e-9:
            raise NumericFailure(
                "flat contour lost continuity across a branch switch",
                last=gam[j + 1],
                residual=gap,
                hint=f"offending tau = {(j + 1) * h:.6f}; raise points_per_unit",
            )

    tau = np.concatenate([-h * np.arange(n_steps, 0, -1), h * np.arange(n_steps + 1)])
    nodes = np.concatenate([np.conj(gam[n_steps:0:-1]), gam])
    weights = (2j * np.pi * nodes / (1.0 + nodes)) * h
    weights[0] *= 0.5
    weights[-1] *= 0.5
    pre = base * np.exp(2j * np.pi * tau)
    # |z_a e^{z_a}| < 1/e, so the pre-image circle avoids the branch point
    # and the principal branch is smooth along it.
    return ContourPath(
        nodes=nodes,
        weights=weights,
        params=tau,
        role="lambert_gamma",
        closed=False,
        phi_nodes=lambert_w(0, pre),
        pre_image=pre,
    )


@dataclass(frozen=True)
class SteepDescentReport:
    max_interior: float
    max_exterior: float
    epsilon: float
    ok: bool


def steep_descent_report(path, phase, delta):
    """Certify that the phase peaks only near the critical parameter.

    ``phase`` is either an array of per-node phase values (typically the
    real part of the exponent) or a callable applied to the nodes.  epsilon
    is the drop from the critical node (parameter closest to 0) to the best
    node with |parameter| >= delta; a positive epsilon certifies uniform
    exponential suppression of the contour tails.
    """
    if len(path.nodes) == 0:
        raise ValueError("empty contour path")
    if delta <= 0:
        raise ValueError("delta must be positive")
    values = np.asarray(phase(path.nodes) if callable(phase) else phase, dtype=float)
    if values.shape != path.nodes.shape:
        raise ValueError("phase values must align with contour nodes")

    crit = int(np.argmin(np.abs(path.params)))
    exterior = np.abs(path.params) >= delta
    interior = ~exterior
    max_int = float(values[interior].max()) if interior.any() else float(values[crit])
    max_ext = float(values[exterior].max()) if exterior.any() else -np.inf
    eps = values[crit] - max_ext
    return SteepDescentReport(
        max_interior=max_int,
        max_exterior=max_ext,
        epsilon=float(eps),
        ok=bool(eps > 0.0),
    )
