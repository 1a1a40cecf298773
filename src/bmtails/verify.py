"""End-to-end verification suite for the whole library.

Thirteen numbered checks exercise the stack from the Lambert-W layer up to
the Monte Carlo simulator, each printing a single PASS/FAIL line with the
measured quantity and its tolerance.  Every random draw is seeded and no
line contains timing or machine data, so repeated runs emit identical
bytes; check 13 asserts exactly that for the fast subset.

The fast subset (checks 1 to 6) covers the closed-form and contour layers
and finishes in about a second; the remaining checks run determinants and
simulations, and the whole suite takes seconds.
"""

from __future__ import annotations

import hashlib
import io
import sys

import numpy as np
from scipy import stats
from scipy.interpolate import PchipInterpolator

from . import contours, fredholm, kernels, rates, sim
from .lambertw import lambert_w, phi

_A_GRID = np.logspace(-2, 2, 50)


def _check_lambert_identities():
    rng = np.random.default_rng(1789)
    worst = 0.0
    for k in (-2, -1, 0, 1, 2):
        z = rng.uniform(-30.0, 30.0, 2000) + 1j * rng.uniform(-30.0, 30.0, 2000)
        w = lambert_w(k, z)
        res = np.abs(w * np.exp(w) - z) / (1.0 + np.abs(z))
        worst = max(worst, float(res.max()))
    return worst <= 1e-12, (
        f"max scaled identity residual {worst:.3e} on 10000 points over "
        f"branches -2..2 (tol 1e-12)"
    )


def _check_saddle_residuals():
    worst_h = 0.0
    worst_f = 0.0
    for a in _A_GRID:
        d = rates.saddle_packed(a)
        worst_h = max(
            worst_h,
            abs(rates.phase_packed_d1(d.saddle_lo, a)),
            abs(rates.phase_packed_d1(d.saddle_hi, a)),
        )
        z_a = rates.solve_za(a)
        worst_f = max(
            worst_f, abs((z_a + 1.0) * (phi(z_a) + 1.0) + a) / (1.0 + a)
        )
    ok = worst_h <= 1e-12 and worst_f <= 1e-12
    return ok, (
        f"max |H'(w+-)| {worst_h:.3e}, max scaled flat saddle residual "
        f"{worst_f:.3e} on 50 log-spaced a (tol 1e-12)"
    )


def _flat_grid_max(a):
    f = rates.rate_flat(a)
    z_a = f.saddle_lo
    span = max(0.5, 0.2 * abs(z_a))
    zs = np.linspace(z_a - span, min(-1.0 - 1e-9, z_a + span), 20001)
    g = rates._g_vals(zs, phi(zs), a)
    return f.rate, float((-g).max())


def _check_closed_forms():
    worst_exact = 0.0
    worst_flat = 0.0
    for a in _A_GRID:
        d = rates.saddle_packed(a)
        worst_exact = max(
            worst_exact,
            abs(rates.rate_stat(a) - d.phase_hi),
            abs(rates.rate_packed(a) - (d.phase_hi - d.phase_lo)),
        )
        rate, gmax = _flat_grid_max(a)
        worst_flat = max(worst_flat, abs(rate - gmax))
    ok = worst_exact <= 1e-12 and worst_flat <= 1e-8
    return ok, (
        f"max closed-form defect {worst_exact:.3e} (tol 1e-12), max flat "
        f"grid-max defect {worst_flat:.3e} (tol 1e-8)"
    )


def _check_asymptotics():
    a0, a_big = 1e-4, 30.0
    gaps = [
        abs(rates.rate_flat(a0).rate - rates.rate_asymptote("flat", a0, "small")),
        abs(rates.rate_stat(a0) - rates.rate_asymptote("stationary", a0, "small")),
        abs(rates.rate_flat(20.0).rate - rates.rate_asymptote("flat", 20.0, "large")),
    ]
    tols = [5 * a0 * a0, 5 * a0 * a0, 1e-3]
    # a + 1/2 - log a is leading order only: r_stat(a) = a + 1/2 - log(a + 2)
    # + 1/(2(a + 2)^2) + ..., so the gap is the next term -2/a plus
    # 5/(2a^2) + O(a^-3), and is held to that scale like the other three
    stat_gap = rates.rate_stat(a_big) - rates.rate_asymptote(
        "stationary", a_big, "large"
    )
    next_term = -2.0 / a_big
    residual = float(abs(stat_gap - next_term))
    ok = all(g <= tol for g, tol in zip(gaps, tols)) and residual <= 4e-3
    return ok, (
        f"flat small {gaps[0]:.2e}/{tols[0]:.0e}, stat small "
        f"{gaps[1]:.2e}/{tols[1]:.0e}, flat large {gaps[2]:.2e}/1e-3, stat "
        f"large gap {stat_gap:.4f} vs next term -2/a = {next_term:.4f} at "
        f"a=30, residual {residual:.2e}/4e-3"
    )


def _check_steep_descent():
    eps = []
    all_ok = True
    for a in (0.1, 1.0, 10.0):
        line, circle = contours.build_packed_contours(a, 1)
        for path, sign in ((line, 1.0), (circle, -1.0)):
            eps.append(contours.steep_descent_report(
                path, sign * np.real(rates._h_vals(path.nodes, a)), 0.1
            ))
        flat = contours.build_flat_contour(a)
        eps.append(contours.steep_descent_report(
            flat, np.real(rates._g_vals(flat.nodes, flat.phi_nodes, a)), 0.1
        ))
    return min(eps) > 0.0, (
        f"min phase drop {min(eps):.3e} over 9 certificates at delta 0.1 "
        f"(a in 0.1/1/10, all three contours)"
    )


def _check_deformation():
    a, t = 1.0, 4
    base = kernels.khat_packed(a, t, 0.3, 0.7).value
    line, circle = contours.build_packed_contours(a, t)
    worst_packed = 0.0
    for fac in (0.9, 1.1):
        moved = contours.scale_circle(circle, fac)
        val = kernels.khat_packed_grid(
            np.array([0.3]), np.array([0.7]), kernels.packed_factors(a, t, (line, moved))
        )[0, 0]
        worst_packed = max(worst_packed, abs(val.real - base))
    # the time-t spiral, trimmed where e^{tG} is below 1e-12 of its peak,
    # against the same nodes continued to tau = 6, at twice the default
    # density; the 4.3e-25 tail rounds away here as on the default spiral
    trimmed = contours.flat_contour_for(a, t, 2 * contours.POINTS_PER_UNIT)
    tau = trimmed.params[-1]
    ppu = int(round(1.0 / (trimmed.params[1] - trimmed.params[0])))
    wide = contours.build_flat_contour(a, ppu, 6.0)
    flat = [kernels.khat_flat_grid(a, t, [0.0], [0.0], path)[0, 0].real
            for path in (trimmed, wide)]
    flat_diff = abs(flat[0] - flat[1])
    ok = worst_packed <= 1e-8 and flat_diff <= 1e-8
    return ok, (
        f"packed circle +-10% max drift {worst_packed:.2e}, flat tau window "
        f"{tau:.2f}->6 drift {flat_diff:.2e} (tol 1e-8)"
    )


def _check_gaussian_reduction():
    worst = 0.0
    for t in (1, 4):
        for u in np.linspace(-3.0, 3.0, 25):
            p = fredholm.prob_finite_n(1, t, u * np.sqrt(t)).p
            worst = max(worst, abs(p - stats.norm.cdf(u)))
    return worst <= 1e-6, (
        f"max |det - Phi| {worst:.2e} on s/sqrt(t) in [-3, 3], t in 1/4 "
        f"(tol 1e-6)"
    )


def _finite_n_cdf(n, t, lo, hi, count):
    grid = np.linspace(lo, hi, count)
    vals = np.clip([fredholm.prob_finite_n(n, t, s).p for s in grid], 0.0, 1.0)
    pch = PchipInterpolator(grid, vals)

    def cdf(x):
        return np.clip(pch(np.clip(x, lo, hi)), 0.0, 1.0)

    return cdf


def _check_gue_cross_validation():
    # below s = -0.5 the distribution carries under 1e-8 of mass, invisible
    # to 1e4 samples, and the determinant conditioning degrades
    cdf = _finite_n_cdf(5, 1, -0.5, 6.5, 141)
    samples = sim.gue_top_sample(5, 1.0, 10000, seed=101)
    _, p_det = stats.kstest(samples, cdf)
    cfg = sim.SimConfig(ic="packed", t=5, reps=10000, seed=102)
    walkers = sim.simulate_samples(cfg).values
    eigs = sim.gue_top_sample(5, 5.0, 10000, seed=103)
    _, p_sim = stats.ks_2samp(walkers, eigs)
    ok = p_det > 0.01 and p_sim > 0.01
    return ok, (
        f"KS p-values: determinant vs eigenvalue oracle {p_det:.3f}, "
        f"simulator vs eigenvalue oracle {p_sim:.3f} (reject below 0.01)"
    )


def _packed_tail_constant(a):
    """Closed-form limit C of t e^(t r) P(upper tail) for the packed start.

    Deep in the tail 1 - det(I - K) ~ tr K, so C is the integrated diagonal
    of the normalised limit kernel, the integral of
    ``kernels.klimit("packed", a)(x, x)`` over x >= 0.
    """
    d = rates.saddle_packed(a)
    wm, wp = d.saddle_lo, d.saddle_hi
    return (
        wm * wp
        / (2.0 * np.pi * (wm - wp) ** 2 * np.sqrt((wm * wm - 1.0) * (1.0 - wp * wp)))
    )


def _check_ldp_convergence():
    a = 1.0
    times = (4, 8, 16)
    const = _packed_tail_constant(a)
    report = []
    ok = True
    scaled_16 = None
    for ic in ("packed", "flat"):
        rows = fredholm.tail_rate_table(ic, a, times)
        errs = [abs(row["r_hat"] - row["r_exact"]) for row in rows]
        label = ic
        if ic == "packed":
            # S(t) ~ C e^(-t r)/t puts log(t/C)/t into -log(S)/t; take it out
            errs = [
                abs(row["r_hat"] - np.log(row["t"] / const) / row["t"] - row["r_exact"])
                for row in rows
            ]
            label = "packed corrected"
            scaled_16 = rows[2]["scaled_survival"]
        bound = 0.25 * rows[0]["r_exact"]
        drift = abs(rows[2]["scaled_survival"] - rows[1]["scaled_survival"])
        drift /= rows[2]["scaled_survival"]
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] <= bound
        ok = ok and drift < 0.35
        report.append(f"{label} err(16) {errs[2]:.3f} (tol {bound:.3f}) drift {drift:.1%}")
    report.append(f"packed prefactor ratio {scaled_16 / const:.4f}")
    return ok, "; ".join(report)


def _check_stationary_continuation():
    base = fredholm.prob_stat(4, 1.0).p
    diffs = [
        abs(fredholm.prob_stat_rho(4, 1.0, rho).p - base)
        for rho in (0.9, 0.95, 0.99)
    ]
    ok = diffs[0] > diffs[1] > diffs[2] and diffs[2] <= 5e-3
    return ok, (
        f"defect at rho 0.9/0.95/0.99: {diffs[0]:.2e}/{diffs[1]:.2e}/"
        f"{diffs[2]:.2e} (monotone, final tol 5e-3)"
    )


def _check_gap_stationarity():
    cfg = sim.SimConfig(ic="stationary", t=4, cutoff=48, reps=2000, seed=104)
    out = sim.stationary_gap_check(cfg)
    mean_ok = abs(out["mean_gap"] - 1.0) <= 3.0 * out["mean_gap_stderr"]
    ok = out["ks_pvalue"] > 0.01 and mean_ok
    return ok, (
        f"gap KS p={out['ks_pvalue']:.3f} (reject below 0.01), mean gap "
        f"{out['mean_gap']:.4f} +- {out['mean_gap_stderr']:.4f} vs 1"
    )


def _check_mc_tail():
    cfg = sim.SimConfig(ic="packed", t=4, reps=100000, seed=105)
    p_hat, stderr = sim.tail_estimate(cfg, 0.5)
    exact = 1.0 - fredholm.prob_packed(4, 0.5).p
    gap = abs(p_hat - exact)
    ok = gap <= 3.0 * stderr
    return ok, (
        f"empirical {p_hat:.3e} vs determinant {exact:.3e}, gap {gap:.2e} "
        f"within 3 stderr {3.0 * stderr:.2e}"
    )


def _check_determinism():
    first, second = io.StringIO(), io.StringIO()
    run(fast=True, stream=first)
    run(fast=True, stream=second)
    text = first.getvalue()
    if text != second.getvalue():
        return False, "fast subset output differs between two runs"
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return True, (
        f"fast subset repeated: {len(text)} bytes identical, sha256 {digest}"
    )


CHECKS = (
    (1, "lambert-identities", _check_lambert_identities),
    (2, "saddle-residuals", _check_saddle_residuals),
    (3, "closed-form-rates", _check_closed_forms),
    (4, "rate-asymptotics", _check_asymptotics),
    (5, "steep-descent", _check_steep_descent),
    (6, "deformation-invariance", _check_deformation),
    (7, "gaussian-reduction", _check_gaussian_reduction),
    (8, "gue-cross-validation", _check_gue_cross_validation),
    (9, "ldp-convergence", _check_ldp_convergence),
    (10, "stationary-continuation", _check_stationary_continuation),
    (11, "gap-stationarity", _check_gap_stationarity),
    (12, "mc-vs-determinant", _check_mc_tail),
    (13, "determinism", _check_determinism),
)

FAST_SET = frozenset(range(1, 7))


def format_line(num, name, ok, detail):
    return f"{'PASS' if ok else 'FAIL'} {num:2d} {name}: {detail}"


def run(fast=False, stream=None):
    """Run the verification checks; returns the number of failures."""
    stream = sys.stdout if stream is None else stream
    selected = [c for c in CHECKS if not fast or c[0] in FAST_SET]
    failures = 0
    for num, name, fn in selected:
        ok, detail = fn()
        print(format_line(num, name, ok, detail), file=stream)
        if not ok:
            failures += 1
    print(f"{len(selected) - failures} of {len(selected)} checks passed",
          file=stream)
    return failures
