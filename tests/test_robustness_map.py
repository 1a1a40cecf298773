"""The robustness map: every one-point route over the whole (a, t) plane.

Each point must return p in [0, 1] with a finite log_survival, or raise
NumericFailure with a non-empty hint.  Any other exception, and any
RuntimeWarning, fails the test.  A raise with a hint meets that contract
as well as a return does, so how many points each route returns is a
record, not a gate.  When this map was added the routes returned:

    prob_packed            54 of 54
    prob_flat              49 of 54   (5 raise "p still moves" at a <= 0.03, t <= 4)
    prob_stat              32 of 54
    prob_stat_rho, 0.5     31 of 54
    prob_stat_rho, 0.9     33 of 54
    prob_finite_n, n = 1   48 of 48
    prob_finite_n, n = 5   48 of 48
    prob_finite_n, n = 16  48 of 48
    prob_finite_n, n = 64  30 of 48

The whole map takes about 3 s; `pytest -rP` prints each route's count.
"""

import math
import warnings

import numpy as np
import pytest

from bmtails import fredholm
from bmtails.errors import NumericFailure

MAP_AS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 50.0)
MAP_TS = (1, 2, 4, 16, 64, 256)
# levels as fractions of the edge 2 sqrt(n t)
EDGE_FRACTIONS = np.linspace(0.5, 1.2, 8)


def _plane(*extra):
    return [(t, a) + extra for a in MAP_AS for t in MAP_TS]


def _levels(n):
    return [(n, t, float(f * 2.0 * np.sqrt(n * t))) for t in MAP_TS for f in EDGE_FRACTIONS]


ROUTES = [
    ("packed", fredholm.prob_packed, _plane()),
    ("flat", fredholm.prob_flat, _plane()),
    ("stat", fredholm.prob_stat, _plane()),
    ("stat_rho 0.5", fredholm.prob_stat_rho, _plane(0.5)),
    ("stat_rho 0.9", fredholm.prob_stat_rho, _plane(0.9)),
] + [(f"finite_n {n}", fredholm.prob_finite_n, _levels(n)) for n in (1, 5, 16, 64)]


@pytest.mark.parametrize("fn, points", [route[1:] for route in ROUTES],
                         ids=[route[0] for route in ROUTES])
def test_every_map_point_returns_or_raises_with_a_hint(fn, points):
    returned = 0
    for args in points:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = fn(*args)
            except NumericFailure as exc:
                assert exc.hint, f"{fn.__name__}{args}: NumericFailure with no hint: {exc}"
                continue
        assert 0.0 <= res.p <= 1.0, f"{fn.__name__}{args}: p = {res.p!r}"
        assert math.isfinite(res.log_survival), f"{fn.__name__}{args}: {res.log_survival!r}"
        returned += 1
    print(f"{fn.__name__}: {returned} of {len(points)} points returned")
