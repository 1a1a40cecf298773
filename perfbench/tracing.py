"""Layer spans recorded from outside the library.

The tracer replaces module-level functions of ``bmtails`` with timing
wrappers, under every name a caller resolves them by: ``fredholm`` imports
``khat_packed_grid`` by name, so ``bmtails.fredholm.khat_packed_grid`` is
wrapped as well as ``bmtails.kernels.khat_packed_grid``.  Nothing inside
``src/`` is edited.  Spans (layer, name, start, end, parent, thread, query)
stay in memory until the run writes them out; self time is a span's
duration minus the union of its children's intervals.

A name that a later version of the library no longer defines is listed as
missing, and the metrics that depend on it are reported as missing rather
than crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# layer -> (defining module, function names); the layer is the module
LAYERS = {
    "lambertw": ("bmtails.lambertw",
                 ("lambert_w", "phi", "phi_prime", "solve_wexpw")),
    "rates": ("bmtails.rates",
              ("saddle_points", "saddle_packed", "phase_packed",
               "phase_packed_d1", "phase_packed_d2", "phase_flat",
               "phase_flat_d1", "solve_za", "flat_curvature", "rate_packed",
               "rate_flat", "rate_stat")),
    "contours": ("bmtails.contours",
                 ("build_packed_contours", "build_flat_contour")),
    "kernels": ("bmtails.kernels",
                ("khat_packed_grid", "khat_flat_grid", "raw_kernel_grid",
                 "stat_components", "stat_rho_pieces")),
    "fredholm": ("bmtails.fredholm", ("_det_core",)),
    "sim": ("bmtails.sim", ("_evolve", "_evolve_block")),
}

# raw_kernel_grid lays out its line and circle inline; it counts as a
# contour construction as well as a kernel assembly
CONTOUR_BUILDERS = ("build_packed_contours", "build_flat_contour",
                    "raw_kernel_grid")
GRID_KERNELS = ("khat_packed_grid", "khat_flat_grid", "raw_kernel_grid")

# metric -> the wrapped names it is derived from; "np" stands for the
# numpy view that reports the Cauchy matrix shape inside bmtails.kernels
METRIC_SOURCES = {
    "lambertw.calls": LAYERS["lambertw"][1],
    "lambertw.time_s": LAYERS["lambertw"][1],
    "rates.calls": LAYERS["rates"][1],
    "rates.time_s": LAYERS["rates"][1],
    "contours.builds": CONTOUR_BUILDERS,
    "contours.nodes": CONTOUR_BUILDERS + ("np",),
    "contours.time_s": LAYERS["contours"][1],
    "contours.builds_per_query": CONTOUR_BUILDERS,
    "contours.repeat_frac": CONTOUR_BUILDERS,
    "kernels.calls": LAYERS["kernels"][1],
    "kernels.time_s": LAYERS["kernels"][1],
    "kernels.flops": GRID_KERNELS + ("np",),
    "fredholm.solves": ("_det_core",),
    "fredholm.solve_order_sum": ("_det_core",),
    "fredholm.solve_s": ("_det_core",),
    "fredholm.solves_per_query": ("_det_core",),
    "fredholm.grid_sizes_per_query": ("_det_core",),
    "sim.blocks": ("_evolve_block",),
    "sim.updates": ("_evolve_block",),
    "sim.block_s": ("_evolve_block",),
    "sim.ns_per_update": ("_evolve_block",),
    "sim.busy_frac": ("_evolve", "_evolve_block"),
    "sim.rng_probe_s": ("_evolve_block",),
}


@dataclass
class Span:
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    query: str | None
    extra: dict = field(default_factory=dict)


class _OuterRecorder:
    """Stands in for a ufunc so that ``.outer`` reports its result shape."""

    def __init__(self, ufunc, record):
        self._ufunc = ufunc
        self._record = record

    def outer(self, *args, **kwargs):
        out = self._ufunc.outer(*args, **kwargs)
        self._record(np.shape(out))
        return out

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _NumpyView:
    """numpy as seen by ``bmtails.kernels`` while tracing.

    The Cauchy matrix of the double-contour kernels is built with
    ``np.subtract.outer(w, z)``; its shape gives the contour node counts,
    which ``raw_kernel_grid`` does not take as arguments.
    """

    def __init__(self, record):
        self.subtract = _OuterRecorder(np.subtract, record)

    def __getattr__(self, name):
        return getattr(np, name)


def _contour_nodes(result):
    paths = result if isinstance(result, tuple) else (result,)
    return int(sum(np.size(getattr(p, "nodes", ())) for p in paths))


def _geometry_key(name, bound):
    """Arguments that fix a contour's geometry (arrays of levels excluded)."""
    items = []
    for key, value in bound.arguments.items():
        if isinstance(value, np.ndarray):
            continue
        if isinstance(value, (float, np.floating)):
            value = float(value)
        items.append((key, repr(value)))
    return (name, tuple(items))


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``uninstall``
    puts the originals back."""

    def __init__(self):
        self.spans = []
        self.query = None
        self.missing = []
        self.sim_blocks = {}      # SimConfig -> first block's stream, shape, count
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules.get(modname)
            for name in names:
                orig = getattr(module, name, None) if module else None
                if not callable(orig):
                    self.missing.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, orig)
                for mod in _package_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        kernels = sys.modules.get("bmtails.kernels")
        if kernels is not None and getattr(kernels, "np", None) is np:
            self._restore.append((kernels, "np", np))
            kernels.np = _NumpyView(self._record_outer)
        else:
            self.missing.append("bmtails.kernels.np")

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []

    def _record_outer(self, shape):
        shapes = getattr(self._local, "outer_shapes", None)
        if shapes is not None:
            shapes.append(shape)

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a simulator worker thread starts with an empty stack; its
            # spans belong to the call the main thread is waiting in
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            saved = getattr(tracer._local, "outer_shapes", None)
            tracer._local.outer_shapes = []
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                shapes = tracer._local.outer_shapes
                tracer._local.outer_shapes = saved
                span = Span(sid, layer, name, start, end, parent,
                            threading.get_ident(), tracer.query)
                if result is not None:
                    span.extra = tracer._extra(name, signature, args, kwargs,
                                               result, shapes)
                tracer.spans.append(span)

        return wrapper

    def _extra(self, name, signature, args, kwargs, result, shapes):
        if name == "_det_core":
            weights = signature.bind(*args, **kwargs).arguments["weights"]
            return {"order": int(np.size(weights))}
        if name in CONTOUR_BUILDERS:
            bound = signature.bind(*args, **kwargs)
            extra = {"key": _geometry_key(name, bound)}
            if name == "raw_kernel_grid":
                if shapes:
                    extra["nodes"] = int(sum(shapes[0]))
                    extra["flops"] = _factor_flops(np.shape(result), shapes[0])
            else:
                extra["nodes"] = _contour_nodes(result)
            return extra
        if name == "khat_packed_grid" and shapes:
            return {"flops": _factor_flops(np.shape(result), shapes[0])}
        if name == "khat_flat_grid":
            bound = signature.bind(*args, **kwargs)
            n_nodes = np.size(bound.arguments["path"].nodes)
            n1, n2 = np.shape(result)
            return {"flops": int(n1 * n_nodes * n2)}
        if name == "_evolve_block":
            bound = signature.bind(*args, **kwargs)
            cfg, nrep = bound.arguments["cfg"], int(bound.arguments["nrep"])
            steps = int(round(cfg.t / cfg.dt))
            with self._lock:
                entry = self.sim_blocks.setdefault(cfg, {
                    "seed_seq": bound.arguments["seed_seq"],
                    "shape": np.shape(result), "blocks": 0})
                entry["blocks"] += 1
            return {"updates": nrep * steps * int(np.shape(result)[1])}
        return {}

    @contextlib.contextmanager
    def query_span(self, label):
        """Tag the spans recorded inside the block with the query label."""
        self.query = label
        try:
            yield
        finally:
            self.query = None


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bmtails" or n.startswith("bmtails."))]


def _factor_flops(out_shape, cauchy_shape):
    """Complex multiply-adds of (E1 A) @ C @ (E2 B)^T, evaluated left to right."""
    n1, n2 = out_shape
    n_line, n_circle = cauchy_shape
    return int(n1 * n_line * n_circle + n1 * n_circle * n2)


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer, n_queries, workers):
    """Per-layer metrics of one traced pass; returns (metrics, missing)."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def entered(layer):
        return [s for s in spans if s.layer == layer and
                (s.parent is None or by_id[s.parent].layer != layer)]

    def self_sum(layer, names=None):
        return sum(own[s.id] for s in spans
                   if s.layer == layer and (names is None or s.name in names))

    builds = [s for s in spans if s.name in CONTOUR_BUILDERS]
    seen, repeats = set(), 0
    for s in sorted(builds, key=lambda s: s.start):
        key = s.extra.get("key")
        repeats += key in seen
        seen.add(key)
    solves = [s for s in spans if s.name == "_det_core"]
    orders_by_query = {}
    for s in solves:
        orders_by_query.setdefault(s.query, set()).add(s.extra.get("order"))
    blocks = [s for s in spans if s.name == "_evolve_block"]
    block_s = sum(s.end - s.start for s in blocks)
    updates = sum(s.extra.get("updates", 0) for s in blocks)
    capacity = 0.0
    for e in (s for s in spans if s.name == "_evolve"):
        n_blocks = sum(1 for b in blocks if b.parent == e.id)
        capacity += min(workers, max(n_blocks, 1)) * (e.end - e.start)
    q = max(n_queries, 1)

    metrics = {
        "lambertw.calls": len(entered("lambertw")),
        "lambertw.time_s": self_sum("lambertw"),
        "rates.calls": len(entered("rates")),
        "rates.time_s": self_sum("rates"),
        "contours.builds": len(builds),
        "contours.nodes": sum(s.extra.get("nodes", 0) for s in builds),
        "contours.time_s": self_sum("contours"),
        "contours.builds_per_query": len(builds) / q,
        "contours.repeat_frac": repeats / len(builds) if builds else 0.0,
        "kernels.calls": len(entered("kernels")),
        "kernels.time_s": self_sum("kernels"),
        "kernels.flops": sum(s.extra.get("flops", 0) for s in spans
                             if s.name in GRID_KERNELS),
        "fredholm.solves": len(solves),
        "fredholm.solve_order_sum": sum(s.extra.get("order", 0) for s in solves),
        "fredholm.solve_s": self_sum("fredholm", ("_det_core",)),
        "fredholm.solves_per_query": len(solves) / q,
        "fredholm.grid_sizes_per_query":
            sum(len(v) for v in orders_by_query.values()) / q,
        "sim.blocks": len(blocks),
        "sim.updates": updates,
        "sim.block_s": block_s,
        "sim.ns_per_update": 1e9 * block_s / updates if updates else 0.0,
        "sim.busy_frac": block_s / capacity if capacity else 0.0,
    }
    missing_names = {m.rsplit(".", 1)[1] for m in tracer.missing}
    missing = sorted(name for name, sources in METRIC_SOURCES.items()
                     if missing_names.intersection(sources))
    return metrics, missing
