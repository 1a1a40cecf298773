"""The calibration kernel: a fixed computation that measures how fast the
machine runs at the moment.

On a shared host the same code runs 10-30% slower or faster from one minute
to the next, and process CPU time moves with wall time, so the slowdown is
in the processor, not in the scheduler.  The benchmark therefore runs this
kernel before every query and reports each query's time relative to the
mean kernel time around it, scaled to seconds by REFERENCE_S.  The kernel
has the instruction mix of the library's hot paths: a complex Cauchy
matrix, exponential factors and their product, a small determinant, and a
counter-based Gaussian sweep with a running maximum.  It is the
benchmark's own code and never changes with the library.
"""

import time

import numpy as np

# median time of one kernel call on the machine the benchmark was written
# on (2-core x86_64, AVX-512, numpy 2.4.6, single-threaded OpenBLAS 0.3.31)
REFERENCE_S = 0.0116
WINDOW = 2            # kernel samples on each side of a query that set its speed

_N = 480
_W = 2.0 + np.exp(2j * np.pi * np.arange(_N) / _N)     # circle nodes
_Z = -1.0 + 1j * np.linspace(-6.0, 6.0, _N)             # line nodes
_X = np.linspace(-1.0, 1.0, 64)
_EXPECTED = None


def kernel():
    """One call of the fixed computation; returns its (fixed) value."""
    cauchy = 1.0 / np.subtract.outer(_W, _Z)
    e1 = np.exp(0.3 * np.outer(_X, _W))
    e2 = np.exp(-0.3 * np.outer(_X, _Z))
    k = (e1 @ cauchy) @ e2.T / _N
    value = np.linalg.slogdet(np.eye(64) - 1e-3 * k)[1].real
    rng = np.random.Generator(np.random.Philox(7))
    y = np.zeros((512, 6))
    for _ in range(20):
        y += 0.01 * rng.standard_normal(y.shape)
        np.maximum.accumulate(y, axis=1, out=y)
    return float(value + y.sum())


def warm_up(calls=20):
    """Run the kernel until caches and lazy set-up are warm; remember its value."""
    global _EXPECTED
    for _ in range(calls):
        _EXPECTED = kernel()


def slot(calls=1):
    """Mean seconds of `calls` kernel calls, checking each one's value."""
    start = time.perf_counter()
    for _ in range(calls):
        value = kernel()
        if abs(value - _EXPECTED) > 1e-9 * max(1.0, abs(_EXPECTED)):
            raise RuntimeError(f"calibration kernel gave {value!r}, "
                               f"expected {_EXPECTED!r}")
    return (time.perf_counter() - start) / calls


def normalise(latencies, slots):
    """Each latency scaled to reference speed: latency * REFERENCE_S / the
    mean of the kernel slots within WINDOW of it (latencies and slots are
    in run order, one slot just before each latency)."""
    out = []
    for i, lat in enumerate(latencies):
        near = slots[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(lat * REFERENCE_S * len(near) / sum(near))
    return out
