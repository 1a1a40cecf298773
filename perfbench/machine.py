"""Thread pinning and the machine record.

Import this before numpy: the BLAS thread count is read when numpy loads.
"""

import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# One simulator worker and single-threaded BLAS: every workload runs on one
# thread.  On a shared 2-core host, two busy threads measured the other
# tenants as much as the program (quartile spreads of 40% of the median).
SIM_WORKERS = 1


def pin_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["BMTAILS_WORKERS"] = str(SIM_WORKERS)


def machine_record():
    import numpy as np
    import scipy

    info = np.show_config(mode="dicts")
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {})
    return {
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "cpu_simd": simd.get("found", []),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "bmtails_workers": int(os.environ.get("BMTAILS_WORKERS", "0")),
    }
