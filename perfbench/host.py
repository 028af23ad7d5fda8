"""Run fingerprint and host-speed canary.

The canary is a fixed mix of work -- a pure-Python integer loop, a few NumPy
sort and search passes, and a few passes of an EM-like step (a small matrix
product, exponentials and a normalisation over 20k rows) -- so it slows
down roughly the way the benchmark's Python and NumPy code does when the
host slows.  A run reports the canary before and after its measured phase,
and the workloads probe it between timed segments to adjust those segments
for the host's speed at that moment (see ``workloads.HostClock``).  Results
are only comparable within one kernel backend, which is why the backend is
part of the fingerprint.
"""

import ctypes
import gc
import os
import pathlib
import platform
import statistics
import time

import numpy as np

# what one probe takes on the reference host in its fast state; host-adjusted
# times are expressed at this speed
CANARY_REF_S = 0.011

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.normal(size=100_000)
_BASIS = _RNG.normal(size=(20_000, 3))
_COEFF = 0.1 * _RNG.normal(size=(3, 4))


def probe_s() -> float:
    """Seconds one pass of the canary's fixed work takes right now.

    The garbage collector is held off during the pass, so that a collection
    triggered by the workload's own allocations never lands in a probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = 0
        for i in range(40_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        for _ in range(2):
            np.searchsorted(np.sort(_VECTOR), np.cumsum(np.exp(_VECTOR[:20_000])))
        for _ in range(3):
            log_p = _BASIS @ _COEFF
            z = np.exp(log_p - log_p.max(axis=1)[:, None])
            (z / z.sum(axis=1)[:, None]).T @ _BASIS
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def canary_ms(repeats: int = 5) -> float:
    """Median milliseconds of the canary."""
    return 1e3 * statistics.median(probe_s() for _ in range(repeats))


def git_sha(root: pathlib.Path) -> str:
    """HEAD's commit read from the .git directory; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Threads the loaded OpenBLAS will use, or the requested count if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def fingerprint(root: pathlib.Path) -> dict:
    import numpy
    import scipy

    import verisim

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": verisim.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
    }
