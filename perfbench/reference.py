"""Host speed, read from fixed reference kernels timed beside each op.

The benchmark shares a few cores of a busy host.  The speed the host gives
one process moves in phases of seconds to minutes, by up to ~1.8x, and the
same phase slows a pure-Python loop and a numpy pass alike (see README.md,
"Steadiness and bounds").  Over a run of half a minute that swing does not
average out, so wall times of the same code spread by 15-40% between runs.

Each kernel below is fixed work that touches nothing of the package.  It is
timed a few times right before and right after each op; the op's wall time
times ``NOMINAL_S / kernel time`` is the op's time on a host where the
kernel takes ``NOMINAL_S``.  A change that makes the package faster or
slower moves that time by the same share as the wall time, while a slow
phase of the host moves op and kernel together and cancels.  The wall
times are recorded beside the adjusted ones.

Two kernels, because the phases do not slow every kind of work equally:
``python`` is interpreter-bound scalar float work (like ``core``), ``numpy``
draws, compares and scans arrays of 1 Mi elements (like a session) in
buffers of its own, allocated once, so that its time does not depend on
what an op left in the heap.  Each workload names the kernel that tracks
it best.

Set-up is mostly starting an interpreter and importing numpy, which the
kernels do not track; it is adjusted by ``PROCESS_CMD``, a fresh interpreter
that imports numpy and says ``ready``, timed between set-up probes.

A slow phase that hits the op but not the kernel (or the reverse) is not
cancelled; neither is a change to the package that slows the kernel, for
example by leaving a thread running after the op.  ``peak_rss_mib`` and the
wall times in the run record are not adjusted.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

# Time of each kernel, and of PROCESS_CMD until 'ready', on the host the
# benchmark was written on in a quiet phase; fixed so that adjusted times
# of two commits compare.
NOMINAL_S = {"python": 0.010, "numpy": 0.010, "process": 0.20}
PROCESS_CMD = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
_N = 1 << 20
_DRAWS = np.empty(_N)
_BITS = np.empty(_N, dtype=bool)
_MASK = np.empty(_N, dtype=bool)
_COUNTS = np.empty(_N, dtype=np.int64)


def _python_kernel() -> float:
    acc = 0.0
    for i in range(1, 50_000):
        x = i * 1e-4
        acc += math.exp(-x) * (1.0 - x) / (1.0 + x * x)
    return acc


def _numpy_kernel() -> int:
    np.random.default_rng(12345).random(out=_DRAWS)
    np.less(_DRAWS, 0.3, out=_BITS)
    np.cumsum(_BITS, out=_COUNTS)
    np.less(_DRAWS, 0.6, out=_MASK)
    np.logical_xor(_BITS, _MASK, out=_MASK)
    return int(_COUNTS[-1]) + int(np.count_nonzero(_MASK))


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def sample(kind: str, reps: int) -> list[float]:
    """Wall time of ``reps`` back-to-back runs of one kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def speed(times: list[float], kind: str) -> float:
    """Host speed as NOMINAL_S over the median kernel time (1.0 = nominal)."""
    return NOMINAL_S[kind] / statistics.median(times)
