"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to about 1.8x over tens of seconds to minutes.  Raw wall times
of the same code then spread more than any useful bound.  The benchmark
therefore times this loop next to the measured work and reports time in
reference seconds::

    reported = ref_s * median over ops of (op wall / pass wall next to it)

i.e. seconds on a host where one pass of the loop takes ``ref_s``.  The loop
calls nothing of spintorus, so a change to the package moves only the
numerator.

A pass mirrors what the workloads spend time on: a BLAS product on the
library's default threads (the workloads run part of their time on both
cores), small FFTs called from Python, a 3-D FFT and pure interpreter work.
The BLAS part comes first, so its threads are idle again when the pass ends.
The arrays are small (under 1 MiB), so the loop does not raise a workload's
peak RSS.  Work that runs in fresh processes (the CLI ops and the set-up
probes) pays process start-up and imports, which the in-process parts do not
track, so for it a pass also starts one interpreter that imports numpy.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# nominal seconds of one pass, in-process and with a fresh interpreter; they
# set the scale of reported times
REF_S = 0.1
REF_FRESH_S = 0.25
_FRESH = [sys.executable, "-c", "import numpy.fft, numpy.linalg"]

_rng = np.random.default_rng(20220105)
_SMALL = _rng.standard_normal((4, 65)) + 1j * _rng.standard_normal((4, 65))
_MIX = _rng.standard_normal((4, 4)) * 0.5
_CUBE = _rng.standard_normal((16, 16, 16)) + 0j
_MAT = _rng.standard_normal((192, 192))  # large enough for two BLAS threads


def _work() -> float:
    acc = 0.0  # each step starts from the same data: no drift to denormals
    for _ in range(80):
        acc += (_MAT @ _MAT)[0, 0]
    for _ in range(1300):
        acc += abs(np.fft.ifft(_MIX @ np.fft.fft(_SMALL, axis=-1), axis=-1)[0, 0])
    for _ in range(120):
        acc += abs(np.fft.ifftn(np.fft.fftn(_CUBE) * 0.5)[0, 0, 0])
    s = 0
    for i in range(190000):
        s += i * i % 7
    return acc + s


def seconds(passes: int = 1, fresh: bool = False) -> float:
    """Mean wall seconds of ``passes`` passes of the loop (each with a fresh
    interpreter if ``fresh``), timed after an untimed pass that absorbs what
    the preceding work left behind (BLAS threads still spinning, a heap to
    grow again)."""
    _work()
    t0 = time.perf_counter()
    for _ in range(passes):
        _work()
        if fresh:
            subprocess.run(_FRESH, check=True, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t0) / passes


def ref_s(fresh: bool = False) -> float:
    return REF_FRESH_S if fresh else REF_S


def scale(walls: list[float], loop_walls: list[float], fresh: bool = False) -> float:
    """Reference seconds of the median of ``walls``; ``loop_walls[i]`` is
    the pass time next to ``walls[i]`` (the mean of the passes just before
    and just after it)."""
    return ref_s(fresh) * statistics.median(
        w / c for w, c in zip(walls, loop_walls, strict=True))


if __name__ == "__main__":  # how long a pass takes on this host
    for fresh in (False, True):
        seconds(1, fresh)
        t = statistics.median(seconds(1, fresh) for _ in range(11))
        print(f"{t:.4f} s per pass{' with a fresh interpreter' if fresh else ''}")
