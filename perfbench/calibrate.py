"""Machine-speed calibration for timings on a shared machine.

The machine this benchmark was defined on runs the same single-threaded
code up to 1.7 times slower for stretches of 5 to 40 seconds, when other
tenants load the physical core.  Medians over a run of a few seconds follow
those stretches: the quartile spread of ``job_p50_ms`` across runs was 0.15
to 0.35 of its median.

Each timing is therefore normalized by a fixed calibration kernel timed
close to it in the same process.  The kernel mixes what tprod spends its
time on: interpreted Python, many small numpy calls and a LAPACK routine.
A timing ``t`` next to a calibration time ``c`` is reported as
``t * REFERENCE_S / c``: seconds at the machine speed at which the kernel
takes :data:`REFERENCE_S`.  The benchmark and the kernel are the same on
every commit and the kernel does not call tprod, so a change to tprod
moves the normalized figure by the same share as the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the 2-vCPU machine the benchmark was defined on
REFERENCE_S = 0.0105

_RNG = np.random.Generator(np.random.PCG64(0))
_SMALL = _RNG.uniform(-1.0, 1.0, size=(4, 4))
_MEDIUM = _RNG.uniform(-1.0, 1.0, size=(48, 48))


def _kernel() -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(300):
        np.linalg.svd(_SMALL)
    for _ in range(10):
        np.linalg.svd(_MEDIUM)


def calibrate(samples: list, repeats: int = 3) -> None:
    """Append ``repeats`` wall times of the kernel, in seconds, to ``samples``."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)


def factor(calibration_s: float) -> float:
    """Multiplier that turns a wall time into reference-speed time."""
    return REFERENCE_S / calibration_s
