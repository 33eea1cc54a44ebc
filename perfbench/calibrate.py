"""A fixed reference kernel that tracks the machine's momentary speed.

On a shared machine the speed one process gets drifts by tens of percent
over minutes (other tenants, shared cores).  The benchmark times this
kernel next to every timed round and rescales the round to the speed at
which the kernel takes ``NOMINAL_S``:

    rescaled time = measured time * NOMINAL_S / reference time.

The kernel mixes the kinds of work freqboot does -- Philox generator
construction and exponential draws, a batched FFT whose working set is
larger than L2, and interpreted Python -- and uses nothing from
freqboot, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.06

_FFT_INPUT = np.random.default_rng(0).standard_normal((16, 256, 256))   # 8 MiB, larger than L2
_DRAWS = np.empty(2000)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for key in range(400):
        np.random.Generator(np.random.Philox(key=key)).standard_exponential(out=_DRAWS)
    np.fft.fft2(_FFT_INPUT)
    acc = 0
    for i in range(100_000):
        acc += i & 7
    return time.perf_counter() - t0


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at nominal speed, from the reference times around it."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))
