"""A fixed numpy and Python reference kernel that tracks the host's speed.

On a shared host the same code runs 15-25% faster or slower from one
minute to the next. Throughputs are therefore scaled by
``reference_seconds() / NOMINAL_S``, measured next to the work they
scale, so that a change in host speed cancels out and a change in
quatcnn does not: the kernel imports nothing from quatcnn. It mixes the
same kinds of work as training does: one larger GEMM chain, many small
GEMMs, elementwise and strided-max passes, and interpreter overhead.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median time on the 2-core OpenBLAS box the
# benchmark was tuned on; it only sets the scale of the scaled figures
NOMINAL_S = 0.035

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((192, 192)).astype(np.float32)
_WEIGHTS = _rng.standard_normal((16, 72)).astype(np.float32)
_COLUMNS = _rng.standard_normal((72, 484)).astype(np.float32)
_PLANES = _rng.standard_normal((64, 48, 48)).astype(np.float32)


def reference_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    b = _SQUARE
    for _ in range(12):
        b = _SQUARE @ b
        b *= 0.01
    for _ in range(300):
        _WEIGHTS @ _COLUMNS
    y = _PLANES
    for _ in range(6):
        y = np.maximum(y, 0.0)
        y = y.reshape(64, 24, 2, 24, 2).max(axis=(2, 4)).repeat(2, 1).repeat(2, 2)
    total = 0
    for i in range(20000):
        total += i & 7
    return time.perf_counter() - t0


def scaled(per_second: float, reference_s: float) -> float:
    """A throughput measured while the kernel took ``reference_s``,
    expressed at the kernel's nominal speed."""
    return per_second * reference_s / NOMINAL_S


def scaled_seconds(seconds: float, reference_s: float) -> float:
    """A duration measured while the kernel took ``reference_s``,
    expressed at the kernel's nominal speed."""
    return seconds * NOMINAL_S / reference_s
