"""Host speed, measured by a fixed reference workload.

The benchmark's host shares its physical cores with other machines, and
their load changes its speed: the same operation takes anywhere from
1x to 2x its uncontended time, in phases that last from seconds to
minutes.  A reference workload that does not depend on the program
slows down in the same phases, so the benchmark times it between
operations and reports operation times (``run_s`` and the per-layer
seconds) scaled to the host speed at which the reference takes
:data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / reference_measured

On a 5-minute trace of one fixed ``fig9_cocktail`` operation, 20-second
windows of raw wall time varied by 20–33% (IQR over median); the scaled
ratio of sums varied by 2.5–3.4%.

The reference is interpreter work around short numpy expressions on
small integer vectors, the pattern of the simulator's cost kernels.  It
tracked the host's slow phases better than a pure-Python event loop or
a BLAS product, on ``fig9_cocktail`` and on ``accuracy_kv`` alike.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_s"]

#: Seconds :func:`reference_s` takes on an uncontended host (2-vCPU KVM
#: guest, x86-64, Python 3.11, numpy 2.4), so scaled times read as
#: seconds on that host.
REFERENCE_S = 0.037


def reference_s() -> float:
    """Wall seconds of one pass of the reference workload."""
    start = time.perf_counter()
    ctx = np.arange(1, 65, dtype=np.int64)
    acc = 0.0
    for k in range(1, 7000):
        total = k * int(ctx.sum()) + 64 * (k * (k - 1) // 2)
        steps = np.arange(1, 9, dtype=np.int64)
        acc += float((steps * total * 1e-9).sum())
    return time.perf_counter() - start
