"""Host-speed normalization for the benchmark's timings.

On a shared 2-core Intel Xeon virtual machine, the host's speed
drifts by up to 2x. The drift comes in phases that last from milliseconds
to tens of seconds, and medians of pass times over a 20 s window varied by
35%.  ``reference_kernel`` is a fixed slice of the work geodescent does
(Python calls on 3-vectors and small JSON records).  The benchmark runs it
between the intervals it times, in proportion to their length, and converts
wall seconds to normalized seconds with ``REF_KERNEL_S / mean(kernel
times)``: times are reported in units where the kernel takes 2.5 ms.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REF_KERNEL_S = 2.5e-3
# kernel time spent per second of measured time
KERNEL_SHARE = 0.1


def reference_kernel() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    x, v, acc = np.array([1.2, 0.2, 0.3]), np.array([0.0, 0.1, -0.2]), 0.0
    for i in range(300):
        w = x + 1e-3 * v
        acc += float(np.sqrt(max(float(np.dot(w[1:], w[1:])) - w[0] * w[0] + 2.0, 0.0)))
        acc += len(json.dumps({"k": i, "coords": [float(c) for c in w], "f": acc}))
    return time.perf_counter() - t0


def sample_after(measured_s: float, samples: list[float]):
    """Run the kernel at least once, and until its time reaches
    ``KERNEL_SHARE`` of the interval just measured; append the times."""
    spent = 0.0
    while True:
        k = reference_kernel()
        samples.append(k)
        spent += k
        if spent >= KERNEL_SHARE * measured_s:
            return


def scale(samples: list[float]) -> float:
    """Factor that converts wall seconds to normalized seconds."""
    return REF_KERNEL_S / statistics.fmean(samples)
