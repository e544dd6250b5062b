"""Calibration of how fast the machine runs Python at the moment.

On a shared machine the same unit of work took from 0.25 to 0.36 s within
minutes, with nothing else of the benchmark's running, while the ratio of
its time to :func:`calibrate`'s stayed within 7 %.  The benchmark therefore
times :func:`calibrate` between its units and scales its end-to-end times
to the speed at which the calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median calibration time on the 2-core machine where the benchmark was
# defined (Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.0635


def calibrate() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's.

    Small numpy operations driven from a Python loop, plus JSON encoding:
    the mix that dominates every workload.  It uses no auxmix code, so no
    change to the program moves it.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    y = x @ np.ones(16)
    w = np.zeros(16)
    for i in range(2000):
        idx = rng.integers(0, 64, size=8)
        xb = x[idx]
        w -= 0.01 * (xb.T @ (xb @ w - y[idx])) / 8
        json.dumps({"round": i, "w": [float(w[0]), i * 0.5]})
    return time.perf_counter() - start
