"""A fixed reference computation that measures how fast the machine is now.

The benchmark runs on a shared VM whose speed drifts by 10-25% over
minutes: the same rounds of selcls work take 1.5 s in one stretch and 2.4 s
in the next, in one process, with CPU time moving with wall time. So the
round times the benchmark reports are scaled by REFERENCE_S / (this probe's
median time over the run): a ratio to work that no change to selcls can
touch, expressed in seconds of the machine the reference was taken on.

The probe is a small MLP training step written out in numpy, about the
mix of per-call dispatch and 64-row BLAS that dominates selcls's work. It
calls nothing from selcls.
"""

import time

import numpy as np

STEPS = 300
# median probe wall time on the reference machine (README.md)
REFERENCE_S = 0.044


def _step_inputs():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((64, 2)), rng.standard_normal((64, 64)) / 8,
            rng.standard_normal((8, 64)) / 8, rng.standard_normal((64, 2)),
            rng.integers(0, 8, 64), np.arange(64))


def probe():
    """(wall seconds, CPU seconds) of STEPS forward/backward steps."""
    W1, W2, W3, X, y, rows = _step_inputs()
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(STEPS):
        a1 = np.maximum(X @ W1.T, 0.0)
        a2 = np.maximum(a1 @ W2.T, 0.0)
        z = a2 @ W3.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        d2 = (p @ W3) * (a2 > 0)
        d1 = (d2 @ W2) * (a1 > 0)
        W3 -= 1e-9 * (p.T @ a2)
        W2 -= 1e-9 * (d2.T @ a1)
        W1 -= 1e-9 * (d1.T @ X)
    return time.perf_counter() - t0, time.process_time() - c0
