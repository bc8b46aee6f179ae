"""A fixed calibration kernel timed beside every training run.

The benchmark's machine is two vCPUs of a shared host whose speed drifts by
up to half within minutes: the same 120-step run took 0.16 s and 0.30 s
twenty seconds apart.  Nothing in one process can stop that, but it moves
any fixed CPU work in step with the program.  So run.py times one of these
kernels just before and just after every `run_training` call and scales the
call's wall time to a machine of reference speed:

    calibrated = wall * REFERENCE_S[kernel] / (mean of the two kernel times)

The kernels use numpy only, never optparity, with fixed inputs, so a change
to the program cannot move them.  Each workload takes the kernel whose cost
is shaped like its own: `dispatch` is many numpy calls on tiny arrays, where
Python and numpy call overhead dominates (parity_study, deep_ablation);
`wide_layer` is a plain-numpy forward and backward of one 1024x256 ghost-BN
layer, large matrix products and whole-array passes (large_batch).  Over
five minutes of one run per workload in turn, the 20-second-window medians
of the raw run times spread by 0.15-0.25 (quartile distance over median)
and those of the calibrated times by 0.04-0.08.  On large_batch, a kernel
of matrix products alone left the spread of single calls at 0.13 (raw
0.14); `wide_layer` brought it to 0.08.  The set-up probe uses `interpreter`,
plain Python with dicts and strings, since importing modules is interpreter
work: over 160 probes, medians of ten spread by 0.28 raw, 0.17 scaled by
`dispatch` after the clock and 0.10 scaled by `interpreter` before and after.
"""

from __future__ import annotations

import functools
import time

# Median time of each kernel on the 2-vCPU shared VM the reference figures
# in README.md come from (numpy 2.4.6, scipy-openblas 0.3.31, one BLAS
# thread), so that calibrated times read close to that machine's wall times.
REFERENCE_S = {"dispatch": 0.0065, "wide_layer": 0.040, "interpreter": 0.0075}
KERNEL_OF = {"parity_study": "dispatch", "large_batch": "wide_layer",
             "deep_ablation": "dispatch"}



@functools.cache
def _arrays():
    # numpy loads on first use, so the set-up probe can time the interpreter
    # kernel before its clock covers the import of numpy
    import numpy as np

    rng = np.random.default_rng(12345)
    return (np, rng.standard_normal((16, 8)), rng.standard_normal((8, 8)),
            rng.standard_normal((1024, 256)), rng.standard_normal((256, 256)),
            rng.standard_normal(256))


def _dispatch() -> float:
    np, x0, w, _, _, _ = _arrays()
    x, total = x0, 0.0
    for i in range(1000):
        h = np.maximum(x @ w, 0.0)
        total += float(h.sum())
        x = x0 * (1.0 + 1e-9 * i)
    return total


def _wide_layer() -> float:
    np, _, _, a, b, gamma = _arrays()
    total = 0.0
    for _ in range(4):
        h = (a @ b).reshape(16, 64, 256)  # 16 ghost batches of 64
        mu = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        y = np.maximum((h - mu) / np.sqrt(var + 1e-5) * gamma, 0.0).reshape(1024, 256)
        total += float((y.T @ a).sum())
    return total


def _interpreter() -> int:
    table = {}
    for i in range(20000):
        table[str(i)] = (i * 7) % 13
    return sum(len(key) for key in table)


KERNELS = {"dispatch": _dispatch, "wide_layer": _wide_layer, "interpreter": _interpreter}


class Calibrator:
    """Runs one kernel per call and returns its time in seconds."""

    def __init__(self, kernel: str):
        self._fn = KERNELS[kernel]
        self.reference_s = REFERENCE_S[kernel]
        self._fn()  # warm-up: first-call allocation and BLAS start-up

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._fn()
        return time.perf_counter() - t0
