"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-35 % over minutes as other tenants come and go; that drift is larger than
any bound worth gating a change on.  Each repetition therefore times this
kernel just before and just after its timed run, and the reported times are
scaled by ``REFERENCE_S`` over the kernel's mean time: seconds as the
repetition would have taken on the host at its reference speed.

The kernel mixes the three kinds of work barolab does: numpy calls on small
periodic arrays (call overhead and ``np.roll``), elementwise arithmetic on a
large array, and float formatting as in CSV output.  It uses no barolab code,
so a change to barolab cannot move it, and its inputs never change.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the 2-vCPU Xeon (KVM, 2.1 GHz) where the benchmark
# was defined; only a unit, it cancels out of every comparison
REFERENCE_S = 0.3


def kernel_s():
    """Seconds for one pass of the reference kernel."""
    rng = np.random.default_rng(20240223)
    small = 1.0 + 0.1 * rng.random(2048)
    large = 1.0 + 0.1 * rng.random(65536)
    start = time.perf_counter()
    for _ in range(6000):
        small = 0.25 * (np.roll(small, 1) + np.roll(small, -1)) + 0.5 * small
        small = small * (2.0 - small) + np.sqrt(small) - np.sqrt(small)
    for _ in range(120):
        large = 0.5 * (large + np.sqrt(large) * large / (1.0 + large)) + np.exp(-large) * 0.0
    text = ",".join(format(v, ".17g") for v in np.tile(small, 16))
    elapsed = time.perf_counter() - start
    if not (np.all(np.isfinite(small)) and np.all(np.isfinite(large)) and text):
        raise ArithmeticError("reference kernel produced non-finite values")
    return elapsed
