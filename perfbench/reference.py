"""A fixed reference computation that measures how fast the host runs now.

On a shared host the CPU time of the same work is not constant: other
tenants of the machine's cores, caches and memory slow every instruction,
in phases that switch within seconds and last from seconds to minutes.  On
a 2-core x86-64 host one sample of this kernel took from 7.8 to 17 ms, and
ten `odometry` runs on ten seeds spread by 0.33 of their median in CPU
time (quartile distance).  The benchmark samples this kernel right before
every window and every input generation and scales the CPU time that
follows by ``REFERENCE_S`` over the sample, so the timings read as
seconds on a host where one sample takes ``REFERENCE_S``; the same ten
runs, scaled, spread by 0.05.  The kernel is the benchmark's own code and
calls nothing in the package, so a change to the package cannot change
it.

The kernel mixes what the pipeline spends its time on: interpreted Python,
numpy calls on batches of 3x3 matrices and vectors, a batched symmetric
eigen-decomposition and a sort.
"""

import time

import numpy as np

# Nominal CPU time of one sample, about what the host above took in its
# fast phases with Python 3.11 and OpenBLAS on one thread.
REFERENCE_S = 0.01

_rng = np.random.default_rng(20080227)
_MATS = _rng.normal(size=(1500, 3, 3))
_VECS = _rng.normal(size=(1500, 3))
_SYM = _MATS[:600] + _MATS[:600].transpose(0, 2, 1)
_VALUES = _rng.normal(size=12000)


def kernel():
    total = 0.0
    table = {}
    for i in range(12000):
        total += (i * 0.5) % 3.0
        table[i & 255] = total
    for _ in range(15):
        product = np.einsum("nij,njk->nik", _MATS, _MATS)
        moved = np.einsum("nij,nj->ni", product, _VECS)
        total += float(np.linalg.norm(moved, axis=1).sum())
    total += float(np.linalg.eigh(_SYM)[0].sum())
    total += float(np.cumsum(np.sort(_VALUES))[-1])
    return total


def sample():
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def scaled(seconds, sample):
    """``seconds`` of CPU time, measured right after a reference ``sample``,
    as seconds on a host where a sample takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / sample
