"""Host-speed calibration for the benchmark's wall times.

The machine this benchmark was tuned on shares its cores with other
tenants, and its effective CPU speed drifts by 20-30% over minutes, and by
up to 2x over an hour: a fixed pure-Python loop took 29-41 ms per call over
three minutes.  Wall times of separate runs are therefore not comparable as
they stand.  A run times this fixed kernel in the same process as its
samples (once before each timed call, three times in each set-up probe)
and reports every sample as

    sample * REF_S / median kernel time next to the sample,

which is the sample's wall time at the speed where the kernel takes REF_S.
The kernel mixes interpreter work and small numpy calls, like quadflow's
hot paths.  On verify_landau, rescaling each call by the kernel time
before it cut the spread of 20-second medians over three minutes from
15.5% to 3.1% (interquartile range over median).  The raw times stay in
the run record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["REF_S", "kernel_seconds"]

# the kernel's median time on the 2-core shared VM the benchmark was tuned on
# (Python 3.11, numpy 2.4, single-threaded BLAS)
REF_S = 0.0085


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    a = np.eye(15)
    for _ in range(300):
        a = a @ a
        np.linalg.det(a)
    return perf_counter() - t0
