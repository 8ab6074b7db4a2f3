"""Normalisation of measured times to the reference machine's speed.

The reference VM shares its host with other tenants, and its speed
drifts: the same `serial-ind-perfect` query, repeated in one process,
took 1.0 s to 2.0 s over a few minutes, and its median over one run
moved between 1.1 s and 2.0 s within an hour. CPU time equals wall
time and the kernel reports no steal, so the slowdown is the CPU itself
running slower, and no clock in the process hides it.

A fixed pure-Python kernel, run between the measured intervals of a
run, slows down with the machine. Over a run, its mean time divided by
``REFERENCE_S`` is the run's slowdown, and a time measured in the run
divided by the slowdown is in reference seconds: seconds on the
reference VM at the speed where the kernel takes ``REFERENCE_S``. The
kernel never calls the program, so a faster program still reads
faster. Single queries track the kernel poorly (both vary by 15% from
one to the next); means over a run do, which halved the spread of
windows of eight queries (8.8% to 4.7%) on the reference VM. The
kernel slows down more steeply than CPU-bound queries (slope about
0.67 on a log-log plot), so a slow machine reads fast: about 25% at a
kernel slowdown of 2.4.
"""

from __future__ import annotations

import gc
import time

#: Kernel time on the reference VM (2-core x86, Python 3.11) when the
#: machine runs at its nominal speed.
REFERENCE_S = 0.0101


def _kernel() -> None:
    counts = {}
    odd = set()
    for i in range(60000):
        key = (i * 7919) % 4001
        counts[key] = counts.get(key, 0) + i
        if key & 1:
            odd.add(key)
    sorted(counts.items(), key=lambda item: item[1])


def probe(kernels: int) -> float:
    """Mean time of ``kernels`` kernel runs.

    The cyclic garbage collector is paused, so that a large heap left
    by the program does not make the kernel pay for collecting it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(kernels):
            _kernel()
        return (time.perf_counter() - start) / kernels
    finally:
        if enabled:
            gc.enable()


def slowdown(probes: list) -> float:
    """The machine's slowdown over the probes' mean kernel time."""
    return sum(probes) / len(probes) / REFERENCE_S
