"""The machine-speed reference: a fixed CPU kernel timed alongside the workload.

The reference machine's speed drifts by 15 to 30 % over spans of half a
minute to several minutes, with the load of the host's other tenants. A run
of a minute takes on the speed of the state it lands in, so raw times of ten
runs spread as far as the drift. The kernel below runs the same pure-Python
arithmetic as Brent rho's inner step and does not touch the library, so no
change to the program can move it. Timed next to the workload, it tells how
fast the machine was at that moment, and scaling the workload's times by
REFERENCE_NS / kernel time takes most of the drift out. A scaled time is the
time the operation would take at the speed where the kernel takes
REFERENCE_NS: its typical time on the reference machine, so scaled and raw
times agree there at typical speed.
"""

import time
from statistics import median

REFERENCE_NS = 1_200_000
_MODULUS = 2**64 - 59  # largest prime below 2^64
_STEPS = 4000
SAMPLES = 5


def _kernel() -> int:
    x = 2
    for _ in range(_STEPS):
        x = (x * x + 1) % _MODULUS
    return x


def kernel_ns() -> int:
    """Median wall time of SAMPLES kernel calls, in nanoseconds."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - start)
    return median(times)


def scale(measured_ns: int) -> float:
    """Factor that turns a time measured now into a time at the reference speed."""
    return REFERENCE_NS / measured_ns
