"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the same work runs 20-60 % slower from one
minute to the next (CPU time as much as wall time), which would bury the
changes the benchmark is meant to show.  Each run therefore also times this
fixed kernel, which shares no code with flowquant, next to the operations it
measures, and scales every timing to what it would read when the kernel
takes REFERENCE_S:  reported = measured * REFERENCE_S / kernel time.  A
change to flowquant moves the operations and not the kernel, so it shows in
full; a slow spell of the machine moves both and cancels.

The kernel mixes what the workloads spend their time on: interpreter work
(string formatting, dicts), many numpy calls on small arrays, and FFTs and
element-wise passes over arrays of 1 MB.

Run as a script, it prints one kernel time in seconds (the cold workload
uses it between its processes).
"""

import statistics
import time

import numpy as np

#: Kernel time, in seconds, on the machine the benchmark was tuned on
#: (2 vCPUs, Python 3.11, numpy 2.4): timings are reported at this speed.
REFERENCE_S = 0.04

_BIG = np.exp(1j * np.linspace(0.0, 100.0, 65536))
_SMALL = np.linspace(-10.0, 10.0, 2048)


def kernel() -> float:
    start = time.perf_counter()
    rows = {i: f"{i * 0.1:.17g},{i * 0.7:.17g}" for i in range(3000)}
    text = ",".join(rows.values())
    y = _SMALL
    for _ in range(300):
        y = 0.5 * (y + np.sin(y) * np.cos(y))
    for _ in range(4):
        z = np.fft.ifft(np.fft.fft(_BIG) * np.abs(_BIG))
    if not (text and np.isfinite(z[0]) and np.isfinite(y[0])):
        raise RuntimeError("reference kernel produced no result")
    return time.perf_counter() - start


def probe(repeats: int = 3) -> float:
    """Median kernel time of a few back-to-back runs, after one untimed run
    (the first pays for FFT plans and cold caches)."""
    kernel()
    return statistics.median(kernel() for _ in range(repeats))


if __name__ == "__main__":
    print(probe())
