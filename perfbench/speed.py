"""Host-speed reference: a fixed pure-Python kernel timed around runs.

On shared hosts the interpreter's speed drifts by up to 1.7x over
seconds to minutes (neighbours contending for the physical core), which
moves every timing with it: repetitions of the same Fig 13 grid spread
by 15-25% between their quartiles. The same drift slows this kernel in
step. So the benchmark times the kernel at the start and end of each
timed region and, from a ``SIGALRM`` timer, every ``SAMPLE_EVERY_S``
while the region runs. It scales the region's host seconds, less the
kernel's own time, by the mean of ``REFERENCE_S`` over each sample.

The kernel allocates no container objects, so garbage-collector
settings do not change its speed, and it calls nothing in ``repro``, so
no change to the program moves it. It runs between bytecodes of the
main thread and touches no state of the program.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, List

#: Seconds the kernel takes at the reference speed: its typical time on
#: the host where the benchmark was defined (2-vCPU Xeon VM, CPython
#: 3.11). Scaled times are host seconds at that speed.
REFERENCE_S = 0.015

#: Host seconds between kernel samples inside a timed region.
SAMPLE_EVERY_S = 0.5

_ITERATIONS = 40_000


def kernel_seconds() -> float:
    """Host seconds one pass of the reference kernel takes now."""
    start = time.perf_counter()
    table = [0.0] * 256
    acc = 0.0
    x = 1
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 255
        acc += table[j] * 0.5 + i
        table[j] = acc % 1000.0
    return time.perf_counter() - start


class Timed:
    """Times a block in host seconds and in reference seconds.

    Attributes:
        host_s: Host seconds of the block, kernel samples excluded.
        scale: Reference seconds per host second over the block.
        reference_s: ``host_s * scale``.
    """

    def __init__(self, sample: bool = True,
                 kernel: Callable[[], float] = kernel_seconds) -> None:
        self.sample = sample
        self.kernel = kernel
        self.host_s = 0.0
        self.scale = 1.0
        self.reference_s = 0.0
        self._kernels: List[float] = []
        self._kernel_time = 0.0

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self._kernels.append(self.kernel())
        self._kernel_time += time.perf_counter() - start

    def __enter__(self) -> "Timed":
        self._kernels.append(kernel_seconds())
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        # Stop the timer before reading the clock: a sample already due
        # then still runs, and is subtracted, inside the timed interval.
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
        self._kernels.append(kernel_seconds())
        self.host_s = end - self._start - self._kernel_time
        self.scale = sum(REFERENCE_S / k for k in self._kernels) \
            / len(self._kernels)
        self.reference_s = self.host_s * self.scale
