"""Times in reference seconds: wall time corrected for the host's speed.

The benchmark's machine is a share of a host whose speed changes with its
other tenants' load, by 1.6x to 3x, in states that last seconds and whose mix
drifts over minutes.  A run's wall time then says as much about the host as
about the program.  So while work runs, a SIGALRM handler times a fixed
reference loop every `PERIOD_S` of wall time; the loop's nominal time over
its measured time is the host's speed at that moment, 1.0 when the loop takes
its nominal time.

A span's reference time is its own wall time (the handler's time taken out)
times the mean speed sampled during it: the work the span did, in seconds of
a host on which the loop takes its nominal time.  Sampling runs in the
benchmark's only thread, between the program's own steps, so nothing runs
beside the program and a program that used more cores could not slow the
reference.

Contention slows interpreter-bound and memory-bound code by different
amounts, so there are two loops, and each workload names the one whose
slowdowns track its passes (`Workload.reference`); the loops in use are
sampled in turn.  Set-up, mostly
imports and certificate checks in Python, always uses `interpreter`.
Nominal times are the loops' times on the faster state of the 2-vCPU Xeon VM
this benchmark was written on.
"""

from __future__ import annotations

import functools
import signal
import time
from array import array

PERIOD_S = 0.1


def interpreter_loop(n: int = 20_000) -> int:
    """Integer arithmetic and a small dict, all in the CPU's private caches."""
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 255] = i
    return len(table)


@functools.cache
def _ring(size: int = 1 << 22) -> array:
    """A random cyclic permutation of range(size) in 16 MiB of int32.
    Building it peaks at 48 MiB."""
    import numpy as np

    order = np.arange(size, dtype=np.int32)
    np.random.default_rng(1).shuffle(order)
    successor = np.empty(size, dtype=np.int32)
    successor[order[:-1]] = order[1:]
    successor[order[-1]] = order[0]
    ring = array("i")
    ring.frombytes(memoryview(successor).cast("B"))
    return ring


def memory_walk(n: int = 20_000) -> int:
    """Dependent loads along `_ring()` from its start: the same n cache lines
    each time, scattered over 4,096 pages, so the loop waits on cache and TLB
    misses more than on the interpreter."""
    ring = _ring()
    j = 0
    for _ in range(n):
        j = ring[j]
    return j


# name -> (loop, nominal seconds)
REFERENCES = {
    "interpreter": (interpreter_loop, 0.0035),
    "memory": (memory_walk, 0.004),
}


class HostSpeed:
    """Samples the host's speed with the named reference loops in turn, or
    not at all when none are named; `since(mark, reference)` converts the
    wall time since a mark to reference seconds of one of them, which are
    wall seconds when not sampling."""

    def __init__(self, names: list[str]) -> None:
        self.sampling = bool(names)
        self.names = names
        self.turn = 0
        self.samples = dict.fromkeys(self.names, 0)
        self.speed_sum = dict.fromkeys(self.names, 0.0)
        self.handler_s = 0.0  # wall time spent sampling, not in the program

    def __enter__(self) -> "HostSpeed":
        if self.sampling:
            for name in self.names:
                REFERENCES[name][0]()  # build and warm the loops before the first timed sample
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        self._sample(self.names[self.turn])
        self.turn = (self.turn + 1) % len(self.names)

    def _sample(self, name: str) -> None:
        loop, nominal_s = REFERENCES[name]
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.samples[name] += 1
        self.speed_sum[name] += nominal_s / (t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def mark(self) -> tuple[float, float, dict[str, int], dict[str, float]]:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.handler_s, dict(self.samples), dict(self.speed_sum)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def since(self, mark, reference: str) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the program's work since mark."""
        now, handler_s, samples, speed_sum = self.mark()
        wall = now - mark[0] - (handler_s - mark[1])
        if not self.sampling:
            return wall, wall
        n = samples[reference] - mark[2][reference]
        total = speed_sum[reference] - mark[3][reference]
        if n == 0:  # too short for a sample of this loop: sample the host now
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self._sample(reference)
                n = self.samples[reference] - mark[2][reference]
                total = self.speed_sum[reference] - mark[3][reference]
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return wall, wall * total / n

    def summary(self) -> dict:
        return {
            name: {
                "samples": self.samples[name],
                "mean_speed": self.speed_sum[name] / self.samples[name] if self.samples[name] else None,
            }
            for name in self.names
        } | {"sampling_s": self.handler_s}
