"""A reference clock that takes the host's speed out of the benchmark's times.

The benchmark runs on shared machines where the speed of one single-threaded
Python process swings by a fifth from one second to the next and by a third
within minutes.  So while work is timed, a `Sampler` interrupts it every
SAMPLE_CPU_S of CPU time to run one reference unit: a fixed pure-Python
computation (Euclid's algorithm over QQ with `fractions.Fraction`, the kind of
arithmetic the engine spends its time on) that uses no engine code.  The
samples follow the host's speed through the timed interval.  A scaled time is
in reference seconds: the wall time the work would take on a host where one
reference unit takes REF_UNIT_S.  A change to the engine moves a scaled time
as it moves the wall time; a change of host speed moves the samples with it
and cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Wall seconds of one reference unit on a 2-core x86-64 VM with CPython 3.11
# at its faster periods; it fixes the scale of a reference second.
REF_UNIT_S = 0.002
SAMPLE_CPU_S = 0.05

_F = tuple(Fraction((i * 7919) % 97 - 48, 1 + i % 5) for i in range(13))
_G = tuple(Fraction((i * 104729) % 89 - 44, 1 + i % 3) for i in range(12))


def _rem(a: list, b: list) -> list:
    """Remainder of a by b, coefficient lists over QQ, lowest degree first."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        s = len(a) - len(b)
        for i, c in enumerate(b):
            a[s + i] -= q * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _euclid() -> int:
    f, g = list(_F), list(_G)
    steps = 0
    while g:
        f, g = g, _rem(f, g)
        steps += 1
    return steps


def reference_unit() -> float:
    """Wall seconds of one reference unit.  The collector is off during it:
    the unit makes no cycles, and a collection would scan the caller's heap
    and tie the reference to the engine's memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _euclid()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs a reference unit every SAMPLE_CPU_S seconds of the process's user
    CPU time (SIGVTALRM), between two bytecodes of whatever is running.

        with Sampler() as sampler:
            ...                      # timed work
            n, unit_s, spent = sampler.take()

    `take` returns, since the previous take: the number of units, their total
    seconds, and the wall seconds the sampler took from the timed work."""

    def __init__(self):
        self._n = 0
        self._unit_s = 0.0
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self._unit_s += reference_unit()
        self._n += 1
        self._spent += time.perf_counter() - t

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def take(self) -> tuple[int, float, float]:
        out = (self._n, self._unit_s, self._spent)
        self._n, self._unit_s, self._spent = 0, 0.0, 0.0
        return out


def scale(n: int, unit_s: float) -> float:
    """Factor from wall seconds to reference seconds for work during which n
    reference units took unit_s seconds in all."""
    return REF_UNIT_S * n / unit_s
