"""The machine's speed, sampled while the benchmark measures, so that a time
can be reported at one fixed speed.

The reference machine's speed changes by up to half, in stretches from a
fraction of a second to minutes, whatever runs on it (README,
"Steadiness").  The *probe* is a fixed piece of pure-Python work of the same
kind as the program's own (`Fraction` arithmetic into a dict keyed by small
tuples) that uses nothing of `padic_voa`.  Its time, measured right beside a
piece of program time, says how fast the machine ran just then; the program
time divided by it, times `REFERENCE_PROBE_S`, is that program time at the
speed at which the probe takes `REFERENCE_PROBE_S`.  A change that makes the
program do less work lowers that figure; a change in the machine's speed
moves the program and the probe together and leaves it where it was.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe's time on the reference machine in its fast stretches (README,
# "Reference figures").  A fixed constant: it only converts probe units to
# seconds, and it must stay the same for every commit that is compared.
REFERENCE_PROBE_S = 0.0025
# Wall time between two probes while a pass runs.
SAMPLE_INTERVAL_S = 0.05


def probe() -> dict:
    table: dict = {}
    for i in range(1, 240):
        key = (i % 97, i % 13, i % 7)
        term = Fraction(i, i + 1) * Fraction(3, 2 * i + 1) + Fraction(1, i % 11 + 1)
        table[key] = table.get(key, 0) + term
    return table


def time_probe() -> float:
    began = time.perf_counter()
    probe()
    return time.perf_counter() - began


def at_reference_speed(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """`samples` are the (start, duration) `perf_counter` pairs of the probes
    of one window, in time order, the first at its start and the last at its
    end.  Returns the time between the probes (the program's time) and that
    time at the reference speed: each gap between two probes is divided by
    the mean duration of the two."""
    program = scaled = 0.0
    for (began, took), (next_began, next_took) in zip(samples, samples[1:]):
        gap = next_began - (began + took)
        program += gap
        scaled += gap / ((took + next_took) / 2)
    return program, scaled * REFERENCE_PROBE_S


class SpeedSampler:
    """Runs the probe every `SAMPLE_INTERVAL_S` of wall time while a window
    is open, from a `SIGALRM` handler: in this thread, between two bytecodes
    of whatever runs, however long one operation takes."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def _sample(self, *_signal) -> None:
        if self._busy:  # an alarm during an explicit probe waits for the next one
            return
        self._busy = True
        began = time.perf_counter()
        probe()
        self.samples.append((began, time.perf_counter() - began))
        self._busy = False

    def measure(self, run):
        """Returns `run()`'s result, its program time and that time at the
        reference speed."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return (result, *at_reference_speed(self.samples))
