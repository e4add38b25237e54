"""Host-speed sampling, to normalise measured times.

Compute times are normalised by a sampled tick (Sampler); set-up times by a
reference start-up (start_probe).

The host this benchmark was built on changes CPU speed by up to 2x from
one second to the next and for minutes at a time; cpu time moves with wall
time, so the guest cannot see it.  While a `Sampler` is active, a SIGALRM
handler times a tiny fixed piece of Fraction arithmetic (`_tick`) every
INTERVAL_S of wall time.  Samples are uniform in time, so the work the host
could do in the interval, in reference seconds, is

    normalised = (wall - time spent in the handler) * REF_TICK_S * mean(1 / tick)

The tick allocates and takes gcds of small integers, as the workloads do.
Over 55 passes of each workload in 13 minutes, normalised pass times had a
coefficient of variation of 0.04-0.06 against 0.15-0.19 raw, and did not
rise with host slowness (log-log slope below 0.1); a small-integer loop
left 0.06-0.07, with normalised times still rising as the host slowed
(slope 0.3).

Normalised values are seconds at the speed where a tick takes REF_TICK_S.
A change to wpsieve cannot move the tick, so it moves normalised and raw
times alike; run.py prints raw medians next to the normalised ones.

The tick does not track start-up: the cost of starting an interpreter and
loading numpy's shared libraries steps by 25-40% on the same host while the
tick moves by a fraction of that.  A set-up time is therefore divided by an
adjacent reference start-up, a fresh interpreter that imports numpy and
mpmath (installed packages no wpsieve change can touch), and scaled to
REF_START_S:

    normalised setup = raw setup * REF_START_S / reference start-up
"""

import signal
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.02
REF_TICK_S = 80e-6  # _tick() on a 2-vCPU Xeon VM, Python 3.11, fast state
REF_START_S = 0.15  # start_probe() on the same VM, fast state

_START_PROBE = "import time, numpy, mpmath; print(time.monotonic())"


def start_probe(env: dict, cwd) -> float:
    """Seconds from spawning a fresh interpreter until `import numpy,
    mpmath` returns."""
    spawn = time.monotonic()  # CLOCK_MONOTONIC is shared by every process
    p = subprocess.run([sys.executable, "-c", _START_PROBE], env=env, cwd=cwd,
                       capture_output=True, text=True, timeout=60, check=True)
    return float(p.stdout) - spawn


def _tick() -> float:
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i * i - 7, 3 * i + 1)
    return time.perf_counter() - t0


class Sampler:
    """Context manager sampling host speed while the block runs."""

    def __init__(self):
        self.ticks: list[float] = []
        self.busy_s = 0.0  # wall time spent in the handler

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks.append(_tick())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ticks:  # block shorter than one interval: sample once now
            self.ticks.append(_tick())

    def factor(self) -> float:
        """Reference seconds per second of (handler-free) wall time."""
        return REF_TICK_S * sum(1 / t for t in self.ticks) / len(self.ticks)
