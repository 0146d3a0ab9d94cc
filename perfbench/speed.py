"""How fast the machine runs right now, measured by a fixed probe.

The benchmark runs on a shared host whose speed drifts: for minutes at a
time the ``features`` command takes up to 1.9x its fastest time, so no
statistic over one run of it can stay steady.  A fixed piece of the same
kind of work (float formatting, string building, dict and slice churn, a
little vectorised NumPy) slows down by about the same factor at the same
moment.  A workload with ``WorkloadSpec.speed_scaled`` therefore runs this
probe before its first step and after every step, and scales each step's
measured seconds to *reference seconds*: times ``REFERENCE_S`` over the mean
of the probe times on either side of the step.  That is the time the step
would have taken while the probe takes ``REFERENCE_S``.  A slower program
still reads slower; a slower machine does not.

The probe touches nothing of the program, so a change to the program cannot
move it.  It is not used for the model workloads: their rounds last about
ten seconds and slow down less than the probe does, so scaling them would
add the probe's noise to steady figures.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: probe time, in seconds, that defines a reference second (about this
#: probe's fastest time on a 2-core VM, Python 3.11.7, NumPy 2.4.6)
REFERENCE_S = 0.015
#: each probe is the fastest of this many passes, which drops a pass that
#: another process interrupted
PASSES = 3

_RNG = random.Random(1)
_FLOATS = [_RNG.random() * 100 for _ in range(20_000)]
_ARRAY = np.random.default_rng(1).random(200_000)


def _pass() -> float:
    started = time.perf_counter()
    text = ",".join(repr(x) for x in _FLOATS)
    chunks = {i: text[i:i + 8] for i in range(0, 40_000, 4)}
    ordered = np.sort(_ARRAY)
    total = np.cumsum(ordered * 1.5)
    (total[::3] + ordered[::3]).sum()
    del chunks
    return time.perf_counter() - started


def probe() -> float:
    """Seconds one probe pass takes now."""
    return min(_pass() for _ in range(PASSES))


class Scaler:
    """Reference seconds per measured second, step by step; 1 when off."""

    def __init__(self, enabled: bool):
        self.probes: list[float] = []
        if enabled:
            probe()  # the first passes warm the probe's own allocations
            self.probes.append(probe())

    def start(self) -> float:
        """The scale for work done before the first probe."""
        return REFERENCE_S / self.probes[0] if self.probes else 1.0

    def step(self) -> float:
        """Probe after a step; the scale for the step since the last probe."""
        if not self.probes:
            return 1.0
        self.probes.append(probe())
        return REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
