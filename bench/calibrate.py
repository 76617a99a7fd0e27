"""A fixed piece of CPU work that measures how fast the host runs this process.

The benchmark shares a few cores of a host with other tenants, and their
load slows this process by a third or more, for seconds to minutes at a
time (a fixed pure-Python loop ran 27-40 ms per one-second window on a
2-vCPU host within the same minute). Every run times this loop between
CLI invocations, for a tenth as long as the invocation before; the
end-to-end timings are reported in units of its mean time in the same
run ("cal"), which cancels most of that drift while still moving one
for one with the program's own speed.

The loop mixes the kinds of work dogsim does: interpreted Python (text
parsing, per-item loops) and small numpy operations (a logistic gradient
on a 2000 x 10 batch). It does not touch dogsim, so no change to the
program can change it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20190131)
_FEATURES = _RNG.normal(size=(2000, 10))
_LABELS = np.where(_FEATURES @ _RNG.normal(size=10) > 0.0, 1.0, -1.0)
_LINES = ["%+d " % y + " ".join("%d:%.6f" % (j + 1, v) for j, v in enumerate(row))
          for y, row in zip(_LABELS[:300], _FEATURES[:300])]


def _python_part() -> float:
    total = 0.0
    for _ in range(12):
        for line in _LINES:
            label, *pairs = line.split()
            row = {}
            for pair in pairs:
                index, _, value = pair.partition(":")
                row[int(index)] = float(value)
            total += float(label) * sum(row.values())
    return total


def _numpy_part() -> float:
    x = np.zeros(_FEATURES.shape[1])
    for _ in range(1000):
        z = -_LABELS * (_FEATURES @ x)
        x = x - 1e-5 * (_FEATURES.T @ (-_LABELS / (1.0 + np.exp(-z))))
    return float(x @ x)


def calibration_s() -> float:
    """Wall time of one pass of the calibration loop (about 0.07 s)."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def calibrate(seconds: float) -> list[float]:
    """Times of back-to-back passes, at least one, until `seconds` have passed."""
    times = [calibration_s()]
    while sum(times) < seconds:
        times.append(calibration_s())
    return times
