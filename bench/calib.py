"""Fixed work that measures how fast the host runs Python at a moment.

On a shared host the same code runs up to 1.7x slower at some moments than
at others, for seconds or tens of seconds at a time, because other tenants
load the same physical cores. A timing taken between two calibrations is
scaled by the reference time over their mean: that gives it in seconds at
the reference speed. Neither calibration runs streamclust code, so no change
to streamclust can move them.

A busy host slows two kinds of work by different amounts, so there are two
calibrations:

- calibrate(): a stdlib loop (string splitting, float parsing, dict
  updates, float arithmetic), the mix of the interpreter-bound work
  streamclust does per record. It scales running code.
- calibrate_start(): a fresh interpreter that imports numpy and exits.
  Process start, page faults and imports slow less than running code does
  (1.5x against 1.75x in the same slow spell). It scales a command's start,
  up to the moment its CLI module is imported.
"""

import os
import subprocess
import sys
import time

# One calibration on the reference host: a 2-vCPU KVM guest, Python 3.11,
# when no other tenant loads its cores.
REF_S = 0.0015
# One calibrate_start() on the same host and moment.
START_REF_S = 0.14


def _loop(n: int = 1000) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(n):
        row = f"{i},{i * 0.5},{i % 7}".split(",")
        x, y = float(row[1]), int(row[2])
        table[y] = table.get(y, 0.0) + x * x
        acc += (x - y) ** 0.5 if x > y else 0.0
    return acc


def calibrate(reps: int = 3) -> float:
    """Seconds one loop takes now: the fastest of `reps`, so that an
    interrupt in one of them does not count."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between calibrations `before` and `after`, in
    seconds at the reference speed."""
    return seconds * REF_S / ((before + after) / 2)


def calibrate_start() -> float:
    """Seconds a fresh interpreter takes now to start and import numpy."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def scale_start(seconds: float, before: float, after: float) -> float:
    """`seconds` of process start, measured between start calibrations
    `before` and `after`, in seconds at the reference speed."""
    return seconds * START_REF_S / ((before + after) / 2)
