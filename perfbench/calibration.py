"""Fixed reference work that tracks how fast this machine runs right now.

Speed on a shared machine drifts by tens of percent over tens of seconds, and
a whole run can fall into a slow stretch, so raw times from two runs of the
same code can differ by more than any useful regression bound.  Timed
metrics are therefore scaled by (nominal time / measured time) of a reference
measured next to the operations, and read as times on a machine where the
reference takes its nominal time.  Neither reference calls lpai, so a change
to lpai moves the operations but not the references.

- Operations in the worker's own process: ``unit()``, a pure-Python loop of
  the kind of work lpai's closed forms do (Dekker splits and fsum over
  floats), timed for about 5 ms after each 0.1 s of operations.
- Operations that start processes, and set-up: one fresh interpreter that
  imports numpy (``process_ns``), timed before each operation or set-up.
  Process start follows this reference closely and the Python loop poorly.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

NOMINAL_UNIT_NS = 100_000  # about one unit on a 2-CPU Python 3.11 machine in a fast stretch
UNITS = 50  # units per calibration, about 5 ms
EVERY_NS = 100_000_000  # calibrate after each 0.1 s of operations

NOMINAL_PROCESS_NS = 250_000_000  # about one `python3 -c "import numpy"` on the same machine


def process_ns(root, env) -> int:
    """Wall time of one fresh interpreter that imports numpy, in ns."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root, env=env, check=True)
    return time.perf_counter_ns() - t0


_SPLIT = 134217729.0


def unit() -> float:
    acc = []
    x = 1.2345678901234567
    for i in range(200):
        a = x * (i + 1)
        b = 0.7071067811865476 * (i + 3)
        p = a * b
        ac = _SPLIT * a
        ah = ac - (ac - a)
        al = a - ah
        bc = _SPLIT * b
        bh = bc - (bc - b)
        bl = b - bh
        acc.append(p)
        acc.append(((ah * bh - p) + ah * bl + al * bh) + al * bl)
    return math.fsum(acc)
