"""Host-speed calibration of the gated timings.

The shared host this benchmark was tuned on runs the same Python code
up to twice as slowly for stretches of several seconds, more than any
in-run median can absorb.  So the benchmark measures the host's speed
between units of work with a fixed pure-Python loop that never touches
the program, and divides each unit's time by how much slower than
nominal that loop ran next to it.  A change to the program moves the
unit's time and not the loop's, so it shows in full; a slow spell of
the host moves both and cancels.  Raw times are printed beside the
calibrated ones.
"""

from __future__ import annotations

import time

#: Nominal duration of one ``_loop`` (the host at an unloaded moment).
REF_S = 0.002


def _loop() -> float:
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - started


#: Loops per measurement.  Their total, not their fastest, is used:
#: time the hypervisor takes from this machine slows the program too.
LOOPS = 5


def host_factor() -> float:
    """How many times slower than nominal the host runs right now."""
    return sum(_loop() for _ in range(LOOPS)) / (LOOPS * REF_S)


def between(factors, index: int) -> float:
    """The factor of the unit between measurements ``index`` and
    ``index + 1``."""
    return (factors[index] + factors[index + 1]) / 2.0
