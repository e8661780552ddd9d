"""Host-speed calibration for the host-time metrics.

The CPU speed of a shared virtual machine changes under the benchmark:
on the 2-vCPU host this benchmark was built on, identical units took up
to 1.7x longer in one 5-second window than in the next, with no steal
time and with thread CPU time tracking wall time.  A fixed pure-Python
loop slows down with the units, so the benchmark times that loop after
every unit and scales each unit's host time to the speed at which the
loop takes :data:`REFERENCE_S`.  Over the 10-second windows of a
120-second serve-mix run, scaling by a loop of this kind cut the spread
of the median unit time from 13% to 5%.

The loop uses nothing from the program, so no change to the program
moves it; it allocates almost no objects the garbage collector tracks,
so the garbage a unit leaves behind does not move it either.
"""

from __future__ import annotations

import statistics
import time

#: Seconds :func:`calibrate` takes on the host this benchmark was tuned
#: on when that host runs at full speed.  Normalized host times are
#: host times on such a host.
REFERENCE_S = 0.0030

#: Calibrations on each side of a unit that make up its speed estimate.
WINDOW = 4


class _Cell:
    __slots__ = ("pc", "regs", "cycles")

    def __init__(self) -> None:
        self.pc = 0
        self.regs = [0] * 32
        self.cycles = 0

    def step(self, op: int, a: int, b: int) -> int:
        regs = self.regs
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & 0xFFFFFFFFFFFFFFFF
        elif op == 1:
            regs[a] ^= regs[b] * 2654435761 & 0xFFFFFFFF
        else:
            regs[a] = regs[b] >> 3
        self.pc += 1
        self.cycles += 1 + (op & 1)
        return regs[a]


def _loop() -> int:
    """Method calls, attribute and list access, dict updates and integer
    arithmetic: the mix an interpreter-bound simulator spends its time on."""
    cell = _Cell()
    table: dict[int, int] = {}
    ring: list[int] = []
    acc = 0
    for i in range(4000):
        value = cell.step(i % 3, i & 31, (i * 7) & 31)
        table[value & 511] = table.get(value & 511, 0) + 1
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        ring.append(acc & 255)
        if len(ring) > 512:
            ring.clear()
        acc += len(table) + (value & 7)
    return acc


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def normalize(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Scale each host time to reference host speed.  ``calibrations[i]``
    was taken right after ``seconds[i]``; the speed estimate for a unit is
    the median calibration over the :data:`WINDOW` units on either side."""
    normalized = []
    for index, value in enumerate(seconds):
        window = calibrations[max(0, index - WINDOW):index + WINDOW + 1]
        normalized.append(value * REFERENCE_S / statistics.median(window))
    return normalized
