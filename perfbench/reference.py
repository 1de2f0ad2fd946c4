"""Reference kernel: a fixed pure-Python workload that measures machine speed.

The CPU speed of a shared machine drifts by tens of percent from one minute
to the next, and a run's wall time drifts with it.  Before every job, run.py
times this kernel a few times in its own process, while no job runs, and
divides the pass wall time by the median kernel time of the run
(`wall_rel`).  The kernel uses nothing from the repository, so a change to
the program moves only the numerator; the machine moves both.  It mixes
what nclab spends its time on: bitmask integers, tuples and dicts, and
Fraction arithmetic.  Its checksum is verified on every call, so the work
cannot silently go missing.
"""

import time
from fractions import Fraction

SAMPLES = 3  # kernel calls before the first job and after each job
CHECKSUM = (165, 374991, 2169, 1642430939244063024)


def kernel() -> tuple:
    counts = {}
    for i in range(1, 50000):
        mask = (i * 2654435761) & 0xFFFFFFFF
        key = (mask.bit_count(), mask & 7)
        counts[key] = counts.get(key, 0) + (mask >> 28)
    rows = sorted(((i * 40503) & 0xFFFF, i, (i % 7, i % 11)) for i in range(40000))
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k * k)
    return (
        len(counts),
        sum(counts.values()),
        rows[len(rows) // 2][1],
        total.numerator * 10**18 // total.denominator,
    )


def sample() -> list:
    """Seconds each of SAMPLES kernel calls takes now."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        result = kernel()
        times.append(time.perf_counter() - start)
        if result != CHECKSUM:
            raise RuntimeError(f"reference kernel returned {result}, expected {CHECKSUM}")
    return times
