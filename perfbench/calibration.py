"""Host-speed calibration.

Hosts shared with other tenants change speed while a run is going: on the
2-vCPU host this benchmark was written on, the same ``field normform``
call took 92 ms in one 8-second window and 151 ms in the next, and every
kind of operation of the four workloads moved with it.  Two fixed tasks,
written here and not in the program under test, are timed between
operations (see ``run.run_cycles``): a permutation closure (tuple
composition and set lookups, the work of group enumeration) and an exact
elimination on rationals of about 20 digits (the work of rank, kernels
and LDL).  An operation's time is multiplied by ``REFERENCE_S / t``, with
``t`` the geometric mean of the two task times, taken as the median of
the samples around the operation: the reported times are seconds at one
fixed speed of that host.  A change to the program moves the scaled times
exactly as it moves the raw ones.  On that host the spread of 8- to
25-second medians of one operation's time (standard deviation of the
logarithm) fell from 0.06-0.23 raw to 0.03-0.09 scaled; larger tasks, and
a random walk over a large list, tracked the operations less well.

Set-up time did not follow those tasks (its spread grew when scaled by
them): a fresh process spends it reading and unmarshalling modules.  It
is scaled instead by a fresh process that imports a fixed set of
standard-library modules the program does not import (see
``setup_probe.py``), run next to each set-up probe; that cut the spread of
6-probe medians from 0.145 to 0.034.
"""

import math
import random
from fractions import Fraction
from time import perf_counter

import exact

_rng = random.Random(0)

# permutation closure: tuple composition and set lookups (group enumeration)
_GENERATORS = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]  # generate S7


def _closure() -> None:
    identity = tuple(range(7))
    seen, queue = {identity}, [identity]
    while queue:
        cur = queue.pop()
        for g in _GENERATORS:
            nxt = tuple(g[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


# exact elimination on rationals of about 20 digits (rank, kernels, LDL)
_MATRIX = [
    [Fraction(_rng.randint(-10**10, 10**10), _rng.randint(1, 10**10)) for _ in range(10)] for _ in range(10)
]


def _elimination() -> None:
    exact.det(_MATRIX)


# geometric mean of the two task times as once measured on the host above;
# fixes the unit only
REFERENCE_S = 0.0075
# the reference import set's time in a fresh process on that host
IMPORT_REFERENCE_S = 0.09


def host_speed() -> float:
    """REFERENCE_S over the geometric mean of one timing of each task."""
    times = []
    for task in (_closure, _elimination):
        start = perf_counter()
        task()
        times.append(perf_counter() - start)
    return REFERENCE_S / math.sqrt(times[0] * times[1])
