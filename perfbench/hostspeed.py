"""A probe of the host's speed, to report timings at a fixed host speed.

On a host shared with other work, the speed the benchmark gets can
drift by a third over tens of minutes, every operation and set-up
slowing or speeding up together.  So next to each timed operation the
benchmark times :func:`probe`, a fixed kernel of its own (interpreted
Python dict and sort work, and NumPy sorts and gathers over half a
megabyte: the mix the program runs), and reports each timing as
``wall_time * REFERENCE_S / probe_time``: the time it would have taken
on a host on which the probe takes ``REFERENCE_S``.  The probe does not
touch the program, so a change to the program moves the reported time
as much as it moves the wall time.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's median time on the host the bounds were set on (2-vCPU
#: shared VM, Intel Xeon at 2.0 GHz, Python 3.11, NumPy 2).
REFERENCE_S = 0.035

_RNG = np.random.default_rng(12345)
#: Half a megabyte of floats and a random gather over them, so the probe
#: feels cache contention as the program's array code does.
_DATA = _RNG.random(1 << 16)
_GATHER = _RNG.integers(0, 1 << 16, size=1 << 15)


def _kernel() -> float:
    table: dict[tuple[int, int], float] = {}
    for i in range(12000):
        key = ((i * 7919) % 4099, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    acc = sum(value for _, value in sorted(table.items())[::32])
    for k in range(5):
        y = np.sort(_DATA * (1.0 + k))
        acc += float(y[_GATHER].sum()) + float(np.cumsum(y)[-1])
    return acc


def probe() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to
    the reference host speed."""
    return seconds * REFERENCE_S / probe_s
