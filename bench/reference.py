"""The fixed reference computation that converts wall time to normalised seconds.

The machine this benchmark runs on changes speed from run to run, so every
timed operation is bracketed by two runs of a fixed computation that does
the same kind of work as the library: a pure-Python loop with dict work and
small numpy array operations.  An operation's normalised time is its wall
time scaled by ``NOMINAL_REFERENCE_S`` over the mean of the two reference
times, i.e. its wall time at the speed where the reference takes exactly
``NOMINAL_REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

#: Median wall time of ``reference()`` on the 2-core VM where the benchmark
#: was calibrated (see README.md).  A constant: changing it rescales every
#: time metric.
NOMINAL_REFERENCE_S = 0.004

_KEYS = 97
_LOOP = 10_000
_ARRAY_OPS = 200


def reference() -> int:
    """A fixed computation; uses no probboost code and keeps nothing."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(_LOOP):
        key = i % _KEYS
        table[key] = table.get(key, 0) + i
        acc += table[key] & 7
    values = np.arange(64, dtype=float)
    for _ in range(_ARRAY_OPS):
        scaled = np.exp(-values * 0.01) * values
        acc += int(scaled.sum()) & 1
        values = values[::-1].copy()
    return acc


def time_reference() -> float:
    """Wall seconds of one reference run."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


#: The machine's speed may change while an operation runs.  When the two
#: reference times differ by more than this share, the operation is timed
#: again (see ``timed``).
STEADY_SHARE = 0.25
RETIMES = 1


def timed(fn, before_each=None, retimes=RETIMES):
    """Run ``fn()`` between two reference runs.

    Returns (result, wall seconds, normalised seconds, speed factor,
    attempts), where the speed factor is NOMINAL_REFERENCE_S over the mean
    reference time, so normalised = wall * factor.  If the two reference
    times differ by more than STEADY_SHARE, the machine changed speed during
    the run, and ``fn`` (which must be deterministic) is run and timed
    again, at most ``retimes`` more times; the last timing counts.
    ``before_each()`` runs, untimed, before every attempt.
    """
    for attempt in range(1, retimes + 2):
        result = None  # an earlier attempt's result is not kept alive
        if before_each is not None:
            before_each()
        before = time_reference()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = time_reference()
        if abs(after - before) <= STEADY_SHARE * min(after, before):
            break
    factor = NOMINAL_REFERENCE_S / (0.5 * (before + after))
    return result, wall, wall * factor, factor, attempt
