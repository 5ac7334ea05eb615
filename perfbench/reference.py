"""A fixed reference loop that measures how fast this machine runs Python now.

The benchmark's end-to-end times are divided by the time of this loop,
taken right beside each sample, and quoted in REFERENCE_MS units.  Other
processes on a shared machine can slow every core by tens of percent for
seconds to minutes; such a slowdown stretches the sample and the reference
alike, so the ratio keeps only the program's own cost.  The loop uses no
dealsim code, so a change to dealsim cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

REFERENCE_MS = 1.0  # the nominal duration the ratio is quoted in
_ITEMS = 700


class _Item:
    __slots__ = ("group", "label")

    def __init__(self, group: int, label: str):
        self.group = group
        self.label = label

    def key(self) -> tuple:
        return (self.group, self.label)


def reference_work() -> str:
    """Object, dict, tuple, sort, JSON and hashing work, like a simulation step."""
    groups = {}
    for i in range(_ITEMS):
        item = _Item(i % 97, f"item-{i}")
        group, label = item.key()
        groups.setdefault(group, []).append(label)
    ordered = sorted((g, tuple(labels)) for g, labels in groups.items())
    text = json.dumps({str(g): list(labels) for g, labels in ordered}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def time_reference() -> float:
    """Seconds one reference loop takes, with the cyclic collector paused so
    the program's heap size does not leak into the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probes:
    """Reference loops run inside one long operation.

    A reference loop just before and just after an operation of several
    seconds misses changes in machine speed during it, so such an operation
    calls `take()` now and then while `on` is set.  The runner sets it only
    in the untraced run, clears `times` before each operation and averages
    them with its own reference loops afterwards.
    """

    def __init__(self):
        self.on = False
        self.times = []

    def take(self) -> float:
        """Run one reference loop; return the seconds it took."""
        self.times.append(time_reference())
        return self.times[-1]


PROBES = Probes()
