"""A fixed probe of the host's speed, used to state times at a reference speed.

The benchmark runs on shared 2-core VMs whose speed drifts between a fast
and a slow mode, each lasting from seconds to minutes: a fixed pure-Python
loop timed every 2 s took between 0.42 and 0.86 s, with CPU time equal to
wall time. A run's raw op times follow the share of it spent in the slow
mode, and over ten seeds their spread reached 26% of the median, more than
any bound a time metric may have. No statistic over one run removes that.

So the benchmark times this probe, benchmark-owned code that calls nothing
of poiskit, right before and right after every measured operation, and
scales the operation's time by ``REFERENCE_S`` over the probe's time:
``at_reference(latency, probe)`` is the time the operation would take on a
host where the probe takes ``REFERENCE_S``. A change to poiskit cannot move
the probe, so a faster program still reads faster, by the same ratio.

The probe mixes the kinds of work the workloads do: interpreted Python
(dict and float operations, as in the per-pair and per-fold loops), numpy
passes over a 1.6 MB array (as in the transforms and likelihoods), and
page faults on fresh memory (as in the arrays and files each op creates).
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# Probe time on the x86_64 2-core VM the benchmark was built on, rounded,
# so that reference-speed times read close to seconds there.
REFERENCE_S = 0.005
# Timed units per probe; their median ignores a unit that was preempted.
UNITS = 7

_DATA = np.random.default_rng(0).random(200_000)
_LOGS = np.empty_like(_DATA)
# The host has stretches where page faults are slow. A classify op takes
# 35,000 to 65,000 of them per second. A probe that made fresh 1.6 MB
# temporaries took twice that rate and read 1.7 times slower than usual
# while classify ops kept their speed; one that took none missed stretches
# in which the ops slowed by a quarter. So the numpy work writes into
# preallocated arrays, whose page faults depend on the allocator, and each
# unit faults in a fresh anonymous mapping of this many pages, about
# 50,000 faults per second at the unit's usual 5 ms.
FAULTED_PAGES = 250


def _unit() -> float:
    table: dict = {}
    acc = 0.0
    for i in range(6_000):
        k = i % 997
        table[k] = table.get(k, 0) + 1
        acc += i * 0.5 / (k + 1)
    for _ in range(2):
        np.log1p(_DATA, out=_LOGS)
        np.multiply(_LOGS, _LOGS, out=_LOGS)
        acc += float(_LOGS.sum())
        _LOGS[:50_000].sort()
        acc += float(_LOGS[0])
    with mmap.mmap(-1, FAULTED_PAGES * mmap.PAGESIZE) as pages:
        for offset in range(0, len(pages), mmap.PAGESIZE):
            pages[offset] = 1
    return acc


def probe() -> float:
    """The host's current time for one probe unit, in seconds."""
    _unit()  # warm up caches and numpy's dispatch
    times = []
    for _ in range(UNITS):
        started = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s
