"""Host speed probe: times that do not move with the shared host's pace.

On a small shared host the same code runs in fast and slow phases, from
under a second to minutes long, as neighbours load the physical cores and
their caches: the same `fecam attention` invocation took 0.37 s in one
20-second stretch and 0.54 s in another on a 2-vCPU Xeon VM, and whole
55-second runs of the benchmark differed by 25%. A run-level statistic cannot
average out a phase longer than the run.

So every timed operation is bracketed by a probe, a fixed ~10 ms mix of the
kinds of work fecam does, and its time is rescaled by how slow the probe ran
next to it::

    paced seconds = wall seconds * REFERENCE_S / probe seconds

A change to fecam moves the wall time and not the probe, so it shows in full;
a slow phase of the host moves both and mostly cancels. The probe runs on the
same thread, between operations, and is never part of a timed interval.

The mix matters: a probe that fits in L1 (a tight loop, tiny matmuls) swings
less than fecam does, which has megabytes of Python objects and arrays live.
Over eight 20-second processes whose raw invocation medians spread 40%
(quartile distance over median 0.39), pacing by the small part alone left
0.11 and by the whole mix below 0.04.
"""

from __future__ import annotations

import csv
import statistics
import time

import numpy as np

# A typical probe time on a 2-vCPU Intel Xeon (2.1 GHz) VM with numpy's
# OpenBLAS on one thread (8 to 12 ms), so paced seconds read close to wall
# seconds there.
REFERENCE_S = 0.009
REPEATS = 3

_rng = np.random.default_rng(0)
_LEFT = _rng.normal(size=(32, 96))
_RIGHT = _rng.normal(size=(96, 96)) * 0.1
_SOURCE = np.ones(1 << 18)
_TARGET = np.empty_like(_SOURCE)
_TEXT = [f"{x:.6f}" for x in _rng.normal(size=200)]
_KEYS = [f"k{i}" for i in range(20000)]
_FLOATS = _rng.normal(size=100000).tolist()
_LINES = [",".join(f"{x:.6f}" for x in row) for row in _rng.normal(size=(1000, 8))]
_WIDE = _rng.normal(size=(336, 336)) * 0.05
_BATCH = _rng.normal(size=(64, 336))


def _probe_once() -> float:
    start = time.perf_counter()
    # Interpreter, parsing, small matmuls and ufuncs, a 2 MiB copy: cache-resident.
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    for text in _TEXT:
        total += float(text)
    x = _LEFT
    for _ in range(20):
        x = np.maximum(x @ _RIGHT, 0.0)
    np.copyto(_TARGET, _SOURCE)
    # Megabytes of Python objects: a dict, a long list, CSV rows.
    table = {}
    for key in _KEYS:
        table[key] = len(key)
    for key in _KEYS:
        total += table[key]
    for value in _FLOATS:
        total += value
    for row in csv.reader(_LINES):
        total += sum(float(cell) for cell in row)
    # Matmuls of the L=336 attention shape.
    y = _BATCH
    for _ in range(4):
        y = np.maximum(y @ _WIDE, 0.0)
    return time.perf_counter() - start


def probe() -> float:
    """Median of a few probe runs: the host's current time for fixed work."""
    return statistics.median(_probe_once() for _ in range(REPEATS))


def paced(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled by the probe times taken just before and after it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def timed(fn) -> float:
    """Call `fn()` between two probes and return its paced seconds."""
    before = probe()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return paced(seconds, before, probe())
