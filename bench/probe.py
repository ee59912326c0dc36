"""Calibration probes for timing on a machine whose speed drifts.

On a shared machine the same learn can take twice as long a minute later.
A probe times a fixed piece of work around each timed step; the step's
time multiplied by REFERENCE_S[kind] / probe time is its time on a machine
where the probe takes REFERENCE_S[kind].  That scaled time drifts far less
than wall time, because the probe slows down with the machine.

Interpreted Python and NumPy's memory-bound loops slow down by different
amounts, so there are two probes, each shaped like one layer's hot loop:
``python`` (integer arithmetic and updates of a dict with tuple keys, as in
the search and the score cache) and ``numpy`` (a mixed-radix key and a
bincount over 200000 rows, as in counting).  A workload uses the probe of
the layer that dominates it.  The probes are part of the benchmark and
must not change between two commits that are compared.
"""

import functools
import statistics
import time

import numpy as np

REFERENCE_S = {"python": 0.05, "numpy": 0.02}
_KEYS = [(a, b) for a in range(97) for b in range(89)]


def _python_work():
    table = dict.fromkeys(_KEYS, 0)
    s = 0
    for i in range(150_000):
        s += i * i % 7
        key = (i % 97, i % 89)
        table[key] += 1


def _numpy_work(rows):
    for _ in range(10):
        key = (rows[:, 0] * 3 + rows[:, 1]) * 3 + rows[:, 2]
        np.bincount(key * 3 + rows[:, 3], minlength=81)


def probe_times(kind, samples=3):
    """Times of ``samples`` runs of the ``kind`` probe's fixed work."""
    if kind == "numpy":
        work = functools.partial(
            _numpy_work,
            np.random.default_rng(0).integers(0, 3, size=(200_000, 4)))
    elif kind == "python":
        work = _python_work
    else:
        raise ValueError(f"unknown probe {kind!r}")
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return times


def scaled(seconds, kind, probes):
    """``seconds`` at the reference speed, given ``kind`` probe times taken
    around the step (their median is the machine's probe time then)."""
    return seconds * REFERENCE_S[kind] / statistics.median(probes)
