"""Calibration probe: fixed work owned by the benchmark, timed next to
every operation so that timings can be put on one machine-speed scale.

The virtual machines this benchmark runs on change speed by up to a
factor of two over minutes, because of load on the host that no process
inside sees.  A fixed pure-Python loop took 12 to 19 ms per call within a
minute, and the same seeded sweep ran at 1.5 and at 3.1 operations per
second within half an hour.

The probe has three parts whose times followed the workloads' own
slow-downs in proportion (log-log slope near -1 against their throughput,
correlation -0.87 to -0.98 over 16 runs): a dense complex matrix-vector
product, a plain Python loop, and lookups in a dict larger than the
cache.  ``slowness`` is the geometric mean of each part's time over its
time on the reference scale, so 1.0 is the reference speed.  The probe
never calls teardrop, so a change to the program does not move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Time of each part on the reference scale: about its median on a fast
# spell of a 2-vCPU Xeon virtual machine with one BLAS thread.
REFERENCE = {"dense": 0.0025, "loop": 0.0020, "dict": 0.0030}

_rng = np.random.default_rng(20150512)
_dense = _rng.random((400, 400)) + 1j * _rng.random((400, 400))
_vec = _rng.random(400) + 0j
_keys = [(i, 0.5 * i) for i in range(30000)]
_table = {key: i for i, key in enumerate(_keys)}
_order = [int(i) for i in _rng.permutation(len(_keys))[:3000]]


def _dense_part():
    vec = _vec
    for _ in range(20):
        vec = _dense @ vec
        vec /= np.linalg.norm(vec)
    return float(vec.real[0])


def _loop_part():
    acc = 0.0
    for i in range(25000):
        acc += math.sqrt(i)
    return acc


def _dict_part():
    return float(sum(_table[_keys[i]] for i in _order))


PARTS = {"dense": _dense_part, "loop": _loop_part, "dict": _dict_part}


def probe_parts():
    """Wall time of each part, in seconds."""
    times = {}
    for name, part in PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def slowness():
    """Machine slowness now: 1.0 at the reference speed, 2.0 at half."""
    times = probe_parts()
    return math.exp(sum(math.log(times[k] / REFERENCE[k]) for k in REFERENCE)
                    / len(REFERENCE))


class Clock:
    """Puts operation times on the reference scale.

    Call ``tick`` after every operation.  ``scaled`` then divides the
    wall time of operation i by the geometric mean of the four probes
    nearest to it (two before, two after).  One probe jitters by about
    6 %; the window halves that and still follows a slow spell of a few
    seconds.
    """

    def __init__(self):
        self.samples = [slowness()]

    def tick(self):
        self.samples.append(slowness())

    def scaled(self, wall_times):
        logs = [math.log(s) for s in self.samples]
        out = []
        for i, wall in enumerate(wall_times):
            window = logs[max(0, i - 1):i + 3]
            out.append(wall / math.exp(sum(window) / len(window)))
        return out
