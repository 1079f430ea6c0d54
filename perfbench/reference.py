"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to 2x over seconds to
minutes: an identical zonofit op took from 0.36 s to 0.96 s within one
minute, with CPU time charged in full, so neither CPU time nor the fastest of
several runs removes it.  Timing this kernel next to the ops and dividing by
it does: the ratio of op time to kernel time spreads by a few percent where
the raw time spread by 25-40%.

The kernel is a short pure-Python loop and a loop of numpy calls on small
arrays, the two kinds of work zonofit's ops are made of; its time is the
geometric mean of the two.  It uses nothing from zonofit, so a change to the
program cannot change it.
"""

import math
import time

import numpy as np

_SMALL = [np.random.default_rng(i).standard_normal(64) for i in range(8)]


def _python_loop():
    s, d = 0, {}
    for i in range(20000):
        s += i * i % 7
        d[i % 97] = s
    return s


def _small_arrays():
    s = 0.0
    for i in range(1000):
        a = _SMALL[i % 8]
        s += float(np.sin(a).dot(a) + np.maximum(a, 0.0).sum())
    return s


def sample():
    """Seconds the kernel takes now (about 10 ms)."""
    t0 = time.perf_counter()
    _python_loop()
    t1 = time.perf_counter()
    _small_arrays()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))
