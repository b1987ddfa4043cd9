"""Fixed reference work that the benchmark times next to every operation.

On a shared host the same operation runs up to twice as slowly for
stretches of tens of seconds, because other tenants compete for the
core, its caches and memory bandwidth (see README.md).  Timing this
kernel on the same CPU as an operation, at the same moment, measures the
host's speed then; an operation's time divided by the kernel's is steady
across such stretches.  The kernel mixes the two kinds of work the
workloads do: numpy passes over a 5 MB array, larger than a core's L2
cache, and interpreted float formatting and parsing.  It must never change, or results measured before and
after the change are no longer comparable.

A pass runs before and after each in-process closure, and before, now
and then during, and after each CLI child process and each set-up child
(`SpeedProbe` in run.py).  A pass counts the calling thread's CPU time, so time spent
waiting for the CPU or for the interpreter lock is left out.
"""

from __future__ import annotations

import time

import numpy as np


def reference_seconds() -> float:
    """CPU seconds of one pass of the kernel (about 35 ms on the machine in README.md)."""
    t0 = time.thread_time()
    rng = np.random.Generator(np.random.Philox(key=20240801))
    block = rng.standard_normal((200, 3201))
    running = np.cumsum(block, axis=1)
    float((running * running).mean())
    total = 0.0
    for i in range(20_000):
        total += float(repr(i * 0.1))
    return time.thread_time() - t0
