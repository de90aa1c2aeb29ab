"""A fixed reference computation that gauges the machine's speed of the moment.

On a shared machine the speed of a core changes in spells of seconds to
minutes, by 20 % and more, and those spells shift a whole run.  Each round
worker therefore times ``kernel()`` before every operation and after the
last, and run.py divides each operation's time by the mean of the kernel
times nearest to it.  The kernel does the same kind of work as
fracgrey's searches (an exponential response, a batched matmul, a mean
absolute error, random draws, sorts and gathers over small arrays in a
Python loop), so it slows down with them.  It is part of the benchmark, not
of fracgrey, so a change to fracgrey does not change it.

``REFERENCE_S`` is a fixed 0.08 s, close to the kernel's median time on the
machine of the reference figures in README.md.  An operation's time divided
by the kernel's time, times ``REFERENCE_S``, is the operation's time at the
speed at which the kernel takes 0.08 s.
"""

import time

import numpy as np

LAYERS, BATCH, N, ITERATIONS = 16, 48, 12, 400

REFERENCE_S = 0.08


def kernel():
    """Run the reference computation once; returns its value (always the same)."""
    # Not numpy.random.default_rng, which the traced pass wraps to count draws.
    rng = np.random.Generator(np.random.PCG64(0))
    weights = rng.random((LAYERS, N, N - 1)) / N
    pos = rng.random((LAYERS, BATCH, 2))
    best = np.full(LAYERS, np.inf)
    rows = np.arange(LAYERS)
    for _ in range(ITERATIONS):
        order = np.argsort(rng.random((LAYERS, BATCH)), axis=1)
        pos = np.take_along_axis(pos, order[..., None], axis=1)
        pos = np.clip(pos + 0.01 * (rng.random(pos.shape) - 0.5), 0.0, 1.0)
        decay = np.exp(-0.1 * pos[..., :1])
        xhat = np.cumprod(np.broadcast_to(decay, (LAYERS, BATCH, N)), axis=-1) + pos[..., 1:]
        err = np.abs(np.matmul(xhat, weights) - 1.0).sum(axis=-1)
        i = np.argmin(err, axis=1)
        best = np.minimum(best, err[rows, i])
    return float(best.sum())


def timed():
    """Seconds taken by one ``kernel()`` call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
