"""Machine-speed probe: a fixed kernel timed at regular wall-clock intervals.

The shared host this benchmark was tuned on runs the same code 10-40% slower
for stretches of seconds to minutes (README, "Noise").  A probe interleaves a
small fixed kernel of the same kinds of work as the program (small dense
linear algebra, batched arithmetic on tiny arrays, interpreted Python) with
the measured phase, from a SIGALRM handler in the measured thread, and
reports how fast the machine was against REFERENCE_KERNEL_S.  The worker
subtracts the probe's own time from the measured phase and multiplies the
rest by that speed, which gives the time at the reference speed.  The kernel
calls no maslovflow code, so a change to the program cannot move it.
"""

import signal
import time

import numpy as np
from scipy.linalg import expm

# Median time of one kernel() on the reference machine (README).  A constant,
# so that normalised times of different runs are comparable.
REFERENCE_KERNEL_S = 0.004
INTERVAL_S = 0.2

_rng = np.random.default_rng(12345)
_MATRICES = [_rng.normal(size=(4, 4)) for _ in range(6)]
_BATCH = _rng.normal(size=(3, 4, 4))


def kernel() -> float:
    """A fixed piece of work of the kinds the program does: 4 x 4 LAPACK
    calls, RK4-style arithmetic on a small batch of matrices, and a plain
    Python loop, in about equal parts."""
    acc = 0.0
    for A in _MATRICES * 3:
        S = A + A.T
        acc += float(np.linalg.svd(A, compute_uv=False)[0])
        acc += float(expm(0.1 * A)[0, 0])
        acc += float(np.linalg.eigh(S)[0][0])
        acc += float(np.linalg.solve(S + 8.0 * np.eye(4), A[:, 0])[0])
    Phi = np.broadcast_to(np.eye(4), _BATCH.shape).copy()
    for _ in range(150):
        k1 = _BATCH @ Phi
        k2 = _BATCH @ (Phi + 0.005 * k1)
        Phi = Phi + (0.01 / 2.0) * (k1 + k2)
    acc += float(Phi[0, 0, 0])
    for k in range(9000):
        acc += (k * 0.5) % 3.0
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean of REFERENCE_KERNEL_S / sample: the machine's speed over the probed span.

    With samples at even wall-clock intervals, the work done in the span is
    its length times this mean; a sample stretched by a preemption only
    lowers one term towards zero instead of dominating the mean."""
    return float(np.mean([REFERENCE_KERNEL_S / s for s in samples]))


class SpeedProbe:
    """Times kernel() every INTERVAL_S seconds of wall time while running.

    The timer is one-shot and re-armed after each sample, so a sample that
    overruns the interval never nests another."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0
        self._previous = None
        self._running = False

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - t0
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self) -> "SpeedProbe":
        kernel()  # warm-up: the first call in a process pays for lazy initialisation
        self.samples.append(time_kernel())
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        return speed(self.samples)
