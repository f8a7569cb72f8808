"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same job takes from 1x to 2x its quiet time, in spells
of a few seconds and in drifts over minutes, and CPU time slows with wall
time. The benchmark therefore runs short slices of this loop *during* each
job, from a timer signal every ``INTERVAL_S`` seconds, and reports the job's
time in *reference seconds*: its own time (the slices taken out) multiplied
by the loop's nominal speed over its speed in the slices. A change to
geodiss moves the job's time and not the loop's, so it moves the reported
time in full; a slow spell of the host slows both and cancels.

The loop does what geodiss does in its inner loops, in the benchmark's own
code: small numpy arrays, 3x3 solves, Python-level arithmetic and calls.
It uses no geodiss code, so no change to the library can change its speed.
It tracks the host well: over 200 s of back-to-back ``sombrero_orbit``
jobs, the jobs' own wall times spread by 0.235 (interquartile range ÷
median) and their ratios to the slice time by 0.033. A loop that walked a
16-MB array instead tracked worse (0.085).
"""
from __future__ import annotations

import json
import signal
import time

import numpy as np

# seconds per iteration on one thread of a 2-vCPU Intel Xeon, typical of
# that host; it only sets the scale, so reference seconds read as seconds
NOMINAL_S_PER_ITERATION = 2.0e-4
SLICE_ITERATIONS = 100
INTERVAL_S = 0.2

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


def _rhs(x: np.ndarray) -> np.ndarray:
    g = np.linalg.solve(_A, x)
    return np.cross(x, g) - 0.01 * float(x @ g) * g


def _loop(iterations: int) -> np.ndarray:
    """RK4 on a damped rigid-body-like flow with a fixed step."""
    x = np.array([1.0, 0.2, 0.1])
    h = 0.01
    for _ in range(iterations):
        k1 = _rhs(x)
        k2 = _rhs(x + 0.5 * h * k1)
        k3 = _rhs(x + 0.5 * h * k2)
        k4 = _rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("reference loop diverged")
    return x


def time_reference(iterations: int = SLICE_ITERATIONS) -> tuple[float, float]:
    """(wall seconds, CPU seconds) of ``iterations`` passes of the loop."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    _loop(iterations)
    return time.perf_counter() - t0, time.process_time() - cpu0


class Sampler:
    """Times a slice of the loop every ``INTERVAL_S`` s of wall time (SIGALRM).

    Python runs the handler in the main thread between bytecodes, so a
    slice interrupts the job wherever it is. ``totals`` are the slices'
    count, wall time and CPU time so far.
    """

    def __init__(self):
        self.slices = 0
        self.wall = 0.0
        self.cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        wall, cpu = time_reference()
        self.slices += 1
        self.wall += wall
        self.cpu += cpu

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # the first slice comes early, so a short first job is sampled too
        signal.setitimer(signal.ITIMER_REAL, 0.01, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def totals(self) -> tuple[int, float, float]:
        return self.slices, self.wall, self.cpu

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.totals(), fh)


def in_reference_seconds(measured: float, iterations: int, reference_s: float) -> float:
    """A ``measured`` time rescaled from the host's speed in the reference
    loop (``iterations`` of it in ``reference_s`` seconds, run during the
    measured stretch or around it) to the nominal speed."""
    return measured * NOMINAL_S_PER_ITERATION * iterations / reference_s
