"""Machine-speed calibration.

On a shared host the effective CPU speed of a small VM can change by up to
2x within a second and stay changed for minutes, so the same program call
takes 60 ms in one minute and 120 ms in the next, and the median over a
half-minute run still moves by 20-30% from run to run.  The benchmark
therefore also times a fixed loop of its own, close to the program's hot
loops (Python int division): between consecutive ops, and every
SAMPLE_PERIOD_S from a background thread while an op runs longer than
that, alternating over the CPUs the benchmark may use.  Each op's time is
scaled by CAL_REF_S / (calibration time), where the calibration time is
the mean of the samples taken during the op (the op's time integrates the
machine's speed, and so does the mean), or for a short op the mean of the
samples just before and after it.  A faster program lowers the scaled
time; a slower machine does not raise it.  Scaled times read as seconds on a machine where one
calibration loop takes CAL_REF_S; raw times are recorded alongside them.

Ops shorter than SAMPLE_PERIOD_S are never interrupted; a longer op gives
the thread about 1% of its time, the same on every commit.
"""

from __future__ import annotations

import os
import threading
import time

# Time of one calibration loop at full speed on the reference box (2-vCPU
# VM, Python 3.11); it only sets the scale of the scaled times.
CAL_REF_S = 0.001
LOOP = 7500
SAMPLE_PERIOD_S = 0.1


def sample() -> float:
    """Seconds one calibration loop takes now."""
    n = (1 << 61) - 1
    hits = 0
    start = time.perf_counter()
    for b in range(1000, 1000 + LOOP):
        q, r = divmod(n, b)
        hits += r == q % b
    return time.perf_counter() - start


def scale(seconds: float, cal: float) -> float:
    """A raw time rescaled to the calibration reference speed."""
    return seconds * CAL_REF_S / cal


class Sampler:
    """Background thread that samples the calibration loop every
    SAMPLE_PERIOD_S while an op runs.

    Use as a context manager around the ops; bracket each op with
    `begin()` and `end()`, which returns the samples taken during it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._start: float | None = None
        self._samples: list[float] = []
        self._closed = False
        self._thread = threading.Thread(target=self._run, name="calibration", daemon=True)

    def _run(self) -> None:
        # Alternate over the CPUs this thread may use, so that an op spread
        # over pool workers is calibrated on every CPU it can occupy.
        tid = threading.get_native_id()
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        with self._cond:
            while not self._closed:
                start = self._start
                if start is None:
                    self._cond.wait()
                    continue
                due = start + (len(self._samples) + 1) * SAMPLE_PERIOD_S
                delay = due - time.perf_counter()
                if delay > 0:
                    self._cond.wait(delay)
                    continue
                self._cond.release()
                try:
                    if len(cpus) > 1:
                        os.sched_setaffinity(tid, {cpus[turn % len(cpus)]})
                        turn += 1
                    cal = sample()
                finally:
                    self._cond.acquire()
                if self._start == start:
                    self._samples.append(cal)

    def begin(self) -> None:
        with self._cond:
            self._samples = []
            self._start = time.perf_counter()
            self._cond.notify()

    def end(self) -> list[float]:
        with self._cond:
            self._start = None
            self._cond.notify()
            return self._samples

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join()
