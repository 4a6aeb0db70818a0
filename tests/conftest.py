import contextlib
import random
import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    # fixed seed: failures must be reproducible across runs
    return random.Random(0x5EED)


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and maps serially, so no worker process starts."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def map(self, fn, items, chunksize=None):
        return [fn(item) for item in items]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of every Pool started, on a machine of 3 CPUs
    (os.cpu_count()) that this process may all run on (os.sched_getaffinity,
    set where the OS has it)."""
    sizes = []
    for module in ("palinradix.palindrome", "palinradix.theorems"):
        monkeypatch.setattr(
            f"{module}.Pool", lambda processes: RecordingPool(sizes, processes)
        )
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return sizes


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager whose block raises
    TimeoutError once it has run that long, so that a search which loses
    its answer fails instead of hanging.  It arms SIGALRM, so it needs a
    POSIX system and the main thread."""

    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
