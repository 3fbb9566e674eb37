"""Host-speed calibration: a fixed interpreter workload timed while ops run.

The benchmark runs on shared hosts whose speed drifts by tens of
percent from one minute to the next, and wavers by 10-20% from one
second to the next, in wall time and in CPU time alike.  A run
therefore times a fixed piece of pure-Python work, owned by the
benchmark and independent of the program, every ``PERIOD_S`` seconds
while its ops run: an interval timer interrupts the op, and the signal
handler runs one unit of the work.  The samples' time is taken out of
the op's latency, wall and CPU time, and each op's host times are then
scaled by ``REFERENCE_S`` over the mean unit time of the samples taken
during it, so they read as seconds on a host that runs a unit in
``REFERENCE_S``.  Wall times are scaled by the samples' wall time, CPU
times by their CPU time, so descheduling (wall only) and slower cores
(both) are each corrected where they show.  Where samples taken
during an op would measure the program's own threads rather than the
host (the service workload), the client takes them between ops and
every op is scaled by the run's mean.  The raw figures and the factors
are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time

#: one unit's wall (and CPU) time on the reference host: a 2-vCPU Intel
#: Xeon VM at 2.0 GHz, CPython 3.11, with nothing else running
REFERENCE_S = 0.00375
#: seconds between the samples taken while ops run
PERIOD_S = 0.15


class _Node:
    __slots__ = ("key", "weight", "edges")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight
        self.edges: list[_Node] = []


#: entries of the heap a unit walks: ~5 MB of int objects, past the
#: per-core caches, so that contention for the shared cache and memory
#: slows the samples as it slows the program
HEAP_SIZE = 1 << 17
_HEAP = [value * 7919 + 1000003 for value in range(HEAP_SIZE)]


def unit(seed: int) -> int:
    """A fixed mix of interpreter work: objects, dicts, lists, calls, ints,
    and scattered reads of a heap larger than the per-core caches."""
    nodes = [_Node(i, (i * 2654435761 + seed) & 0xFFFF) for i in range(400)]
    for i, node in enumerate(nodes):
        node.edges = [nodes[(i * 7 + j * 13) % 400] for j in range(4)]
    table: dict[tuple[int, int], int] = {}
    for node in nodes:
        for other in node.edges:
            key = (node.key, other.key & 31)
            table[key] = table.get(key, 0) ^ (node.weight * 31 + other.weight)
    ranked = sorted(table.items(), key=lambda kv: (kv[1] & 1023, kv[0]))
    text = ",".join(str(value) for _, value in ranked[:200])
    index, walked = seed, 0
    for _ in range(4000):
        index = (index * 1103515245 + 12345) & (HEAP_SIZE - 1)
        walked ^= _HEAP[index]
    return len(text) + sum(value & 7 for _, value in ranked) + (walked & 255)


#: what each unit returns, by seed; a unit that differs is broken
RESULTS = (7323, 7224, 7317, 7282, 7121, 7286, 7252, 7091)


class Calibrator:
    """Samples of the calibration work: taken on demand, or by an
    interval timer while ops run (``running``)."""

    def __init__(self) -> None:
        #: (perf_counter at its start, wall seconds, CPU seconds, units)
        self.samples: list[tuple[float, float, float, int]] = []

    def take(self, count: int, units: int = 8) -> None:
        for _ in range(count):
            self.samples.append(sample(units, len(self.samples)))

    def running(self) -> "_Timer":
        return _Timer(self)

    def factors(self, first: int = 0, end: int | None = None
                ) -> tuple[float, float]:
        """(wall, CPU) factors of ``samples[first:end]``, or of every
        sample when that slice is empty."""
        chosen = self.samples[first:end] or self.samples
        if not chosen:
            raise ValueError("no calibration samples")
        units = sum(s[3] for s in chosen)
        return (REFERENCE_S * units / sum(s[1] for s in chosen),
                REFERENCE_S * units / sum(s[2] for s in chosen))

    def spent(self, first: int = 0, end: int | None = None,
              since: float = float("-inf"), until: float = float("inf")
              ) -> tuple[float, float]:
        """(wall, CPU) seconds of ``samples[first:end]`` that started
        within ``[since, until]``."""
        chosen = [s for s in self.samples[first:end] if since <= s[0] <= until]
        return sum(s[1] for s in chosen), sum(s[2] for s in chosen)


class _Timer:
    """Takes a one-unit sample every ``PERIOD_S`` while entered."""

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator

    def _on_alarm(self, signum, frame) -> None:
        self.calibrator.take(1, units=1)

    def __enter__(self) -> "_Timer":
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def sample(units: int, seed: int) -> tuple[float, float, float, int]:
    """Time ``units`` units: (start, wall, CPU seconds, units).  The
    collector is off, so that the garbage the program left behind is not
    collected on the sample's time, and the CPU time is this thread's
    alone, so that the program's own threads do not count in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu = time.perf_counter(), time.thread_time()
        results = [unit((seed + k) % len(RESULTS)) for k in range(units)]
        wall, cpu = time.perf_counter() - start, time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()
    expected = [RESULTS[(seed + k) % len(RESULTS)] for k in range(units)]
    if results != expected:
        raise RuntimeError(f"calibration returned {results}, not {expected}")
    return start, wall, cpu, units
