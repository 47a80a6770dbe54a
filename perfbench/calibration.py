"""Machine-speed calibration: a fixed pure-Python loop timed during a run.

The benchmark runs on shared machines whose speed drifts by tens of percent
in phases of seconds to minutes.  Every workload therefore interleaves
calls of :func:`sample` with its timed work and reports every time
scaled to a nominal machine speed by the samples taken around it::

    scaled = measured × NOMINAL_S / median(samples within ±WINDOW_S)

The machine's speed also flips within a second, so samples are short and
dense: ide-edit takes one after every read and every edit, the other
workloads a burst of ``BURST`` at each break in their work.

The loop exercises what the analysis does most (object allocation,
attribute access, dicts, sets, int arithmetic, small strings, a sort) and
never touches the program under test, so a change to the program cannot
move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import Iterable, List, Sequence, Tuple

# Nodes the loop inserts into its tree.
LOOP_NODES = 1500
# The loop's typical time on the machine the benchmark was tuned on: scaled
# times read as seconds on that machine.
NOMINAL_S = 0.0017
# Samples within this many seconds of a timing scale it.  The speed holds
# for some hundreds of milliseconds at a time, so a window this narrow
# follows it where a 5 s one averaged fast and slow spells together.
WINDOW_S = 1.0
# Fewest samples a scaling uses when the window holds fewer.
MIN_SAMPLES = 5
# Samples per call of sample() at a break between pieces of work.
BURST = 6

# (time.perf_counter() when taken, seconds the loop took)
Sample = Tuple[float, float]


class _Node:
    __slots__ = ("key", "left", "right", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.left = None
        self.right = None
        self.weight = weight


def _work(count: int = LOOP_NODES) -> int:
    root = _Node(500, 0)
    for index in range(count):
        key = (index * 7919) % 1000
        node = root
        while True:
            if key < node.key:
                if node.left is None:
                    node.left = _Node(key, index)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(key, index)
                    break
                node = node.right
    table = {}
    seen = set()
    stack = [root]
    total = 0
    while stack:
        node = stack.pop()
        table[f"n{node.key}"] = node.weight
        seen.add(node.key | (node.weight << 10))
        total += node.weight & 0xFF
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    rows = sorted(table.items(), key=lambda item: item[1])
    return total + len(rows) + len(seen)


def sample(samples: List[Sample], count: int = BURST) -> None:
    """Run the fixed loop ``count`` times, appending when and how long.

    The collector is off during the loop: a sample taken inside a process
    that holds the program's heap would otherwise time collections of that
    heap too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            started = time.perf_counter()
            _work()
            samples.append((started, time.perf_counter() - started))
    finally:
        if enabled:
            gc.enable()


def spent(samples: Sequence[Sample]) -> float:
    """Seconds the samples themselves took (to leave out of a wall time)."""
    return sum(seconds for _, seconds in samples)


def factor(samples: Sequence[Sample]) -> float:
    """One factor for a whole run: nominal over the median of its samples."""
    return NOMINAL_S / statistics.median(seconds for _, seconds in samples)


class Scaler:
    """Scales each timing by the samples taken within ±WINDOW_S of it."""

    def __init__(self, samples: Sequence[Sample]):
        ordered = sorted(samples)
        self.times = [taken for taken, _ in ordered]
        self.seconds = [seconds for _, seconds in ordered]

    def factor_at(self, when: float) -> float:
        low = bisect.bisect_left(self.times, when - WINDOW_S)
        high = bisect.bisect_right(self.times, when + WINDOW_S)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, when)
            low = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            high = low + MIN_SAMPLES
        return NOMINAL_S / statistics.median(self.seconds[low:high])

    def scale(self, timed: Iterable[Tuple[float, float]]) -> List[float]:
        """``(when, value)`` timings → values at the nominal speed."""
        return [value * self.factor_at(when) for when, value in timed]
