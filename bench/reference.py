"""A fixed pure-Python workload that measures the machine's current speed.

On the shared 2-vCPU virtual machine the benchmark was defined on, the
speed drifts: one fixed Python loop took from 174 to 279 ms within one
minute, with no steal time reported, and ten runs of the same library
code spread by 7 to 34 % (quartile distance over median) from that
alone.  So short reference chunks run between a round's ops, and the
round's op times are scaled by ``NOMINAL_S / median(chunk times)``:
times are reported at the machine speed where a chunk takes
``NOMINAL_S``.  The reference never calls leavitt, so a change to the
library moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Median chunk time measured on the machine the benchmark was defined on;
# it fixes only the scale of the reported times, not their ratios.
NOMINAL_S = 0.0021

# A chunk runs after every this much op time, and at least once a round.
EVERY_S = 0.05
CHUNK_REPEATS = 27

_KEYS = tuple((i % 17, i % 5, f"v{i % 23}") for i in range(64))


def _work() -> int:
    """Dict, set, tuple and sort work of the kind the library does."""
    acc = 0
    table: dict = {}
    for key in _KEYS:
        table[key] = table.get(key, 0) + 1
    for a, b, name in table:
        acc += len(tuple(sorted({a, b, a * b % 7})))
        acc += len(name)
    return acc


def chunk() -> float:
    """Seconds one reference chunk takes now."""
    t0 = time.perf_counter()
    for _ in range(CHUNK_REPEATS):
        _work()
    return time.perf_counter() - t0


class Scaler:
    """Collects reference chunks during a round and scales its op times."""

    def __init__(self):
        self.chunks: list[float] = []
        self.pending = 0.0
        self.factors: list[float] = []

    def after_op(self, elapsed: float) -> None:
        self.pending += elapsed
        if self.pending >= EVERY_S:
            self.chunks.append(chunk())
            self.pending = 0.0

    def end_round(self) -> float:
        """The round's scale factor; resets the chunks for the next round."""
        if not self.chunks:
            self.chunks.append(chunk())
        factor = NOMINAL_S / statistics.median(self.chunks)
        self.factors.append(factor)
        self.chunks = []
        return factor
