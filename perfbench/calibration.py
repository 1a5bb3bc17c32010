"""A fixed piece of pure-Python work that gauges the machine's speed.

The small VMs this benchmark runs on change speed for tens of seconds
at a time, by about 20% either way (README.md, "Speed modes").  A run
takes a calibration sample between ops, and reports every time rescaled
to a machine on which one sample takes ``REFERENCE_S``.  The work here
is of the kind the package does: small objects, attribute reads,
tuples, dicts and int bit operations, through Python function calls.
It is part of the benchmark, so no change to the package moves it.
"""

import time

REFERENCE_S = 0.008  # about the mean sample on the 2-core VM described in README.md


class _Pair:
    __slots__ = ("key", "bits")

    def __init__(self, key: int, bits: int):
        self.key = key
        self.bits = bits


def _step(table: dict, pair: _Pair) -> int:
    table[pair.key] = table.get(pair.key, 0) | pair.bits
    return len((pair.key, pair.bits)) + (pair.bits & ~pair.key & 0xFF)


def _work(n: int = 10_000) -> int:
    table: dict = {}
    total = 0
    for i in range(n):
        total += _step(table, _Pair(i & 31, i ^ (i >> 3)))
    return total + len(table)


def sample() -> float:
    """Seconds one run of the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
