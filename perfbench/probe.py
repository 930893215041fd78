"""Host speed probe: wall seconds of a fixed pure-Python loop.

    python3 -S perfbench/probe.py

Run in its own interpreter next to every solve, it reads how fast the
host runs Python at that moment. It imports nothing from ``coulomb_hs``,
so no change to the package can change its time. The loop does what the
engine does most: calls, list and dict lookups and small-int arithmetic.
Prints the seconds on one line.
"""

from __future__ import annotations

import time

STEPS = 500_000


def _step(a: int, b: int) -> int:
    return (a * 7 + b) % 101


def probe() -> float:
    table = list(range(64))
    weights = {i: i * i for i in range(32)}
    t0 = time.perf_counter()
    acc = 0
    for i in range(STEPS):
        acc = (acc + _step(table[i & 63], weights.get(i & 31, acc))) & 0xFFFF
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(probe()))
