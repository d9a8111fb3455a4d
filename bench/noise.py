"""Machine-noise reference: CPU time of a fixed pure-Python loop.

    python3 bench/noise.py

The loop does the same work every time, so the spread of its times is the
spread the machine adds to any CPU-bound measurement taken on it.
"""

from __future__ import annotations

import json
import time
from statistics import median

REPEATS = 6
ITERATIONS = 20_000_000


def fixed_loop(iterations: int) -> float:
    start = time.process_time()
    total = 0
    for i in range(iterations):
        total += i & 7
    if total != (iterations // 8) * 28 + sum(range(iterations % 8)):
        raise RuntimeError("fixed loop computed a wrong sum")
    return time.process_time() - start


def main() -> None:
    times = [fixed_loop(ITERATIONS) for _ in range(REPEATS)]
    print(json.dumps({"cpu_s": times, "median": median(times), "spread": (max(times) - min(times)) / median(times)}))


if __name__ == "__main__":
    main()
