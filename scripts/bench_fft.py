"""Wall time and multiply-adds of the fast transforms on full-support inputs.

    PYTHONPATH=src python3 scripts/bench_fft.py

For each n ≤ MAX_N, one seeded full-support element of R_n per basis goes
through ``to_groupoid``, ``stein_fft``, ``stein_fft_semigroup`` and
``recursive_fft``.  Each call runs once untimed, so caches and tables are
built, then REPEATS times timed; the minimum wall time is reported with the
call's multiply-adds.  Prints one JSON object.  Run it against two
checkouts to compare them.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time

import numpy as np

from rookfft.algebra import GROUPOID, SEMIGROUP, random_element, to_groupoid
from rookfft.core import size
from rookfft.counting import OpCounter
from rookfft.transforms import recursive_fft, stein_fft, stein_fft_semigroup

MAX_N = 7
REPEATS = 3
SEED = 0


def _min_time(fn, arg):
    """Minimum wall time of REPEATS calls after one untimed call, and the
    last call's result."""
    out = fn(arg)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _zeta_ops(f) -> int:
    counter = OpCounter()
    to_groupoid(f, counter)
    return counter.multiply_adds


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    rows = []
    for n in range(1, MAX_N + 1):
        f = random_element(n, SEMIGROUP, random.Random(SEED + n))
        g = random_element(n, GROUPOID, random.Random(SEED + 100 + n))
        seconds = {"to_groupoid": _min_time(to_groupoid, f)[0]}
        multiply_adds = {"to_groupoid": _zeta_ops(f)}
        for name, fn, arg in (("stein_fft", stein_fft, g),
                              ("stein_fft_semigroup", stein_fft_semigroup, f),
                              ("recursive_fft", recursive_fft, f)):
            seconds[name], F = _min_time(fn, arg)
            multiply_adds[name] = F.ops.multiply_adds
        rows.append({"n": n, "size": size(n), "seconds": seconds,
                     "multiply_adds": multiply_adds})
    machine = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps({"repeats": REPEATS, "seed": SEED, "machine": machine,
                      "rows": rows}, indent=2))


if __name__ == "__main__":
    main()
