"""Wall time, multiply-adds and peak memory of the fast transforms and of
Fourier inversion on full-support inputs, and of the naive oracle.

    PYTHONPATH=src python3 scripts/bench_fft.py

For each n ≤ MAX_N, two seeded full-support coefficient vectors become
elements through ``from_dense`` (semigroup and groupoid basis), so no n needs
``enumerate_rn``.  The semigroup element goes through ``to_groupoid``,
``stein_fft_semigroup`` and ``recursive_fft``, whose halverson block set
``fourier_invert`` then inverts (``round_trip_residual`` is the largest
modulus of that inverse minus ``to_groupoid`` of the element);
the groupoid element goes through ``stein_fft``, whose stein block set
``fourier_invert`` inverts too.
Each element is also convolved with itself (``convolve_semigroup``,
``convolve_groupoid``).  Last, the groupoid element becomes its element JSON
in-process (``to_json_dict``, as the CLI would load it from a file) and
``from_json_dict`` parses it back; ``parse_peak_mb`` is the tracemalloc peak
of one more, traced, parse, and ``recursive_peak_mb`` that of one more
``recursive_fft`` call.
Each call runs once, timed as the cold call (caches and tables are built
there), then REPEATS times timed; the minimum warm wall time is reported with
the call's multiply-adds (inversion counts none).  ``from_dense`` is one timed
call per element.  Each row also reports the process's peak RSS so far
(``ru_maxrss``), which the row's own n dominates.
Last, ``naive_transform`` runs in both families for each n ≤ NAIVE_MAX_N,
halverson on the semigroup element and stein on the groupoid one, timed
like the rest (the cold call builds the image tables) with its
multiply-adds and the tracemalloc peak of one more call.  Up to n = 5 the
elements have full support; from n = 6 on each keeps NAIVE_SPARSE_TERMS[n]
of its terms, a seeded choice.  Prints one JSON object.
Run it against two checkouts to compare them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
import tracemalloc

import numpy as np

from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    convolve_groupoid,
    convolve_semigroup,
    from_dense,
    from_json_dict,
    to_groupoid,
    to_json_dict,
)
from rookfft.core import size
from rookfft.counting import OpCounter
from rookfft.transforms import (
    HALVERSON,
    STEIN,
    fourier_invert,
    naive_transform,
    recursive_fft,
    stein_fft,
    stein_fft_semigroup,
)

MAX_N = 8
NAIVE_MAX_N = 7
NAIVE_SPARSE_TERMS = {6: 400, 7: 40}
REPEATS = 3
SEED = 0


def _min_time(fn, *args):
    """Wall time of one cold call, the minimum of REPEATS warm calls after
    it, and the last call's result."""
    t0 = time.perf_counter()
    out = fn(*args)
    cold = time.perf_counter() - t0
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return cold, best, out


def _traced_peak_mb(fn, *args) -> float:
    """tracemalloc peak of one more call, in MB, its result dropped."""
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 2**20, 2)


def _element(n: int, basis: str, seed: int):
    """A full-support element with seeded uniform coefficients, and the
    seconds its from_dense call took."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, size(n)) + 1j * rng.uniform(-1, 1, size(n))
    t0 = time.perf_counter()
    f = from_dense(n, basis, values)
    return f, time.perf_counter() - t0


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


def _row(n: int) -> dict:
    seconds, cold, multiply_adds = {}, {}, {}
    f, seconds["from_dense"] = _element(n, SEMIGROUP, SEED + n)
    cold["to_groupoid"], seconds["to_groupoid"], g = _min_time(to_groupoid, f)
    multiply_adds["to_groupoid"] = _zeta_ops(f)
    for name, fn in [("stein_fft_semigroup", stein_fft_semigroup),
                     ("recursive_fft", recursive_fft)]:
        cold[name], seconds[name], F = _min_time(fn, f)
        multiply_adds[name] = F.ops.multiply_adds
    name = "fourier_invert_halverson"  # F is recursive_fft's halverson block set
    cold[name], seconds[name], back = _min_time(fourier_invert, F)
    residual = float(np.abs(back.values - g.values).max(initial=0.0))
    del F, back, g
    recursive_peak_mb = _traced_peak_mb(recursive_fft, f)
    cold["convolve_semigroup"], seconds["convolve_semigroup"], _ = _min_time(
        convolve_semigroup, f, f
    )
    del f  # free the semigroup side before the groupoid element is built
    g, _ = _element(n, GROUPOID, SEED + 100 + n)
    cold["stein_fft"], seconds["stein_fft"], F = _min_time(stein_fft, g)
    multiply_adds["stein_fft"] = F.ops.multiply_adds
    cold["fourier_invert_stein"], seconds["fourier_invert_stein"], _ = _min_time(fourier_invert, F)
    del F
    cold["convolve_groupoid"], seconds["convolve_groupoid"], _ = _min_time(
        convolve_groupoid, g, g
    )
    data = to_json_dict(g)
    del g
    cold["from_json_dict"], seconds["from_json_dict"], _ = _min_time(from_json_dict, data)
    parse_peak_mb = _traced_peak_mb(from_json_dict, data)
    del data
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"n": n, "size": size(n), "seconds": seconds, "cold_seconds": cold,
            "multiply_adds": multiply_adds, "round_trip_residual": residual,
            "recursive_peak_mb": recursive_peak_mb, "parse_peak_mb": parse_peak_mb,
            "peak_rss_mb": round(peak_mb, 1)}


def _naive_row(n: int) -> dict:
    seconds, cold, multiply_adds, peak_mb = {}, {}, {}, {}
    for family, basis, seed in [(HALVERSON, SEMIGROUP, SEED + n), (STEIN, GROUPOID, SEED + 100 + n)]:
        f, _ = _element(n, basis, seed)
        if n in NAIVE_SPARSE_TERMS:
            keep = np.random.default_rng(seed).choice(size(n), NAIVE_SPARSE_TERMS[n], replace=False)
            values = np.zeros(size(n), dtype=complex)
            values[keep] = f.values[keep]
            f = from_dense(n, basis, values)
        cold[family], seconds[family], F = _min_time(naive_transform, f, family)
        multiply_adds[family] = F.ops.multiply_adds
        peak_mb[family] = _traced_peak_mb(naive_transform, f, family)
    return {"n": n, "support": f.support(), "seconds": seconds, "cold_seconds": cold,
            "multiply_adds": multiply_adds, "peak_mb": peak_mb}


def main() -> None:
    rows = [_row(n) for n in range(1, MAX_N + 1)]
    naive = [_naive_row(n) for n in range(1, NAIVE_MAX_N + 1)]
    machine = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps({"repeats": REPEATS, "seed": SEED, "machine": machine,
                      "rows": rows, "naive": naive}, indent=2))


if __name__ == "__main__":
    main()
