"""Wall time, multiply-adds and peak memory of the fast transforms and of
Fourier inversion on full-support inputs, and of the naive oracle.

    PYTHONPATH=src python3 scripts/bench_fft.py

For each n ≤ MAX_N, two seeded full-support coefficient vectors become
elements through ``from_dense`` (semigroup and groupoid basis), so no n needs
``enumerate_rn``.  The semigroup element goes through ``to_groupoid``
(whose image goes back through ``to_semigroup``), ``stein_fft_semigroup``
and ``recursive_fft``, whose block set ``fourier_invert`` then
inverts (``round_trip_residual`` is the largest
modulus of that inverse minus ``to_groupoid`` of the element);
the groupoid element goes through ``stein_fft``, whose block set
``fourier_invert`` inverts too, and through ``spectrum``.
Each element is also convolved with itself (``convolve_semigroup``,
``convolve_groupoid``).  Last, the groupoid element becomes its element JSON
in-process (``to_json_dict``, as the CLI would load it from a file) and
``from_json_dict`` parses it back; ``parse_peak_mb`` is the tracemalloc peak
of one more, traced, parse, and ``recursive_peak_mb`` that of one more
``recursive_fft`` call.  ``recursive_kept_mb`` is the tracemalloc memory a
fresh process keeps after its first ``recursive_fft`` call on the same
element, the tables that call caches (``KEPT_PROBE``).  The flat forms of
that JSON also go through ``core.read_flat`` alone (timed like the rest;
``read_flat_peak_mb`` is its tracemalloc peak), and ``from_flat_seconds``
is the time per call of ``PartialPermutation.from_flat`` on one term, the
element's last flat form (rank n), the minimum over MIN_CALLS loops of
FROM_FLAT_CALLS calls.
Each call runs once, timed as the cold call (caches and tables are built
there), then warm until the warm calls have taken WARM_S seconds or made
WARM_CALLS calls, and never fewer than MIN_CALLS; the minimum warm wall
time is reported with the call's multiply-adds (inversion counts none).
Right before and right after the warm calls, perfbench's calibration kernel (``worker.calibrate``)
is timed for CAL_S seconds, and ``reference_seconds`` is the warm time
scaled by the mean of the two, in the reference seconds perfbench reports
(``run.in_reference_s``), so that two runs minutes apart compare.
``from_dense`` is one timed call per element.  Each row also reports the
process's peak RSS so far (``ru_maxrss``), which the row's own n dominates.
``recursive_level_seconds`` holds, per level m above the codelet, the
minimum over MIN_CALLS warm ``recursive_fft`` calls of the time spent in
that level's ``transforms._level`` call (``_level_seconds`` wraps it).
``half_rank`` times ``recursive_fft`` the same way on a seeded n = 5
semigroup element that holds half of the elements of each rank (a seeded
choice), the sparse library-caller size, and ``one_term`` on a one-term
element of R_ONE_TERM_N at a seeded position.
``zeta`` holds, for each n in ZETA_NS, two fresh processes
(``ZETA_PROBE``) that each make one ``to_groupoid`` call on a one-term
semigroup element: ``cold_seconds`` is the untraced call's wall time, the
tables built, and ``kept_mb`` the tracemalloc memory the traced call keeps,
the tables it caches (the zeta steps and the cell layout they index).
Last, ``naive_transform`` runs in both bases for each n ≤ NAIVE_MAX_N,
on the semigroup element and on the groupoid one, timed
like the rest (the cold call builds the image tables) with its
multiply-adds and the tracemalloc peak of one more call.  Up to n = 5 the
elements have full support; from n = 6 on each keeps NAIVE_SPARSE_TERMS[n]
of its terms, a seeded choice.
Then, for each n in CLI_NS, the command line runs in-process
(``cli.main``, timed like the rest, its output to a file in a temporary
directory) on the semigroup element's JSON: ``transform --algorithm stein
--convert`` and ``transform --algorithm recursive``, and ``invert`` on the
JSON of its ``stein_fft_semigroup`` block set, and ``analyze`` under each
association on a ballot CSV of BALLOT_VOTERS seeded ballots, one row per
voter with count 1 (``_ballots``).  Both JSON files are written by the
standard library's ``json.dumps`` and the CSV by its ``csv`` module, so two
checkouts read the same bytes; each row reports their sizes and those of
the outputs.  For each n in FRESH_NS the row's ``fresh`` field times the
two transforms and ``invert`` once more each, every one in a fresh
process (``CLI_PROBE``, which runs ``python -m rookfft`` as its one child):
its wall time, start-up and tables included, and its peak RSS
(``RUSAGE_CHILDREN``).
Prints one JSON object.  Run it against two checkouts to compare them.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import in_reference_s  # noqa: E402
from worker import calibrate  # noqa: E402

from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    convolve_groupoid,
    convolve_semigroup,
    from_dense,
    from_json_dict,
    to_groupoid,
    to_json_dict,
    to_semigroup,
)
from rookfft import cli, transforms
from rookfft.core import PartialPermutation, read_flat, size
from rookfft.counting import OpCounter
from rookfft.indexing import cell_index
from rookfft.spectral import spectrum
from rookfft.transforms import (
    fourier_invert,
    naive_transform,
    recursive_fft,
    stein_fft,
    stein_fft_semigroup,
    to_json_dict as blocks_to_json,
)

MAX_N = 8
NAIVE_MAX_N = 7
NAIVE_SPARSE_TERMS = {6: 400, 7: 40}
CLI_NS = (6, 7, 8)
BALLOT_VOTERS = 20_000
WARM_S = 0.2
WARM_CALLS = 15
MIN_CALLS = 3
CAL_S = 0.2
HALF_RANK_N = 5
ONE_TERM_N = 8
FROM_FLAT_CALLS = 2000
SEED = 0
ZETA_NS = (6, 7, 8)
FRESH_NS = (8,)
FRESH_COMMANDS = ("transform_stein", "transform_recursive", "invert")

# run as ``python -c KEPT_PROBE n seed``: prints the bytes tracemalloc still
# holds after one recursive_fft call on _element(n, SEMIGROUP, seed)
KEPT_PROBE = """
import gc, sys, tracemalloc
import numpy as np
from rookfft.algebra import SEMIGROUP, from_dense
from rookfft.core import size
from rookfft.transforms import recursive_fft
n, seed = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(seed)
f = from_dense(n, SEMIGROUP, rng.uniform(-1, 1, size(n)) + 1j * rng.uniform(-1, 1, size(n)))
gc.collect()
tracemalloc.start()
recursive_fft(f)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""

# run as ``python -c ZETA_PROBE n trace``: one to_groupoid call on a one-term
# semigroup element of R_n, in a process that has built no table; prints its
# seconds and, with trace 1, the bytes tracemalloc still holds after it
ZETA_PROBE = """
import gc, json, sys, time, tracemalloc
from rookfft.algebra import SEMIGROUP, AlgebraElement, to_groupoid
from rookfft.core import PartialPermutation
n, trace = int(sys.argv[1]), sys.argv[2] == "1"
f = AlgebraElement(n, SEMIGROUP, {PartialPermutation.from_pairs(n, [(1, 3), (2, 5), (n, n)]): 1.0})
gc.collect()
if trace:
    tracemalloc.start()
t0 = time.perf_counter()
g = to_groupoid(f)
seconds = time.perf_counter() - t0
del g
gc.collect()
print(json.dumps({"seconds": seconds, "kept": tracemalloc.get_traced_memory()[0]}))
"""


# run as ``python -c CLI_PROBE args...``: runs ``python -m rookfft args...``
# as its one child and prints the child's exit code, wall time and peak RSS
CLI_PROBE = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run([sys.executable, "-m", "rookfft", *sys.argv[1:]], stdout=subprocess.DEVNULL).returncode
seconds = time.perf_counter() - t0
peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
print(json.dumps({"code": code, "seconds": seconds, "peak_rss_mb": peak_kib / 1024}))
"""


class _Clock:
    """The timed calls of one row: per name, the wall time of one cold call
    (``cold``), the minimum of the warm calls after it (``seconds``: until
    they took WARM_S or made WARM_CALLS calls, at least MIN_CALLS) and that
    minimum in reference seconds (``reference``), from the calibration
    kernel timed right before and right after the warm calls."""

    def __init__(self):
        self.cold, self.seconds, self.reference = {}, {}, {}

    def time(self, name: str, fn, *args):
        """Time fn(*args) under name; returns the last call's result."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.cold[name] = time.perf_counter() - t0
        before = calibrate(CAL_S)
        best, calls, spent = float("inf"), 0, 0.0
        while calls < MIN_CALLS or (spent < WARM_S and calls < WARM_CALLS):
            t0 = time.perf_counter()
            out = fn(*args)
            took = time.perf_counter() - t0
            best, calls, spent = min(best, took), calls + 1, spent + took
        after = calibrate(CAL_S)
        self.seconds[name] = best
        self.reference[name] = in_reference_s(best, (before + after) / 2)
        return out

    def fields(self) -> dict:
        return {"seconds": self.seconds, "cold_seconds": self.cold,
                "reference_seconds": self.reference}


def _traced_peak_mb(fn, *args) -> float:
    """tracemalloc peak of one more call, in MB, its result dropped."""
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 2**20, 2)


def _recursive_kept_mb(n: int, seed: int) -> float:
    """``KEPT_PROBE`` in a fresh process with this one's environment, so
    that it imports the same rookfft, in MB."""
    out = subprocess.run([sys.executable, "-c", KEPT_PROBE, str(n), str(seed)], check=True,
                         capture_output=True, text=True).stdout
    return round(int(out) / 2**20, 2)


def _zeta_row(n: int) -> dict:
    """``ZETA_PROBE`` at n in two fresh processes with this one's
    environment, untraced and traced."""
    cold, kept = (
        json.loads(subprocess.run([sys.executable, "-c", ZETA_PROBE, str(n), trace], check=True,
                                  capture_output=True, text=True).stdout)
        for trace in ("0", "1")
    )
    return {"n": n, "cold_seconds": cold["seconds"], "kept_mb": round(kept["kept"] / 2**20, 2)}


def _fresh_cli(argv: list[str]) -> dict:
    """``CLI_PROBE`` on argv in a fresh process with this one's environment,
    so that it runs the same rookfft."""
    probe = json.loads(subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], check=True,
                                      capture_output=True, text=True).stdout)
    if probe["code"] != 0:
        raise SystemExit(f"rookfft {' '.join(argv)} exited {probe['code']}")
    return {"seconds": probe["seconds"], "peak_rss_mb": round(probe["peak_rss_mb"], 1)}


def _from_flat_seconds(n: int, text: str) -> float:
    """Seconds per ``from_flat`` call on one term: the minimum over MIN_CALLS
    loops of FROM_FLAT_CALLS calls."""
    best = float("inf")
    for _ in range(MIN_CALLS):
        t0 = time.perf_counter()
        for _ in range(FROM_FLAT_CALLS):
            PartialPermutation.from_flat(n, text)
        best = min(best, time.perf_counter() - t0)
    return best / FROM_FLAT_CALLS


def _element(n: int, basis: str, seed: int):
    """A full-support element with seeded uniform coefficients, and the
    seconds its from_dense call took."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, size(n)) + 1j * rng.uniform(-1, 1, size(n))
    t0 = time.perf_counter()
    f = from_dense(n, basis, values)
    return f, time.perf_counter() - t0


def _level_seconds(f) -> dict[int, float]:
    """Per level m, the minimum over MIN_CALLS warm ``recursive_fft`` calls
    on f of the seconds its ``transforms._level`` call took."""
    inner, seconds = transforms._level, {}

    def timed(below, nodes, weight, m, counter):
        t0 = time.perf_counter()
        out = inner(below, nodes, weight, m, counter)
        seconds[m] = min(seconds.get(m, float("inf")), time.perf_counter() - t0)
        return out

    recursive_fft(f)  # the tables are built outside the timed calls
    transforms._level = timed
    try:
        for _ in range(MIN_CALLS):
            recursive_fft(f)
    finally:
        transforms._level = inner
    return seconds


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
    clock, multiply_adds = _Clock(), {}
    f, clock.seconds["from_dense"] = _element(n, SEMIGROUP, SEED + n)
    g = clock.time("to_groupoid", to_groupoid, f)
    clock.time("to_semigroup", to_semigroup, g)
    multiply_adds["to_groupoid"] = _zeta_ops(f)
    for name, fn in [("stein_fft_semigroup", stein_fft_semigroup),
                     ("recursive_fft", recursive_fft)]:
        F = clock.time(name, fn, f)
        multiply_adds[name] = F.ops.multiply_adds
    # F is recursive_fft's block set
    back = clock.time("fourier_invert_recursive", fourier_invert, F)
    residual = float(np.abs(back.values - g.values).max(initial=0.0))
    del F, back, g
    recursive_level_seconds = _level_seconds(f)
    recursive_peak_mb = _traced_peak_mb(recursive_fft, f)
    recursive_kept_mb = _recursive_kept_mb(n, SEED + n)
    clock.time("convolve_semigroup", convolve_semigroup, f, f)
    del f  # free the semigroup side before the groupoid element is built
    g, _ = _element(n, GROUPOID, SEED + 100 + n)
    F = clock.time("stein_fft", stein_fft, g)
    multiply_adds["stein_fft"] = F.ops.multiply_adds
    clock.time("fourier_invert_stein", fourier_invert, F)
    del F
    clock.time("spectrum", spectrum, g)
    clock.time("convolve_groupoid", convolve_groupoid, g, g)
    data = to_json_dict(g)
    del g
    clock.time("from_json_dict", from_json_dict, data)
    parse_peak_mb = _traced_peak_mb(from_json_dict, data)
    texts = [term["elem"] for term in data["terms"]]
    del data
    clock.time("read_flat", read_flat, texts)
    read_flat_peak_mb = _traced_peak_mb(read_flat, texts)
    from_flat_seconds = _from_flat_seconds(n, texts[-1])
    del texts
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"n": n, "size": size(n), **clock.fields(),
            "multiply_adds": multiply_adds, "round_trip_residual": residual,
            "recursive_level_seconds": recursive_level_seconds,
            "recursive_peak_mb": recursive_peak_mb, "recursive_kept_mb": recursive_kept_mb,
            "parse_peak_mb": parse_peak_mb,
            "read_flat_peak_mb": read_flat_peak_mb, "from_flat_seconds": from_flat_seconds,
            "peak_rss_mb": round(peak_mb, 1)}


def _half_rank_row() -> dict:
    """recursive_fft on a seeded semigroup element of R_HALF_RANK_N holding
    half of the elements of each rank, rounded down."""
    n = HALF_RANK_N
    full, _ = _element(n, SEMIGROUP, SEED + 200 + n)
    rng = np.random.default_rng(SEED + 200 + n)
    values = np.zeros(size(n), dtype=complex)
    for k in range(n + 1):
        at = np.sort(cell_index(n, k).ravel())
        keep = rng.choice(at, len(at) // 2, replace=False)
        values[keep] = full.values[keep]
    f = from_dense(n, SEMIGROUP, values)
    clock = _Clock()
    F = clock.time("recursive_fft", recursive_fft, f)
    return {"n": n, "support": f.support(), **clock.fields(),
            "multiply_adds": {"recursive_fft": F.ops.multiply_adds}}


def _one_term_row() -> dict:
    """recursive_fft on a one-term semigroup element of R_ONE_TERM_N, its
    term at a seeded position with a seeded coefficient."""
    n = ONE_TERM_N
    rng = np.random.default_rng(SEED + 300 + n)
    values = np.zeros(size(n), dtype=complex)
    values[rng.integers(size(n))] = complex(*rng.uniform(-1, 1, 2))
    clock = _Clock()
    F = clock.time("recursive_fft", recursive_fft, from_dense(n, SEMIGROUP, values))
    return {"n": n, **clock.fields(), "multiply_adds": {"recursive_fft": F.ops.multiply_adds}}


def _naive_row(n: int) -> dict:
    clock, multiply_adds, peak_mb = _Clock(), {}, {}
    for basis, seed in [(SEMIGROUP, SEED + n), (GROUPOID, SEED + 100 + n)]:
        f, _ = _element(n, basis, seed)
        if n in NAIVE_SPARSE_TERMS:
            keep = np.random.default_rng(seed).choice(size(n), NAIVE_SPARSE_TERMS[n], replace=False)
            values = np.zeros(size(n), dtype=complex)
            values[keep] = f.values[keep]
            f = from_dense(n, basis, values)
        F = clock.time(basis, naive_transform, f)
        multiply_adds[basis] = F.ops.multiply_adds
        peak_mb[basis] = _traced_peak_mb(naive_transform, f)
    return {"n": n, "support": f.support(), **clock.fields(),
            "multiply_adds": multiply_adds, "peak_mb": peak_mb}


def _ballots(n: int, path: Path) -> None:
    """BALLOT_VOTERS seeded ballots on n candidates, one CSV row each: a
    voter ranks a uniform number 0..n of them, drawn uniformly."""
    rng = random.Random(SEED + n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ballot", "count"])
        for _ in range(BALLOT_VOTERS):
            ranked = rng.sample(range(1, n + 1), rng.randint(0, n))
            ballot = sorted((c, position) for position, c in enumerate(ranked, start=1))
            writer.writerow([";".join(f"{c}->{position}" for c, position in ballot), 1])


def _cli_row(n: int, tmp: Path) -> dict:
    f, _ = _element(n, SEMIGROUP, SEED + n)
    element, blocks, ballots = tmp / "element.json", tmp / "blocks.json", tmp / "ballots.csv"
    element.write_text(json.dumps(to_json_dict(f)), encoding="utf-8")
    blocks.write_text(json.dumps(blocks_to_json(stein_fft_semigroup(f))), encoding="utf-8")
    del f
    _ballots(n, ballots)
    commands = {
        "transform_stein": ["transform", "--input", str(element), "--algorithm", "stein",
                            "--convert"],
        "transform_recursive": ["transform", "--input", str(element), "--algorithm", "recursive"],
        "invert": ["invert", "--input", str(blocks)],
        "analyze_groupoid": ["analyze", "--input", str(ballots), "--association", GROUPOID],
        "analyze_semigroup": ["analyze", "--input", str(ballots), "--association", SEMIGROUP],
    }
    clock, output_bytes = _Clock(), {}
    for name, argv in commands.items():
        output = tmp / f"{name}.out"
        code = clock.time(name, cli.main, [*argv, "--output", str(output)])
        if code != 0:
            raise SystemExit(f"rookfft {' '.join(argv)} exited {code}")
        output_bytes[name] = output.stat().st_size
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    input_bytes = {"element": element.stat().st_size, "blocks": blocks.stat().st_size,
                   "ballots": ballots.stat().st_size}
    row = {"n": n, "input_bytes": input_bytes, "output_bytes": output_bytes, **clock.fields(),
           "peak_rss_mb": round(peak_mb, 1)}
    if n in FRESH_NS:
        row["fresh"] = {name: _fresh_cli([*commands[name], "--output", str(tmp / f"{name}.fresh")])
                        for name in FRESH_COMMANDS}
    return row


def main() -> None:
    rows = [_row(n) for n in range(1, MAX_N + 1)]
    half_rank = _half_rank_row()
    one_term = _one_term_row()
    naive = [_naive_row(n) for n in range(1, NAIVE_MAX_N + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        cli_rows = [_cli_row(n, Path(tmp)) for n in CLI_NS]
    machine = {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    timing = {"warm_s": WARM_S, "warm_calls": WARM_CALLS, "min_calls": MIN_CALLS}
    print(json.dumps({"timing": timing, "seed": SEED, "machine": machine, "rows": rows,
                      "zeta": [_zeta_row(n) for n in ZETA_NS], "half_rank": half_rank,
                      "one_term": one_term,
                      "naive": naive, "cli": cli_rows}, indent=2))


if __name__ == "__main__":
    main()
