#!/usr/bin/env python3
"""The rookfft benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload's inputs are
generated from the seed, then WORKERS fresh single-threaded processes run
it one after another, each as a closed loop with one client, sharing the
measuring time, set-up included.  Times are reported in reference seconds,
scaled by a calibration kernel timed between operations.  With --trace 0
the end-to-end metrics are printed; with --trace 1 the per-layer spans and
counts.  Without --workload all three workloads run.  The last line of
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import COLD_SPANS, COUNT_NAMES, SPANS  # noqa: E402

WORKLOADS = ("transform_cli_n6", "spectrum_ballots_n5", "convolve_sparse_n5")
WORKERS = 2
DEADLINE_S = 170.0  # per workload: its workers are stopped by then
BLOCK_S = 2.0  # op_s is a median over runs of consecutive warm operations this long
REF_REP_S = 0.004  # times are reported for a host on which one calibration repetition takes this
MAX_RANK = 6  # the largest n of any workload, for the per-rank support facts
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run at all (no source, a worker died)."""


def worker_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ROOKFFT_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    return env


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_notes(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: "1" for var in THREAD_VARS} | {"ROOKFFT_THREADS": "unset"},
        "commit": commit(),
    }


def run_workers(workload: str, seed: int, seconds: float, trace: bool, stop: float) -> dict:
    out = ROOT / ".perfbench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    spec = gen.write_inputs(workload, seed, out / "inputs")
    spec.update(workload=workload, trace=int(trace), out=str(out), budget_s=seconds / WORKERS)
    results = []
    for w in range(WORKERS):
        spec["worker"] = w
        spec_path, result_path = out / f"spec-{w}.json", out / f"result-{w}.json"
        spec_path.write_text(json.dumps(spec))
        with open(out / f"worker-{w}.log", "w") as log:
            try:
                done = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                    cwd=ROOT, env=worker_env(out / "tmp"), stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, stop - time.monotonic()),
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload}: worker {w} did not finish in time") from None
        if done.returncode != 0 or not result_path.exists():
            tail = (out / f"worker-{w}.log").read_text()[-2000:]
            raise BenchError(f"{workload}: worker {w} exited {done.returncode}\n{tail}")
        results.append(json.loads(result_path.read_text()))
    return {"spec": spec, "workers": results}


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has 10 samples beyond it ({n} samples)"
    ordered = sorted(samples)
    return f"p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.6f} s ({n} samples)"


def in_reference_s(seconds: float, rep_s: float) -> float:
    """A time measured while one calibration repetition took ``rep_s`` seconds,
    expressed in seconds of the reference host (one repetition in REF_REP_S)."""
    return seconds / rep_s * REF_REP_S


def block_means(ops: list[list[float]], span: float = BLOCK_S) -> list[float]:
    """Mean operation time, in reference seconds, over runs of consecutive
    operations lasting at least ``span`` wall seconds; a shorter remainder
    joins the last run.  Each operation is [seconds, rep_s], as worker.py
    records it.

    The host's CPU speed drifts by up to about 1.8x over seconds to minutes,
    with CPU time tracking wall time, and the program's operations slow down
    with it.  A fixed kernel timed between operations slows down in step, so
    an operation's time over the kernel's (before and after it) is steady
    where its wall time is not; the mean over a couple of seconds evens out
    the short kernel timings.  Operations longer than ``span`` are their
    own runs.
    """
    runs: list[list[list[float]]] = []
    current: list[list[float]] = []
    for op in ops:
        current.append(op)
        if sum(t for t, _ in current) >= span:
            runs.append(current)
            current = []
    if current:
        if runs:
            runs[-1] += current
        else:
            runs.append(current)
    return [statistics.fmean(in_reference_s(t, rep) for t, rep in r) for r in runs]


def end_to_end(run: dict) -> tuple[dict, list[str]]:
    workers = run["workers"]
    ops = [t for w in workers for t, _ in w["op_s"]]
    reps = [rep for w in workers for _, rep in w["op_s"]]
    blocks = [b for w in workers for b in block_means(w["op_s"])]
    setups = [in_reference_s(w["setup_s"], statistics.fmean(w["setup_rep_s"])) for w in workers]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "op_s": (statistics.median(blocks), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }
    notes = [
        f"op_s over {len(blocks)} runs of {BLOCK_S} s, in reference seconds "
        f"(calibration repetition {REF_REP_S * 1e3:g} ms)",
        f"as measured: per-operation median {statistics.median(ops):.6f} s, set-up median "
        f"{statistics.median(w['setup_s'] for w in workers):.6f} s, calibration repetition "
        f"median {statistics.median(reps) * 1e3:.4f} ms",
        f"op_s tail (as measured): {percentile_note(ops)}",
        f"failed_frac = {failed / attempted} ratio ({failed} of {attempted} operations)",
    ]
    return metrics, notes


def per_layer(run: dict) -> tuple[dict, list[str]]:
    workers, spec = run["workers"], run["spec"]
    warm = [op for w in workers for k, op in w["per_op"].items() if k != "0"]
    cold = [w["per_op"]["0"] for w in workers]

    def med(values):
        return statistics.median(values) if values else 0.0

    def span(ops, name, field):
        return med([op["spans"].get(name, [0.0, 0])[field] for op in ops])

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = (span(warm, name, 0), "s")
        metrics[f"{name}.calls"] = (span(warm, name, 1), "count")
    for name in COLD_SPANS:
        metrics[f"{name}.cold_self_s"] = (span(cold, name, 0), "s")
        metrics[f"{name}.cold_calls"] = (span(cold, name, 1), "count")
    for name in COUNT_NAMES:
        unit = "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (med([op["counts"].get(name, 0) for op in warm]), unit)
    metrics["cli.output_bytes"] = (med([b for w in workers for b in w["output_bytes"][1:]]), "B")
    traced = med([in_reference_s(*op) for w in workers for op in w["traced_op_s"]])
    untraced = med([in_reference_s(*op) for w in workers for op in w["untraced_op_s"]])
    metrics["trace.overhead"] = (traced / untraced - 1.0, "ratio")
    metrics["trace.coverage"] = (med([1.0 - op["root_self_s"] / op["wall_s"] for op in warm]), "ratio")
    metrics["check.residual"] = (max(w["residual"] for w in workers), "ratio")
    facts = spec["facts"]
    metrics["input.support"] = (facts["support"], "count")
    metrics["input.bytes"] = (facts["bytes"], "B")
    by_rank = facts["support_by_rank"] + [0] * (MAX_RANK + 1 - len(facts["support_by_rank"]))
    for k, count in enumerate(by_rank):
        metrics[f"input.support.k{k}"] = (count, "count")
    absent = sorted(set().union(*(w["absent"] for w in workers)))
    notes = [f"absent spans (reported as 0): {', '.join(absent)}"] if absent else []
    notes.append(f"traced op_s {traced:.6f} s, untraced op_s {untraced:.6f} s (reference seconds)")
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, stop: float) -> dict:
    run = run_workers(workload, seed, seconds, trace, stop)
    workers = run["workers"]
    metrics, notes = (per_layer if trace else end_to_end)(run)
    problems = [p for w in workers for p in w["problems"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "problems": problems[:10],
        "facts": run["spec"]["facts"],
        "machine": machine_notes(workers[0]["numpy"]),
    }
    (ROOT / ".perfbench_out" / workload / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def report(summary: dict) -> None:
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']}, trace {summary['trace']}): "
          f"{summary['attempted']} operations, {summary['failed']} failed")
    for key, m in summary["metrics"].items():
        print(f"  {key} = {m['value']} {m['unit']}")
    for note in summary["notes"]:
        print(f"  {note}")
    facts = summary["facts"]
    print(f"  input: support {facts['support']}, by rank {facts['support_by_rank']}, "
          f"{facts['bytes']} bytes")
    print(f"  machine: {json.dumps(summary['machine'])}")
    for problem in summary["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM exit through Python, so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "rookfft" / "__init__.py").is_file():
        print(f"perfbench: no rookfft source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        summaries = [
            run_workload(w, args.seed, args.seconds, bool(args.trace), time.monotonic() + DEADLINE_S)
            for w in names
        ]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        report(summary)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
