"""One benchmark worker: a fresh process running one workload as a closed loop.

    python3 worker.py SPEC.json RESULT.json

The spec (written by run.py) names the workload, its input files, the time
budget and whether to trace.  One client issues operations back to back;
each operation's output is checked outside the timed region.  The first
operation of the process is the cold one: set-up time runs from just
before ``import rookfft`` to its end.  Warm operations follow until the
budget, which counts from just before the import, is spent, so a slower
set-up leaves less time for warm operations rather than lengthening the
run.  With tracing on, the cold operation and the first half of the warm
time run traced, the second half untraced, so the two can be compared.

After each operation, and around set-up, the worker times a fixed piece of
pure-Python work (``calibrate``) that does not touch the program, so that
run.py can express times in units of the host's current speed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MIN_OPS = 1  # warm operations per phase, however small the budget
CAL_SHARE = 0.1  # calibration time after an operation, as a share of its time
CAL_MIN_S = 0.02  # the least time one calibration runs

_TABLE = [i * 0.25 for i in range(1024)]
_WEIGHTS = {i: 1.0 + i / 97 for i in range(97)}


def _kernel() -> float:
    """Fixed interpreter work: loads, float arithmetic and dict lookups.  It
    allocates no object the garbage collector tracks, so its time does not
    depend on the size of the program's heap."""
    table, weights, acc = _TABLE, _WEIGHTS, 0.0
    for i in range(30000):
        acc += table[i & 1023] * weights[i % 97]
    return acc


def calibrate(at_least: float) -> float:
    """Seconds per repetition of the kernel, timed over at least ``at_least``
    seconds (and at least two repetitions)."""
    reps, t0 = 0, time.perf_counter()
    while True:
        _kernel()
        reps += 1
        elapsed = time.perf_counter() - t0
        if reps >= 2 and elapsed >= at_least:
            return elapsed / reps


def _size(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def _clear(paths) -> None:
    """Remove the last operation's outputs, so a check never reads stale ones."""
    for p in paths:
        p.unlink(missing_ok=True)


class TransformCli:
    """`rookfft transform` twice per operation: stein with --convert, recursive."""

    def __init__(self, spec, out: Path):
        from rookfft import cli

        self.cli = cli
        self.element = spec["files"]["element"]
        self.outputs = {"stein": out / "stein.json", "recursive": out / "recursive.json"}

    def run(self):
        argv = {
            "stein": ["--algorithm", "stein", "--convert"],
            "recursive": ["--algorithm", "recursive"],
        }
        _clear(self.outputs.values())
        return {
            name: self.cli.main(["transform", "--input", self.element, *argv[name],
                                 "--output", str(path)])
            for name, path in self.outputs.items()
        }

    def check(self, codes, tracer, op):
        import checks

        problems = [f"transform --algorithm {k} exited {c}" for k, c in codes.items() if c != 0]
        if problems:
            return 0.0, problems
        data = {k: json.loads(p.read_text()) for k, p in self.outputs.items()}
        residual, found = checks.check_transform(data["stein"], data["recursive"])
        problems += found
        if tracer is not None:
            for name, span in (("stein", "stein_fft_semigroup"), ("recursive", "recursive_fft")):
                traced = tracer.count(op, f"transforms.{span}.multiply_adds")
                if traced is not None and traced != data[name]["ops"]:
                    problems.append(f"traced {span} ops {traced} != CLI ops {data[name]['ops']}")
        return residual, problems

    def output_bytes(self):
        return _size(self.outputs.values())


class SpectrumBallots:
    """`rookfft analyze` once per association model."""

    ASSOCIATIONS = ("groupoid", "semigroup")

    def __init__(self, spec, out: Path):
        from rookfft import cli

        self.cli = cli
        self.n = spec["n"]
        self.ballots = spec["files"]["ballots"]
        self.reference = spec["reference"]
        self.outputs = {a: out / f"spectrum_{a}.json" for a in self.ASSOCIATIONS}

    def run(self):
        _clear(self.outputs.values())
        return {
            a: self.cli.main(["analyze", "--input", self.ballots, "--n", str(self.n),
                              "--association", a, "--output", str(path)])
            for a, path in self.outputs.items()
        }

    def check(self, codes, tracer, op):
        import checks

        problems = [f"analyze --association {a} exited {c}" for a, c in codes.items() if c != 0]
        if problems:
            return 0.0, problems
        residual = 0.0
        for a, path in self.outputs.items():
            r, found = checks.check_spectrum(json.loads(path.read_text()), self.n, self.reference[a])
            residual = max(residual, r)
            problems += [f"{a}: {p}" for p in found]
        return residual, problems

    def output_bytes(self):
        return _size(self.outputs.values())


class ConvolveSparse:
    """A library caller: f∗g directly, and through recursive_fft, product, inverse, Möbius."""

    def __init__(self, spec, out: Path):
        from rookfft import algebra, transforms

        self.algebra, self.transforms = algebra, transforms
        self.n = spec["n"]
        self.f, self.g = (
            algebra.from_json_dict(json.loads(Path(spec["files"][k]).read_text())) for k in "fg"
        )

    def run(self):
        algebra, transforms = self.algebra, self.transforms
        direct = algebra.convolve_semigroup(self.f, self.g)
        F, G = transforms.recursive_fft(self.f), transforms.recursive_fft(self.g)
        product = transforms.blockwise_product(F, G)
        fourier = algebra.to_semigroup(transforms.fourier_invert(product))
        return direct, fourier, [F.ops.multiply_adds, G.ops.multiply_adds]

    def check(self, result, tracer, op):
        import checks

        direct, fourier, ops = result
        return checks.check_convolution(direct.coeffs, fourier.coeffs, ops, self.n)

    def output_bytes(self):
        return 0


WORKLOADS = {
    "transform_cli_n6": TransformCli,
    "spectrum_ballots_n5": SpectrumBallots,
    "convolve_sparse_n5": ConvolveSparse,
}


class Loop:
    """The closed loop: times, checks and tallies each operation."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.residual = 0.0
        self.output_bytes: list[int] = []
        self.op = 0
        self.rep_s = 0.0  # the last calibration, seconds per kernel repetition

    def once(self) -> float:
        op, self.op = self.op, self.op + 1
        root = self.tracer.begin_op(op) if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            result = self.workload.run()
            error = None
        except Exception as exc:  # a raising operation is a failed one, the loop goes on
            result, error = None, f"op {op} raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if root is not None:
            self.tracer.end_op(root)
        self.attempted += 1
        problems = [error] if error else []
        if not problems:
            try:
                residual, problems = self.workload.check(result, self.tracer, op)
                self.residual = max(self.residual, residual)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"op {op} check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += problems[:3]
        self.output_bytes.append(self.workload.output_bytes())
        return elapsed

    def until(self, budget: float) -> list[list[float]]:
        """Warm operations until the budget is spent; stop early rather than overrun
        by more than half an operation.  Each is returned as [its seconds, the
        mean seconds per kernel repetition of the calibrations just before and
        just after it]."""
        times: list[list[float]] = []
        stop = time.perf_counter() + budget
        while len(times) < MIN_OPS or time.perf_counter() + times[-1][0] / 2 < stop:
            elapsed = self.once()
            after = calibrate(max(CAL_MIN_S, CAL_SHARE * elapsed))
            times.append([elapsed, (self.rep_s + after) / 2])
            self.rep_s = after
        return times


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    trace = bool(spec["trace"])

    rep_before = calibrate(0.2)
    t0 = time.perf_counter()
    import rookfft  # noqa: F401  (its import is part of set-up)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    loop = Loop(WORKLOADS[spec["workload"]](spec, out), tracer)
    cold_s = loop.once()
    setup_s = time.perf_counter() - t0
    rep_after = loop.rep_s = calibrate(max(0.2, CAL_SHARE * setup_s))

    budget = max(0.0, float(spec["budget_s"]) - setup_s)
    result = {"setup_s": setup_s, "setup_rep_s": [rep_before, rep_after], "cold_op_s": cold_s}
    if trace:
        result["traced_op_s"] = loop.until(budget / 2)
        tracer.remove()
        loop.tracer = None
        result["untraced_op_s"] = loop.until(budget / 2)
        tracer.dump(out / f"spans-{spec['worker']}.npz")
        result["per_op"] = {str(k): v for k, v in tracer.per_op().items()}
        result["absent"] = tracer.absent
    else:
        result["op_s"] = loop.until(budget)

    import numpy

    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:10],
        residual=loop.residual,
        output_bytes=loop.output_bytes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
