#!/usr/bin/env python3
"""Inclusive seconds per span from the spans a traced run wrote.

    python3 perfbench/run.py --workload transform_cli_n6 --trace 1
    python3 perfbench/baseline.py transform_cli_n6 transforms.stein_fft_semigroup transforms.recursive_fft

For each named span, prints its inclusive time (children included) summed
over the cold operation of each worker, and the median over the warm traced
operations.  This is how perfbench/README.md reproduces the ROADMAP's
single-run timings.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def inclusive(path: Path, span: str) -> dict[int, float]:
    """Per operation: summed duration of the outermost calls of the span."""
    a = np.load(path)
    names = list(a["names"])
    ids = [i for i, name in enumerate(names) if name == span]
    mine = np.isin(a["name_id"], ids)
    # a call made directly inside another call of the same span is already counted
    outer = mine & ~np.isin(np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1), ids)
    out: dict[int, float] = {}
    for op, dur in zip(a["op"][outer], (a["end"] - a["start"])[outer]):
        out[int(op)] = out.get(int(op), 0.0) + float(dur)
    return out


def main(workload: str, *spans: str) -> int:
    files = sorted((ROOT / ".perfbench_out" / workload).glob("spans-*.npz"))
    if not files:
        print(f"no spans for {workload}: run it with --trace 1 first", file=sys.stderr)
        return 2
    for span in spans:
        cold, warm = [], []
        for path in files:
            per_op = inclusive(path, span)
            cold.append(per_op.get(0, 0.0))
            warm += [t for op, t in per_op.items() if op > 0]
        print(f"{span}: cold {statistics.median(cold):.3f} s (median of {len(cold)} workers), "
              f"warm {statistics.median(warm) if warm else 0.0:.3f} s ({len(warm)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
