"""Output checks for the benchmark workloads.

Each check returns ``(residual, problems)``: the worst residual it saw and
a list of reasons the output is wrong (empty when it passes).  The checks
recompute their references from first principles (partitions, |R_n|, the
recursive bound) rather than asking the program under test.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

TOL = 1e-9
POWERS = (1, 2, 3)


def partitions(k: int) -> list[tuple[int, ...]]:
    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, cap), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail

    return list(gen(k, k))


def labels(n: int) -> set[tuple[int, ...]]:
    return {shape for k in range(n + 1) for shape in partitions(k)}


def size(n: int) -> int:
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def recursive_bound(n: int) -> int:
    """T(n) <= 2n T(n-1) + 2n^2 |R_n| with T(2) = 49 and T(1) = |R_1|^2."""
    if n <= 1:
        return size(n) ** 2
    bound = 49
    for m in range(3, n + 1):
        bound = 2 * m * bound + 2 * m * m * size(m)
    return bound


def stein_semigroup_bound(n: int) -> float:
    """Sum over k of C(n,k)^2 (2/3)k(k+1)^2 k!, plus 2^n |R_n| for the zeta transform."""
    clausen = sum(comb(n, k) ** 2 * 2 * k * (k + 1) ** 2 * factorial(k) for k in range(n + 1))
    return clausen / 3 + 2**n * size(n)


def _block(rows: list) -> np.ndarray:
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in rows], dtype=complex)


def block_traces(data: dict) -> dict[tuple[int, ...], tuple[float, list[complex]]]:
    """Per label of a transform JSON: (Frobenius norm, [tr(F^p) for p in POWERS])."""
    out = {}
    for entry in data["blocks"]:
        M = _block(entry["rows"])
        traces, P = [], np.eye(M.shape[0], dtype=complex)
        for _ in POWERS:
            P = P @ M
            traces.append(complex(np.trace(P)))
        out[tuple(entry["lambda"])] = (float(np.linalg.norm(M)), traces)
    return out


def check_transform(stein: dict, recursive: dict) -> tuple[float, list[str]]:
    """The stein and recursive block sets are similar, so tr(F^p) agree per label."""
    problems = [
        f"{name}: within_bound is {data.get('within_bound')!r}"
        for name, data in (("stein", stein), ("recursive", recursive))
        if data.get("within_bound") is not True
    ]
    a, b = block_traces(stein), block_traces(recursive)
    want = labels(int(stein["n"]))
    if set(a) != want or set(b) != want:
        problems.append("label sets differ from the partitions of 0..n")
    residual = 0.0
    for shape in set(a) & set(b):
        (na, ta), (nb, tb) = a[shape], b[shape]
        scale = max(na, nb) or 1.0
        for p, x, y in zip(POWERS, ta, tb):
            residual = max(residual, abs(x - y) / scale**p)
    if residual > TOL:
        problems.append(f"block traces differ by {residual:.3e} relative")
    return residual, problems


def check_spectrum(report: dict, n: int, reference: float) -> tuple[float, list[str]]:
    """Parseval: the energies sum to <g,g>_2, and none is negative."""
    problems = []
    energies = {tuple(e["lambda"]): float(e["energy"]) for e in report["labels"]}
    if set(energies) != labels(n) or len(report["labels"]) != len(energies):
        problems.append("labels differ from the partitions of 0..n")
    residual = abs(sum(energies.values()) - reference) / reference
    if residual > TOL:
        problems.append(f"energies sum off <g,g>_2 by {residual:.3e} relative")
    low = [sh for sh, e in energies.items() if e < -TOL * reference]
    if low:
        problems.append(f"negative energy for {low}")
    return residual, problems


def check_convolution(direct: dict, fourier: dict, ops: list[int], n: int) -> tuple[float, list[str]]:
    """Convolution theorem plus inversion round trip: both products agree."""
    problems = []
    scale = max([1.0] + [abs(c) for c in direct.values()])
    residual = max(
        (abs(direct.get(s, 0j) - fourier.get(s, 0j)) for s in direct.keys() | fourier.keys()),
        default=0.0,
    ) / scale
    if residual > TOL:
        problems.append(f"direct and Fourier products differ by {residual:.3e} relative")
    bound = recursive_bound(n)
    problems += [f"recursive_fft used {k} ops > bound {bound}" for k in ops if k > bound]
    return residual, problems
