"""Fourier transforms on CR_n: naive oracle, two fast algorithms, inversion.

Three routes to the same block-diagonal image, each instrumented with a
multiply-add counter:

* ``naive_transform`` evaluates Σ f(s)ρ(s) directly and costs exactly
  support × Σ_λ dim(λ)² operations (≤ |R_n|² on full support);
* ``stein_fft`` consumes the groupoid basis and runs one symmetric-group
  FFT per (range, domain) cell, batched per rank over a dense coefficient
  vector, at most Σ_k C(n,k)²·(2/3)k(k+1)²k! ops;
* ``recursive_fft`` consumes the semigroup basis directly, splitting R_n
  into 2n translated copies of R_{n-1} plus a rank-dropping slice, with
  cost T(n) ≤ 2n·T(n-1) + 2n²|R_n| and T(2) ≤ 49.

``fourier_invert`` recovers groupoid-basis coefficients from a complete
block set of either family via f(x) = (1/k!) Σ_{λ⊢k} f^λ tr(f̂(λ)·ρ(⌊x⁻¹⌋)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .algebra import GROUPOID, SEMIGROUP, AlgebraElement, BasisMismatch, to_dense, to_groupoid
from .core import (
    ParseError,
    PartialPermutation,
    enumerate_rn,
    factorize,
    ksubset_index,
    size,
)
from .counting import OpCounter, block_diag, scaled_accumulate
from .indexing import cell_index
from .rook_reps import branch_rn, dim, halverson_rep, labels, stein_rep
from .symmetric import _descend_map, perm_inverse, sn_fft_batch
from .tableaux import Shape, num_standard, partitions

STEIN = "stein"
HALVERSON = "halverson"
FAMILIES = (STEIN, HALVERSON)


@dataclass
class FourierCoefficients:
    """Block-diagonal image of an algebra element: one matrix per label."""

    n: int
    family: str
    blocks: dict[Shape, np.ndarray]
    ops: OpCounter = field(default_factory=OpCounter)

    def block(self, shape: Shape) -> np.ndarray:
        return self.blocks[shape]

    def allclose(self, other: "FourierCoefficients", tol: float = 1e-9) -> bool:
        if self.n != other.n or set(self.blocks) != set(other.blocks):
            return False
        return all(
            np.allclose(self.blocks[sh], other.blocks[sh], rtol=0.0, atol=tol)
            for sh in self.blocks
        )

    def max_abs_diff(self, other: "FourierCoefficients") -> float:
        return max(
            float(np.max(np.abs(self.blocks[sh] - other.blocks[sh]))) if self.blocks[sh].size else 0.0
            for sh in self.blocks
        )

    def __repr__(self) -> str:
        return (
            f"FourierCoefficients(n={self.n}, family={self.family!r}, "
            f"blocks={len(self.blocks)}, ops={self.ops.multiply_adds})"
        )


def _require_basis(f: AlgebraElement, basis: str, what: str) -> None:
    if f.basis != basis:
        raise BasisMismatch(f"{what} takes the {basis} basis, got {f.basis}")


# ---------------------------------------------------------------------------
# Naive oracle
# ---------------------------------------------------------------------------


def naive_transform(f: AlgebraElement, family: str) -> FourierCoefficients:
    """Direct evaluation of every block; the oracle the fast paths must match.

    The halverson family is defined on the semigroup basis, the stein
    family on the groupoid basis; convert first for a cross pairing.
    """
    if family == HALVERSON:
        _require_basis(f, SEMIGROUP, "naive_transform[halverson]")
    elif family == STEIN:
        _require_basis(f, GROUPOID, "naive_transform[stein]")
    else:
        raise ValueError(f"unknown family {family!r}")
    counter = OpCounter()
    n = f.n
    terms = list(f.items())
    blocks: dict[Shape, np.ndarray] = {}
    for shape in labels(n):
        if family == HALVERSON:
            rep = halverson_rep(shape, n)
            images = rep.evaluate
        else:
            rep = stein_rep(shape, n)
            images = rep.eval_groupoid
        acc = np.zeros((rep.dim, rep.dim), dtype=complex)
        for s, c in terms:
            scaled_accumulate(acc, c, images(s), counter)
        blocks[shape] = acc
    return FourierCoefficients(n, family, blocks, counter)


# ---------------------------------------------------------------------------
# Groupoid-basis FFT (block structure over k-subset cells)
# ---------------------------------------------------------------------------


def stein_fft(f: AlgebraElement, counter: OpCounter | None = None) -> FourierCoefficients:
    """FFT of a groupoid-basis element: one batched S_k FFT per rank k.

    The (A,B) cell of the λ-block (λ ⊢ k) is the S_k transform of
    s ↦ f(p_({1..k}→A)·s·p_(B→{1..k})), so the whole transform is
    C(n,k)² independent symmetric-group FFTs for each k, run together as the
    rows of one batch gathered from the dense coefficient vector.
    """
    _require_basis(f, GROUPOID, "stein_fft")
    if counter is None:
        counter = OpCounter()
    n = f.n
    coeffs = to_dense(f)
    blocks: dict[Shape, np.ndarray] = {}
    for k in range(n + 1):
        c = comb(n, k)
        for shape, cells in sn_fft_batch(coeffs[cell_index(n, k)], k, counter).items():
            d = cells.shape[-1]
            blocks[shape] = cells.reshape(c, c, d, d).transpose(0, 2, 1, 3).reshape(c * d, c * d)
    return FourierCoefficients(n, STEIN, blocks, counter)


def stein_fft_semigroup(f: AlgebraElement) -> FourierCoefficients:
    """Semigroup-basis input: zeta transform to the groupoid basis, then FFT.

    The change of basis costs at most 2^n·|R_n| additions on top of the
    groupoid FFT bound.
    """
    _require_basis(f, SEMIGROUP, "stein_fft_semigroup")
    counter = OpCounter()
    g = to_groupoid(f, counter)
    return stein_fft(g, counter)


# ---------------------------------------------------------------------------
# Recursive semigroup-basis FFT down the chain R_n > R_{n-1} > ...
# ---------------------------------------------------------------------------


def recursive_fft(f: AlgebraElement) -> FourierCoefficients:
    """Divide-and-conquer FFT on the semigroup basis, halverson family.

    Every x in R_n falls in exactly one slice: x = T_i·s when x(n) = i,
    x = s·T^i when x sends i to n without using n itself, and x = [n]·s
    when n touches neither side; each slice is a translated copy of
    R_{n-1}.  The 2n subtransforms are reassembled block-diagonally for
    free thanks to chain adaptation, then multiplied by the dense images of
    the generators t_j and [n], each product charged nnz × columns.  Base
    case n ≤ 2 is naive.
    """
    _require_basis(f, SEMIGROUP, "recursive_fft")
    counter = OpCounter()
    blocks = _recursive(dict(f.coeffs), f.n, counter)
    return FourierCoefficients(f.n, HALVERSON, blocks, counter)


def _recursive(
    fd: dict[PartialPermutation, complex], m: int, counter: OpCounter
) -> dict[Shape, np.ndarray]:
    if m <= 2:
        base = naive_transform(AlgebraElement(m, SEMIGROUP, fd), HALVERSON)
        counter.add(base.ops.multiply_adds)
        return base.blocks

    t_buckets: dict[int, dict[PartialPermutation, complex]] = {}
    up_buckets: dict[int, dict[PartialPermutation, complex]] = {}
    link_bucket: dict[PartialPermutation, complex] = {}
    for x, c in fd.items():
        img = x.image
        i = img[m - 1]
        if i != 0:
            # x = T_i·s: undo the row rotation and drop the fixed point m
            vt = _descend_map(i, m)
            key = PartialPermutation(m - 1, tuple(vt[v] if v else 0 for v in img[: m - 1]))
            t_buckets.setdefault(i, {})[key] = c
        elif m in img:
            # x = s·T^i: undo the column rotation (delete the slot hitting n)
            i = img.index(m) + 1
            key = PartialPermutation(m - 1, img[: i - 1] + img[i:m])
            up_buckets.setdefault(i, {})[key] = c
        else:
            # x = [m]·s: m untouched on both sides
            link_bucket[PartialPermutation(m - 1, img[: m - 1])] = c

    sub_t = {i: _recursive(g, m - 1, counter) for i, g in sorted(t_buckets.items())}
    sub_up = {i: _recursive(g, m - 1, counter) for i, g in sorted(up_buckets.items())}
    sub_link = _recursive(link_bucket, m - 1, counter) if link_bucket else None

    slices = len(sub_t) + len(sub_up) + (sub_link is not None)
    out: dict[Shape, np.ndarray] = {}
    for shape in labels(m):
        rep = halverson_rep(shape, m)
        order = branch_rn(shape, m)
        d = rep.dim
        images = rep.transpositions
        acc = np.zeros((d, d), dtype=complex)
        for i, sub in sub_t.items():
            D = block_diag([sub[mu] for mu in order], d)
            for j in range(m, i, -1):
                D = images[j] @ D
                counter.add(int(np.count_nonzero(images[j])) * d)
            acc += D
        if sub_link is not None:
            keep = np.diag(rep.link_image(m))
            acc += keep[:, None] * block_diag([sub_link[mu] for mu in order], d)
            counter.add(int(np.count_nonzero(keep)) * d)
        for i, sub in sub_up.items():
            D = block_diag([sub[mu] for mu in order], d)
            for j in range(m, i, -1):
                D = D @ images[j]
                counter.add(int(np.count_nonzero(images[j])) * d)
            acc += D
        counter.add(max(slices - 1, 0) * d * d)
        out[shape] = acc
    return out


# ---------------------------------------------------------------------------
# Fourier inversion
# ---------------------------------------------------------------------------


def fourier_invert(F: FourierCoefficients) -> AlgebraElement:
    """Recover the groupoid-basis coefficients from a complete block set.

    f(x) = (1/|S_k|) Σ_{λ⊢k} f^λ · tr(f̂(λ)·ρ_λ(⌊x⁻¹⌋)) with k = rk(x);
    works for either family since the trace is similarity-invariant.
    """
    n = F.n
    if F.family not in FAMILIES:
        raise ValueError(f"unknown family {F.family!r}")
    for shape in labels(n):
        if shape not in F.blocks:
            raise ValueError(f"missing block for label {shape}")
        d = dim(shape, n)
        if np.shape(F.blocks[shape]) != (d, d):
            raise ValueError(f"block {shape} should be {d}x{d}")
    coeffs: dict[PartialPermutation, complex] = {}
    for x in enumerate_rn(n):
        k = x.rank
        kfact = factorial(k)
        val = 0j
        if F.family == STEIN:
            ran, y, dom = factorize(x)
            y_inv = perm_inverse(y.image)
            a, b = ksubset_index(ran), ksubset_index(dom)
            for shape in partitions(k):
                rep = stein_rep(shape, n)
                d = rep.base.dim
                cell = F.blocks[shape][a * d : (a + 1) * d, b * d : (b + 1) * d]
                val += d * np.trace(cell @ rep.base.evaluate(y_inv))
        else:
            x_inv = x.inverse()
            for shape in partitions(k):
                rep = halverson_rep(shape, n)
                val += num_standard(shape) * np.trace(F.blocks[shape] @ rep.eval_groupoid(x_inv))
        coeffs[x] = val / kfact
    return AlgebraElement(n, GROUPOID, coeffs)


def blockwise_product(F: FourierCoefficients, G: FourierCoefficients) -> FourierCoefficients:
    """f̂·ĝ per block, the transform-side image of convolution."""
    if F.n != G.n or F.family != G.family:
        raise ValueError("operands disagree in n or family")
    return FourierCoefficients(
        F.n, F.family, {sh: F.blocks[sh] @ G.blocks[sh] for sh in F.blocks}
    )


# ---------------------------------------------------------------------------
# Closed-form operation bounds
# ---------------------------------------------------------------------------


def naive_bound(n: int) -> int:
    """|R_n|² multiply-adds for a full-support naive transform."""
    return size(n) ** 2


def clausen_bound(k: int) -> Fraction:
    """Multiply-add bound (2/3)k(k+1)²k! for the S_k FFT."""
    return Fraction(2 * k * (k + 1) ** 2 * factorial(k), 3)


def stein_bound(n: int) -> Fraction:
    """Σ_k C(n,k)²·(2/3)k(k+1)²k! for the groupoid-basis FFT."""
    return sum(
        (comb(n, k) ** 2 * clausen_bound(k) for k in range(n + 1)), start=Fraction(0)
    )


def stein_semigroup_bound(n: int) -> Fraction:
    """Groupoid FFT bound plus 2^n·|R_n| for the zeta change of basis."""
    return stein_bound(n) + 2**n * size(n)


def recursive_bound(n: int) -> int:
    """T(n) ≤ 2n·T(n-1) + 2n²|R_n| with naive base T(2) = 49, T(1) = 4."""
    if n <= 1:
        return size(n) ** 2
    bound = 49
    for m in range(3, n + 1):
        bound = 2 * m * bound + 2 * m * m * size(m)
    return bound


def bound_for(algorithm: str, n: int):
    table = {
        "naive": naive_bound,
        "stein": stein_bound,
        "stein_semigroup": stein_semigroup_bound,
        "recursive": recursive_bound,
    }
    return table[algorithm](n)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def _matrix_json(M: np.ndarray) -> list:
    return [[{"re": z.real, "im": z.imag} for z in row] for row in np.asarray(M, dtype=complex)]


def _matrix_from_json(rows: list) -> np.ndarray:
    M = np.array(
        [[complex(float(e.get("re", 0.0)), float(e.get("im", 0.0))) for e in row] for row in rows],
        dtype=complex,
    )
    if not np.isfinite(M).all():
        raise ParseError("non-finite matrix entry in block JSON")
    return M


def to_json_dict(F: FourierCoefficients) -> dict:
    data: dict = {"n": F.n, "family": F.family, "ops": F.ops.multiply_adds, "blocks": []}
    for shape in labels(F.n):
        M = F.blocks[shape]
        data["blocks"].append({
            "lambda": list(shape),
            "k": sum(shape),
            "dim": int(M.shape[0]),
            "rows": _matrix_json(M),
        })
    return data


def from_json_dict(data: dict) -> FourierCoefficients:
    try:
        n = int(data["n"])
        family = data["family"]
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        blocks: dict[Shape, np.ndarray] = {}
        for entry in data["blocks"]:
            shape = tuple(int(a) for a in entry["lambda"])
            blocks[shape] = _matrix_from_json(entry["rows"])
        ops = int(data.get("ops", 0))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad block JSON: {exc!r}") from None
    return FourierCoefficients(n, family, blocks, OpCounter(ops))
