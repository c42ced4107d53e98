"""Fourier transforms on CR_n: naive oracle, two fast algorithms, inversion.

Three routes to the same block-diagonal image, each instrumented with a
multiply-add counter:

* ``naive_transform`` evaluates Σ f(s)ρ(s) directly and costs exactly
  support × Σ_λ dim(λ)² operations (≤ |R_n|² on full support);
* ``stein_fft`` consumes the groupoid basis and runs one symmetric-group
  FFT per (range, domain) cell, batched per rank over a dense coefficient
  vector, at most Σ_k C(n,k)²·(2/3)k(k+1)²k! ops;
* ``recursive_fft`` consumes the semigroup basis directly, splitting R_n
  into 2n-1 translated copies of R_{n-1} plus a rank-dropping slice, with
  cost T(n) ≤ 2n·T(n-1) + 2n²|R_n| and T(2) ≤ 49; the recursion runs
  level by level over a dense coefficient vector, every visited node of a
  level at once, and is charged from which nodes the support occupies.
  Within a level each generator image is applied to every label of one
  dimension in one call, a slice at a time; the cached tables it reads
  hold 8 bytes per element of R_m (``_embedding``) and, for the generator
  images, 32 bytes per row of a block per generator (``_group_pairings``).

``fourier_invert`` recovers groupoid-basis coefficients from a complete
block set of either family by running ``stein_fft`` backwards: per rank k
(``invert_rank``), one batched inverse S_k FFT (``sn_ifft_batch``) over the
C(n,k)² cells of every λ ⊢ k, scattered through the same cell table.  A
halverson block set is first taken to the stein family by one similarity
per block (``rook_reps.halverson_similarity``); no element of R_n is
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .algebra import GROUPOID, SEMIGROUP, AlgebraElement, BasisMismatch, from_dense, to_groupoid
from .core import (
    ParseError,
    check_n,
    enumerate_rn,
    generator_word,
    json_complex,
    json_int,
    json_numbers,
    size,
)
from .counting import OpCounter
from .indexing import cell_index, elements_at, slice_index
from .rook_reps import branch_rn, dim, halverson_rep, halverson_similarity, labels, stein_rep
from .symmetric import _coset_costs, sn_fft_batch, sn_ifft_batch
from .tableaux import Shape, num_standard, partitions

STEIN = "stein"
HALVERSON = "halverson"
FAMILIES = (STEIN, HALVERSON)

# a family's image table is cached whole while its reals fit (|R_5|²: 19 MB;
# |R_6|²: 1.4 GB); above that it is built per call, this much at a time
IMAGE_TABLE_BYTES = 32 << 20


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

    Σ_s f(s)·ρ_λ(s) for every λ at once: the coefficients times the image
    table of R_n (``_image_rows``), charged support × |R_n| multiply-adds.

    The halverson family is defined on the semigroup basis, the stein
    family on the groupoid basis; convert first for a cross pairing.
    """
    if family == HALVERSON:
        _require_basis(f, SEMIGROUP, "naive_transform[halverson]")
    elif family == STEIN:
        _require_basis(f, GROUPOID, "naive_transform[stein]")
    else:
        raise ValueError(f"unknown family {family!r}")
    n, values = f.n, f.values
    support = np.flatnonzero(values)
    rows = IMAGE_TABLE_BYTES // (8 * size(n))
    if rows >= size(n):  # zero coefficients add nothing: take the whole table
        parts = [(values, _image_table(family, n))]
    else:  # a chunk of the support's rows at a time
        parts = (
            (values[at], _image_rows(family, n, elements_at(n, at)))
            for at in np.split(support, range(rows, len(support), rows))
        )
    flat = np.zeros(size(n), dtype=complex)
    for c, table in parts:  # real and imaginary parts apart: no complex table
        flat += c.real @ table + 1j * (c.imag @ table)
        del table  # before the next chunk is built
    return FourierCoefficients(n, family, _blocks(n, flat), OpCounter(len(support) * size(n)))


def _image_rows(family: str, n: int, elements) -> np.ndarray:
    """(len(elements), |R_n|) reals: row i holds ρ_λ(elements[i]) for every
    λ ∈ Λ_n, flattened side by side in the order of ``_columns(n)``
    (Σ_λ d_λ² = |R_n|).  Halverson rows are images of the semigroup basis
    (``HalversonRep.evaluate_word``, one generator word per element for all
    labels), stein rows images of the groupoid basis
    (``SteinRep.eval_groupoid``, a canonical factorization)."""
    if family == HALVERSON:
        reps = [halverson_rep(shape, n) for shape in _columns(n)]
        images = ([rep.evaluate_word(w) for rep in reps] for w in map(generator_word, elements))
    else:
        reps = [stein_rep(shape, n) for shape in _columns(n)]
        images = ([rep.eval_groupoid(x) for rep in reps] for x in elements)
    out = np.empty((len(elements), size(n)))
    for row, blocks in zip(out, images):
        np.concatenate([M.ravel() for M in blocks], out=row)
    return out


@cache
def _image_table(family: str, n: int) -> np.ndarray:
    """``_image_rows`` of all of R_n, read-only."""
    out = _image_rows(family, n, enumerate_rn(n))
    out.flags.writeable = False
    return out


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
    blocks: dict[Shape, np.ndarray] = {}
    for k in range(n + 1):
        c = comb(n, k)
        for shape, cells in sn_fft_batch(f.values[cell_index(n, k)], k, counter).items():
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

    Every x in R_m falls in exactly one of 2m slices: x = T_i·s when
    x(m) = i, x = s·T^i when x sends i to m without using m itself, and
    x = [m]·s when m touches neither side; each slice is a translated copy
    of R_{m-1} (``indexing.slice_index``).  The recursion runs level by
    level over all its nodes at once.  A level is one (|R_m| + 1, nodes)
    array: a column holds every block of one node, flattened side by side
    in the order of ``_groups(m)``, and a zero last.  The base nodes are the
    copies of R_2 (R_n itself when n ≤ 2), transformed by one product with
    the naive oracle's table of R_2 (``_image_table``).  At each level m ≥ 3
    the 2m subtransforms of every node are reassembled block-diagonally for
    free thanks to chain adaptation and multiplied by the images of the
    generators t_j and [m] (``_level``).  Only nodes whose part of f holds
    a nonzero are visited.

    Ops are charged from that occupancy, as a recursion over the visited
    nodes alone would spend them: nnz(f)·|R_2| for the base cases, nnz ×
    columns for every generator product of a visited slice, and one
    addition per block entry for every visited slice after a node's first;
    on full support T(n) ≤ 2n·T(n-1) + 2n²|R_n|.
    """
    _require_basis(f, SEMIGROUP, "recursive_fft")
    counter = OpCounter()
    n = f.n
    values = f.values
    support = np.flatnonzero(values)
    # walk each term down the chain: its slice at every level, the top
    # level's as the lowest digit of its node id, and its point of R_2
    nodes, points, weight = np.zeros(len(support), dtype=np.int64), support, 1
    for m in range(n, 2, -1):
        slices, points = slice_index(m)[points].T
        nodes += _digits(m)[slices] * weight
        weight *= 2 * m
    base = min(n, 2)
    nodes, row = np.unique(nodes, return_inverse=True)
    functions = np.zeros((len(nodes), size(base)), dtype=complex)
    functions[row, points] = values[support]
    counter.add(len(support) * size(base))
    product = functions @ _image_table(HALVERSON, base)
    del functions
    level = np.zeros((size(base) + 1, len(nodes)), dtype=complex)
    level[:-1] = product.T
    del product
    for m in range(3, n + 1):
        weight //= 2 * m
        nodes, level = _level(level, nodes, weight, m, counter)
    # the root is the one node left, or none when f = 0
    return FourierCoefficients(n, HALVERSON, _blocks(n, level.sum(axis=1)), counter)


@cache
def _digits(m: int) -> np.ndarray:
    """The digit of each slice of level m in a node id, in the order T_1,
    …, T_m, the link, up_1, …, up_{m-1}.  A node in a slice up_i holds no
    element in a slice T_j of the level below, so with the up slices last,
    the parents of each slice's children are a run on full support."""
    out = np.empty(2 * m, dtype=np.int64)
    out[0::2], out[-1], out[1:-1:2] = np.arange(m), m, m + 1 + np.arange(m - 1)
    out.flags.writeable = False
    return out


@cache
def _groups(m: int) -> tuple[tuple[int, tuple[Shape, ...], int], ...]:
    """The labels of Λ_m grouped by dimension: (d, labels, first column)
    per group, in order of first appearance in ``labels(m)``.  The blocks
    of a group lie side by side in a node's column, so that the group's
    part of a slice is one (L·d, d·children) array, L its number of labels.
    Λ_5 falls into 7 groups, Λ_6 into 13, Λ_7 into 14 and Λ_8 into 25."""
    by_dim: dict[int, list[Shape]] = {}
    for shape in labels(m):
        by_dim.setdefault(dim(shape, m), []).append(shape)
    out, at = [], 0
    for d, shapes in by_dim.items():
        out.append((d, tuple(shapes), at))
        at += len(shapes) * d * d
    return tuple(out)


@cache
def _columns(m: int) -> dict[Shape, int]:
    """Where each label's block starts in a node's column at level m, in
    column order."""
    out = {}
    for d, shapes, at in _groups(m):
        for shape in shapes:
            out[shape] = at
            at += d * d
    return out


def _blocks(m: int, column: np.ndarray) -> dict[Shape, np.ndarray]:
    """The blocks held in one column of Λ_m (``_columns``), as views, in the
    order of ``labels(m)``."""
    blocks = {}
    for d, shapes, at in _groups(m):
        blocks.update(zip(shapes, column[at : at + len(shapes) * d * d].reshape(-1, d, d)))
    return {shape: blocks[shape] for shape in labels(m)}


@cache
def _embedding(m: int) -> np.ndarray:
    """(2, |R_m|) int32 for m ≥ 3, indexed by the entries of a level-m
    column: the entry of a level m-1 column each is read from.  Row 0
    places the branches of every λ ∈ Λ_m (``branch_rn`` order) on the
    diagonal of its block and reads every other entry from the zero at the
    end of the column; row 1 does the same for the transposed blocks."""
    below = _columns(m - 1)
    out = np.empty((2, size(m)), dtype=np.int32)
    for shape, at in _columns(m).items():
        d = dim(shape, m)
        block = np.full((d, d), size(m - 1), dtype=np.int32)
        on = 0
        for mu in branch_rn(shape, m):
            dm = dim(mu, m - 1)
            block[on : on + dm, on : on + dm] = below[mu] + np.arange(dm * dm).reshape(dm, dm)
            on += dm
        out[0, at : at + d * d], out[1, at : at + d * d] = block.ravel(), block.T.ravel()
    out.flags.writeable = False
    return out


@cache
def _slice_costs(m: int) -> np.ndarray:
    """Multiply-adds of one visited slice at level m, summed over λ ∈ Λ_m:
    T_i and up_i (entries 2i-2 and 2i-1) pay what ρ_λ(T_i) does
    (``symmetric._coset_costs``); the link (entry 2m-1) pays nnz·d_λ for [m]."""
    cosets = _coset_costs(labels(m), m)
    costs = np.zeros(2 * m, dtype=np.int64)
    costs[::2] = cosets
    costs[1:-1:2] = cosets[:-1]  # up_i takes the generators of T_i
    for shape in labels(m):
        rep = halverson_rep(shape, m)
        costs[-1] += rep.dim * np.count_nonzero(rep.link_image(m))
    costs.flags.writeable = False
    return costs


def _pairing(shape: Shape, m: int, j: int) -> tuple[np.ndarray, ...]:
    """ρ_λ(t_j) on R_m as a diagonal plus one partner per index: t_j mixes a
    tableau only with the one that swaps j-1 and j, so each row and column
    holds the diagonal entry and at most one more, at the partner.  Returns
    the partners p, the diagonal, M[r, p(r)] and M[p(r), r] (0 where an
    index has no partner)."""
    M = halverson_rep(shape, m).transpositions[j]
    at = np.arange(len(M))
    diagonal = np.diag(M).copy()
    off = M - np.diag(diagonal)
    partner = at.copy()
    rows, cols = np.nonzero(off)
    partner[cols] = rows
    return partner, diagonal, off[at, partner], off[partner, at]


@cache
def _group_pairings(m: int) -> tuple[tuple[np.ndarray, dict], ...]:
    """Per group of ``_groups(m)``, with L labels of dimension d: the
    diagonal of [m] as an (L·d, 1) array, and per j the pairings of
    ρ_λ(t_j) for the L labels side by side, as one (L·d,) partner array and
    one (3, L·d, 1) array of the diagonal, M[r, p(r)] and M[p(r), r], so
    that one call applies ρ_λ(t_j) to every label of the group."""
    out = []
    for d, shapes, _ in _groups(m):
        keep = np.concatenate([np.diag(halverson_rep(shape, m).link_image(m)) for shape in shapes])
        pairs = {}
        for j in range(2, m + 1):
            parts = [_pairing(shape, m, j) for shape in shapes]
            partner = np.concatenate([p[0] + l * d for l, p in enumerate(parts)])
            coefficients = np.array([np.concatenate([p[i] for p in parts]) for i in (1, 2, 3)])
            pairs[j] = (partner, coefficients[:, :, None])
        out.append((keep[:, None], pairs))
        for a in (keep, *(a for pair in pairs.values() for a in pair)):
            a.flags.writeable = False
    return tuple(out)


def _level(
    below: np.ndarray, nodes: np.ndarray, weight: int, m: int, counter: OpCounter
) -> tuple[np.ndarray, np.ndarray]:
    """One level of recursive_fft: the visited nodes of level m-1 and their
    columns of R_{m-1} blocks → the visited nodes of level m and their
    columns of R_m blocks.  A node id is digit·weight + parent, the digit
    that of its slice (``_digits``), so sorted ids list the children slice
    by slice, each slice in the order of its parents.

    A slice and a group of labels of one dimension d (``_groups``) at a
    time: one gather (``_embedding``) places the subtransforms of all the
    slice's children on the block diagonals of the group's L labels, as an
    (L·d, d·children) array.  On it, ρ_λ(t_j) for all L labels is one
    gather of partner rows, two products and a sum, the same
    diag·x + off·x[partner] per entry as a product by one label's matrix
    (``_group_pairings``); the products run on the real and imaginary parts
    apart, as every coefficient is real.  The generators t_m, …, t_{i+1} go
    in that order, and the part is added into the parents before the next
    group starts.  A slice up_i, whose blocks are multiplied on the right,
    is gathered transposed, so that X·ρ(t_j) = (ρ(t_j)ᵀ·Xᵀ)ᵀ is a product
    on the left too, and added back transposed.  The slices are taken in
    slice order, so each parent sums its children in that order.
    """
    digits, parent = np.divmod(nodes, weight)
    nodes, column = np.unique(parent, return_inverse=True)
    slices = np.argsort(_digits(m))[digits]
    counter.add(int(_slice_costs(m)[slices].sum()) + (len(slices) - len(nodes)) * size(m))
    starts = np.searchsorted(digits, np.arange(2 * m + 1))
    embedding = _embedding(m)
    out = np.zeros((size(m) + 1, len(nodes)), dtype=complex)
    for k, digit in enumerate(_digits(m)):
        span = slice(starts[digit], starts[digit + 1])
        parents = column[span]
        if not len(parents):
            continue
        if parents[-1] - parents[0] == len(parents) - 1:  # ascending: a run is a slice
            parents = slice(parents[0], parents[-1] + 1)
        right = k % 2 == 1 and k < 2 * m - 1
        children = np.ascontiguousarray(below[:, span])  # else each take copies it
        for (d, shapes, at), (keep, pairs) in zip(_groups(m), _group_pairings(m)):
            width = len(shapes) * d * d
            part = children.take(embedding[int(right), at : at + width], axis=0)
            part = part.reshape(len(shapes) * d, -1)
            real = part.view(float)
            for j in range(m, k // 2 + 1, -1):  # T_m and the link take no generator
                partner, (diagonal, row_off, col_off) = pairs[j]
                swapped = part.take(partner, axis=0).view(float)
                swapped *= col_off if right else row_off
                real *= diagonal
                real += swapped
            if k == 2 * m - 1:
                real *= keep
            part = part.reshape(len(shapes), d, d, -1)
            sums = out[at : at + width].reshape(len(shapes), d, d, -1)
            sums[..., parents] += part.transpose(0, 2, 1, 3) if right else part
    return nodes, out


# ---------------------------------------------------------------------------
# Fourier inversion
# ---------------------------------------------------------------------------


def fourier_invert(F: FourierCoefficients) -> AlgebraElement:
    """Recover the groupoid-basis coefficients from a complete block set.

    The inverse of ``stein_fft``, rank by rank (``invert_rank``).
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
    values = np.zeros(size(n), dtype=complex)
    for k in range(n + 1):
        values[cell_index(n, k)] = invert_rank(F, k)
    return from_dense(n, GROUPOID, values)


def invert_rank(F: FourierCoefficients, k: int) -> np.ndarray:
    """The groupoid-basis coefficients of the rank-k elements of R_n, in
    ``cell_index(n, k)`` order, from the blocks of the labels λ ⊢ k alone.

    Each λ-block is cut into its C(n,k)² cells of d_λ×d_λ, and
    ``sn_ifft_batch`` inverts them all as one batch of S_k transforms.  A
    halverson block F̂ is first taken to its stein block U⁻¹·F̂·U by the
    similarity U = ``halverson_similarity(λ, n)``.
    """
    n, c = F.n, comb(F.n, k)
    cells = {}
    for shape in partitions(k):
        block = np.asarray(F.blocks[shape], dtype=complex)
        if F.family == HALVERSON:
            U = halverson_similarity(shape, n)
            block = np.linalg.solve(U, block @ U)
        d = num_standard(shape)
        cells[shape] = block.reshape(c, d, c, d).transpose(0, 2, 1, 3).reshape(c * c, d, d)
    return sn_ifft_batch(cells, k)


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


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def _matrix_json(M: np.ndarray) -> list:
    """Rows of {"re", "im"} objects holding plain floats (``tolist``)."""
    M = np.asarray(M, dtype=complex)
    return [
        [{"re": re, "im": im} for re, im in zip(real, imag)]
        for real, imag in zip(M.real.tolist(), M.imag.tolist())
    ]


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
    """Block JSON → FourierCoefficients.  Every ``lambda`` part and ``ops``
    must be a JSON integer, and every label a member of Λ_n, given once;
    whether each label of Λ_n is present is ``fourier_invert``'s check."""
    try:
        n = json_int(data["n"], "n")
        check_n(n)
        family = data["family"]
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        known = set(labels(n))
        blocks: dict[Shape, np.ndarray] = {}
        for entry in data["blocks"]:
            shape = tuple(json_int(a, "lambda part") for a in entry["lambda"])
            if shape not in known:
                raise ParseError(f"lambda {list(shape)} is not a label of R_{n}")
            if shape in blocks:
                raise ParseError(f"lambda {list(shape)} given twice")
            blocks[shape] = _json_block(entry["rows"])
        ops = json_int(data.get("ops", 0), "ops")
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"bad block JSON: {exc!r}") from None
    if ops < 0:
        raise ParseError(f"ops must be nonnegative, got {ops}")
    return FourierCoefficients(n, family, blocks, OpCounter(ops))


def _json_block(rows) -> np.ndarray:
    """One block's ``rows`` as a complex array.  Rows of one length, all of
    {"re", "im"} objects, have their ``re`` and ``im`` checked as two whole
    lists (``json_numbers``).  Anything else, or any entry refused there,
    goes entry by entry through ``json_complex``, which words the first
    refused entry as it always has."""
    if type(rows) is list and rows and all(type(r) is list and len(r) == len(rows[0])
                                           for r in rows):
        entries = [e for row in rows for e in row]
        if all(type(e) is dict for e in entries):
            real, refused_re = json_numbers([e.get("re", 0.0) for e in entries])
            imag, refused_im = json_numbers([e.get("im", 0.0) for e in entries])
            if not (refused_re.any() or refused_im.any()):
                block = np.empty(len(entries), dtype=complex)
                block.real, block.imag = real, imag
                return block.reshape(len(rows), -1)
    return np.array([[json_complex(e) for e in row] for row in rows], dtype=complex)
