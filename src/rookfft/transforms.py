"""Fourier transforms on CR_n: naive oracle, two fast algorithms, inversion.

Three routes to the same block-diagonal image, each instrumented with a
multiply-add counter:

* ``naive_transform`` evaluates Σ f(s)ρ(s) directly and costs exactly
  support × Σ_λ dim(λ)² operations (≤ |R_n|² on full support);
* ``stein_fft`` consumes the groupoid basis and runs one symmetric-group
  FFT per (range, domain) cell, batched per rank over a dense coefficient
  vector, at most Σ_k C(n,k)²·(2/3)k(k+1)²k! ops; each rank's batch
  starts with one product by a cached table of S_5's point masses, or of
  S_k's for k < 5, which is the whole S_k FFT for k ≤ 5
  (``symmetric.sn_fft_batch``), charged the recursion's count though the
  product does more arithmetic;
* ``recursive_fft`` consumes the semigroup basis directly, splitting R_n
  into 2n-1 translated copies of R_{n-1} plus a rank-dropping slice, with
  cost T(n) ≤ 2n·T(n-1) + 2n²|R_n| and T(2) ≤ 49; the recursion runs
  level by level over a dense coefficient vector, every visited node of a
  level at once, and is charged from which nodes the support occupies.
  It starts from copies of R_4, each transformed by one product with a
  cached table of R_4's point masses (``_codelet``).  Above R_4, within a
  level a slice is multiplied by one cached run of generator images
  ρ(t_{i+1})···ρ(t_m) per group of labels of one dimension, in one matmul
  (``symmetric.coset_runs``, which the S_k FFT's levels read too);
  every ρ(t_j) is a symmetric involution (Young's orthogonal form), so
  T_i and up_i share that run.  The cached tables hold 8 bytes per
  element of R_m (``_embedding``), 8·(m-1) for the runs (``_runs``) and
  8·|R_4|² for the codelet: 1.06 MB over the levels of n = 6 (0.59 MB of
  runs, 0.35 MB of codelet) and 100 MB at n = 8.

``fourier_invert`` recovers groupoid-basis coefficients from a complete
block set of either family by running ``stein_fft`` backwards: per rank k
(``invert_rank``), one batched inverse S_k FFT (``sn_ifft_batch``) over the
C(n,k)² cells of every λ ⊢ k, scattered through the same cell table; its
levels above S_5 run backwards on the transposed runs, and one product
with the inverse of the S_5 table, the forward table transposed and
weighted by d_λ/5!, finishes each rank.  A halverson block set is first
taken to the stein family block by block; the similarity is a permutation
of the tableaux, so each block is one gather F̂[p][:, p]
(``rook_reps.halverson_permutation``), with no multiply-adds, and no
element of R_n is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import chain
from math import comb, factorial

import numpy as np

from .algebra import GROUPOID, SEMIGROUP, AlgebraElement, BasisMismatch, from_dense, to_groupoid
from .core import (
    ParseError,
    check_n,
    enumerate_rn,
    generator_word,
    json_complex,
    json_fields,
    json_int,
    json_numbers,
    size,
)
from .counting import OpCounter
from .indexing import cell_index, elements_at, slice_index
from .rook_reps import branch_rn, dim, halverson_permutation, halverson_rep, labels, stein_rep
from .symmetric import _coset_costs, coset_runs, sn_fft_batch, sn_ifft_batch
from .tableaux import Shape, num_standard, partitions

STEIN = "stein"
HALVERSON = "halverson"
FAMILIES = (STEIN, HALVERSON)

# a family's image table is cached whole while its reals fit (|R_5|²: 19 MB;
# |R_6|²: 1.4 GB); above that it is built per call, this much at a time
IMAGE_TABLE_BYTES = 32 << 20

# recursive_fft starts from R_4 (``_codelet``), the largest base that pays:
# from R_5 (a 19 MB table) n = 8 would spend 12.8 G multiply-adds in it
CODELET = 4


@dataclass
class FourierCoefficients:
    """Block-diagonal image of an algebra element: one matrix per label."""

    n: int
    family: str
    blocks: dict[Shape, np.ndarray]
    ops: OpCounter = field(default_factory=OpCounter)

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
    in the order of ``_groups(m)``, and a zero last.  At each level m ≥ 3
    the 2m subtransforms of every node are reassembled block-diagonally for
    free thanks to chain adaptation and multiplied by the image of the
    slice's coset word ρ(t_{i+1})···ρ(t_m), or of [m] (``_level``).  Only
    nodes whose part of f holds a nonzero are visited.  Every ρ(t_j) is
    symmetric (Young's orthogonal form), so that a slice T_i and a slice
    up_i take one cached run (``_runs``).  The blocks agree with a product
    by one generator image at a time to within 1e-12 of the largest entry.

    The recursion starts from the copies of R_b, b = min(n, ``CODELET``):
    the nodes of level b are transformed by one real product with a cached
    (|R_b|, |R_b|) table (``_codelet``), which holds what the base of R_2
    and the levels 3..b give for each point mass of R_b; for n ≤ 2 it is
    the naive oracle's image table.

    Ops are charged from that occupancy, as a recursion over the visited
    nodes alone would spend them: nnz(f)·|R_2| for the base cases of R_2,
    nnz × columns for every sparse generator product of a visited slice
    (whatever dense kernel carries it out, ``counting``), and one addition
    per block entry for every visited slice after a node's first; on full
    support T(n) ≤ 2n·T(n-1) + 2n²|R_n|.  The walk still goes down to R_2
    so that the levels below R_b are charged from their nodes' ids alone
    (``_charge_codelet``).  The codelet product does more arithmetic than
    it is charged: |R_4|² = 43,681 multiply-adds per real part of a full
    R_4 node against the 8,487 the recursion charges it, as level 8's dense
    runs do more than their sparse count.
    """
    _require_basis(f, SEMIGROUP, "recursive_fft")
    counter = OpCounter()
    n = f.n
    values = f.values
    support = np.flatnonzero(values)
    b = min(n, CODELET)
    # walk each term down to R_b: its slice at every level as a digit of its
    # node id, the top level's lowest, and its point of R_b
    nodes = np.zeros(len(support), dtype=np.int64)
    nodes, points, weight = _walk(nodes, support, 1, n, b)
    _charge_codelet(nodes, points, weight, b, counter)
    nodes, row = np.unique(nodes, return_inverse=True)
    functions = np.zeros((size(b), len(nodes)), dtype=complex)
    functions[points, row] = values[support]
    level = np.empty((size(b) + 1, len(nodes)), dtype=complex)
    level[-1] = 0
    np.matmul(_codelet(b), functions.view(float), out=level[:-1].view(float))
    del functions
    for m in range(b + 1, n + 1):
        weight //= 2 * m
        nodes, level = _level(level, nodes, weight, m, counter)
    # the root is the one node left, or none when f = 0
    root = level.sum(axis=1)
    return FourierCoefficients(n, HALVERSON, _blocks(n, root), counter)


def _walk(
    nodes: np.ndarray, points: np.ndarray, weight: int, top: int, bottom: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Each point of R_top down the chain to R_bottom: at every level m from
    top down to bottom + 1, its slice's digit (``_digits``) is added to its
    node id at the weight of that level, and the point becomes its point in
    the slice (``indexing.slice_index``).  Returns the node ids, the points
    of R_bottom and the weight of the level below."""
    for m in range(top, bottom, -1):
        slices, points = slice_index(m)[points].T
        nodes = nodes + _digits(m)[slices] * weight
        weight *= 2 * m
    return nodes, points, weight


def _charge_codelet(
    nodes: np.ndarray, points: np.ndarray, weight: int, b: int, counter: OpCounter
) -> None:
    """Charge what the recursion below the R_b nodes would spend, from node
    ids alone: the walk goes on down to R_2, each term pays |R_2| at the
    base, and each level m = 3..b pays as ``_level`` charges it
    (``_visit``)."""
    nodes, _, weight = _walk(nodes, points, weight, b, 2)
    counter.add(len(nodes) * size(min(b, 2)))
    # a bare np.unique imports numpy.ma, which the process would keep
    nodes = np.unique(nodes, return_inverse=True)[0]
    for m in range(3, b + 1):
        weight //= 2 * m
        _, nodes, _ = _visit(nodes, weight, m, counter)


@cache
def _codelet(b: int) -> np.ndarray:
    """(|R_b|, |R_b|) reals for b ≤ ``CODELET``, read-only: column x holds
    the blocks of the point mass at x ∈ R_b, side by side in the order of ``_columns(b)``, so that the transform of any
    function on R_b is one product with it.  For b ≤ 2 this is the naive
    oracle's image table of R_b (``_image_table``), transposed.  Above, it
    is the recursion of ``recursive_fft`` run on all |R_b| point masses as
    one batch, each point mass's index the lowest digit of its node ids:
    the walk down to R_2, the image table of R_2 and ``_level`` for
    m = 3..b.  R_4's table is 349 KB."""
    points = np.arange(size(b))
    nodes, points, weight = _walk(points, points, size(b), b, 2)
    nodes, row = np.unique(nodes, return_inverse=True)
    base = min(b, 2)
    functions = np.zeros((len(nodes), size(base)))
    functions[row, points] = 1.0
    level = np.zeros((size(base) + 1, len(nodes)), dtype=complex)
    level[:-1] = (functions @ _image_table(HALVERSON, base)).T
    for m in range(3, b + 1):
        weight //= 2 * m
        nodes, level = _level(level, nodes, weight, m, OpCounter())
    out = np.ascontiguousarray(level[:-1].real)
    out.flags.writeable = False
    return out


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
        costs[-1] += rep.dim * np.count_nonzero(rep.link(m))
    costs.flags.writeable = False
    return costs


@cache
def _runs(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per group of ``_groups(m)``, with L labels of dimension d: the
    diagonal of [m] as an (L, d, 1) array, and the (m-1, L, d, d) runs
    A_i = ρ(t_{i+1})···ρ(t_m) of its labels, built by ``symmetric.coset_runs``, which the S_k FFT reads too.  The runs
    take 8·|R_m|·(m-1) bytes: 0.53 MB at m = 6, 6.3 MB at m = 7, 81 MB at
    m = 8.  Read-only."""
    out = []
    for d, shapes, _ in _groups(m):
        reps = [halverson_rep(shape, m) for shape in shapes]
        keep = np.concatenate([rep.link(m) for rep in reps]).reshape(-1, d, 1)
        runs = coset_runs(reps)
        keep.flags.writeable = runs.flags.writeable = False
        out.append((keep, runs))
    return tuple(out)


def _visit(
    nodes: np.ndarray, weight: int, m: int, counter: OpCounter
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The visited nodes of level m-1 → their slice digits, the visited
    nodes of level m and each child's column among them, charging the
    level: each visited slice its ``_slice_costs``, and one addition per
    block entry for every visited slice after a node's first."""
    digits, parent = np.divmod(nodes, weight)
    nodes, column = np.unique(parent, return_inverse=True)
    slices = np.argsort(_digits(m))[digits]
    counter.add(int(_slice_costs(m)[slices].sum()) + (len(slices) - len(nodes)) * size(m))
    return digits, nodes, column


def _level(
    below: np.ndarray, nodes: np.ndarray, weight: int, m: int, counter: OpCounter
) -> tuple[np.ndarray, np.ndarray]:
    """One level of recursive_fft: the visited nodes of level m-1 and their
    columns of R_{m-1} blocks → the visited nodes of level m and their
    columns of R_m blocks.  A node id is
    digit·weight + parent, the digit that of its slice (``_digits``), so
    sorted ids list the children slice by slice, each slice in the order of
    its parents.

    A slice and a group of labels of one dimension d (``_groups``) at a
    time: one gather (``_embedding``) places the subtransforms of all the
    slice's children on the block diagonals of the group's L labels, as an
    (L, d, d·children) array.  A slice T_i (i < m) is then one product by
    the run A_i of every label (``_runs``), on the real and imaginary parts
    side by side, as every coefficient is real; T_m takes none, and the
    link is masked with the image of [m].  A slice up_i, whose blocks are
    multiplied on the right by A_i⁻¹ = A_iᵀ (each ρ(t_j) is a symmetric
    involution), is gathered transposed, so that
    X·A_iᵀ = (A_i·Xᵀ)ᵀ is the same product on the left, and added back
    transposed.  The slices are taken in slice order, so each parent sums
    its children in that order.
    """
    digits, nodes, column = _visit(nodes, weight, m, counter)
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
        i = k // 2 + 1  # T_i or up_i
        children = np.ascontiguousarray(below[:, span])  # else each take copies it
        for (d, shapes, at), (keep, runs) in zip(_groups(m), _runs(m)):
            width = len(shapes) * d * d
            part = children.take(embedding[int(right), at : at + width], axis=0)
            part = part.reshape(len(shapes), d, -1)
            if k == 2 * m - 1:
                part *= keep
            elif i < m:
                part = np.matmul(runs[i - 1], part.view(float)).view(complex)
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
    halverson block F̂ is first taken to its stein block U⁻¹·F̂·U =
    F̂[p][:, p], for U the permutation matrix of p =
    ``halverson_permutation(λ, n)``.
    """
    n, c = F.n, comb(F.n, k)
    cells = {}
    for shape in partitions(k):
        block = np.asarray(F.blocks[shape], dtype=complex)
        if F.family == HALVERSON:
            p = halverson_permutation(shape, n)
            block = block[p][:, p]
        d = num_standard(shape)
        cells[shape] = block.reshape(c, d, c, d).transpose(0, 2, 1, 3).reshape(c * c, d, d)
    return sn_ifft_batch(cells, k)


def blockwise_product(F: FourierCoefficients, G: FourierCoefficients) -> FourierCoefficients:
    """f̂·ĝ per block, the transform-side image of convolution.  Both operands
    hold the same labels."""
    if F.n != G.n or F.family != G.family:
        raise ValueError("operands disagree in n or family")
    for shape in [*F.blocks, *G.blocks]:
        if shape not in F.blocks or shape not in G.blocks:
            raise ValueError(f"missing block for label {shape}")
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


def to_json_dict(F: FourierCoefficients) -> dict:
    """The block JSON: each block's rows of {"re", "im"} objects holding
    plain floats.  The blocks are laid end to end in one vector, whose real
    and imaginary parts take one ``tolist`` each and make one list of
    entries; each row is a slice of that list."""
    shapes = labels(F.n)
    blocks = [np.asarray(F.blocks[shape], dtype=complex) for shape in shapes]
    flat = np.concatenate([M.ravel() for M in blocks])
    entries = [{"re": re, "im": im} for re, im in zip(flat.real.tolist(), flat.imag.tolist())]
    data: dict = {"n": F.n, "family": F.family, "ops": F.ops.multiply_adds, "blocks": []}
    at = 0
    for shape, M in zip(shapes, blocks):
        dim, width = M.shape
        data["blocks"].append({
            "lambda": list(shape),
            "k": sum(shape),
            "dim": dim,
            "rows": [entries[i : i + width] for i in range(at, at + dim * width, width)],
        })
        at += dim * width
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
    JSON objects, have their ``re`` and ``im`` taken out in one C-level pass
    each (``json_fields``) and checked as two whole lists
    (``json_numbers``).  Anything else, or any entry refused there, goes
    entry by entry through ``json_complex``, which words the first refused
    entry as it always has."""
    if type(rows) is list and rows and all(type(r) is list and len(r) == len(rows[0])
                                           for r in rows):
        try:
            real, imag = json_fields(list(chain.from_iterable(rows)), {"re": 0.0, "im": 0.0})
        except TypeError:  # an entry that is no object
            pass
        else:
            real, refused_re = json_numbers(real)
            imag, refused_im = json_numbers(imag)
            if not (refused_re.any() or refused_im.any()):
                block = np.empty(len(real), dtype=complex)
                block.real, block.imag = real, imag
                return block.reshape(len(rows), -1)
    return np.array([[json_complex(e) for e in row] for row in rows], dtype=complex)
