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
  cached table of R_4's point masses (``_codelet``).  Above R_4, a level
  is one real product per branch label μ ∈ Λ_{m-1} and side, over all its
  slices and nodes: a child's transform sits block-diagonally in ρ_λ, so
  the runs ρ(t_{i+1})···ρ(t_m) (``symmetric.coset_runs``, which the S_k
  FFT reads too) only meet the μ-columns of λ's block; every ρ(t_j) is a
  symmetric involution (Young's orthogonal form), so T_i and up_i share
  them.  The tables (``_branches``) take 8·(m-1) bytes per element of R_m
  for those columns, about 8 more for where the products go, and 8·|R_4|²
  for the codelet: 1.07 MB over the levels of n = 6 and 100 MB at n = 8.

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
    level over all its nodes at once.  A level is one (|R_m|, nodes)
    array: a column holds every block of one node, flattened side by side
    in the order of ``_columns(m)``.  At each level m ≥ 3 the 2m
    subtransforms of every node are reassembled block-diagonally for free
    thanks to chain adaptation and multiplied by the image of the slice's
    coset word ρ(t_{i+1})···ρ(t_m), or of [m], one nonzero branch block at
    a time (``_level``).  Only nodes whose part of f holds a nonzero are
    visited.  The blocks agree with a product by one generator image at a
    time to within 1e-12 of the largest entry.

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
    support T(n) ≤ 2n·T(n-1) + 2n²|R_n|.  The levels below R_b are
    charged from a cached table of R_b (``_charge_codelet``).  The codelet
    product does more arithmetic than it is charged: |R_4|² = 43,681
    multiply-adds per real part of a full R_4 node against the 8,487 the
    recursion charges it, as level 8's dense products do more than their
    sparse count.
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
    nodes, row = np.unique(nodes, return_inverse=True)
    _charge_codelet(row, len(nodes), points, b, counter)
    functions = np.zeros((size(b), len(nodes)), dtype=complex)
    functions[points, row] = values[support]
    level = np.empty((size(b), len(nodes)), dtype=complex)
    np.matmul(_codelet(b), functions.view(float), out=level.view(float))
    del functions
    for m in range(b + 1, n + 1):
        weight //= 2 * m
        nodes, level = _level(level, nodes, weight, m, counter)
    # the root is the one node left, or none when f = 0
    root = level[:, 0] if len(nodes) else np.zeros(size(n), dtype=complex)
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
    row: np.ndarray, nodes: int, points: np.ndarray, b: int, counter: OpCounter
) -> None:
    """Charge what the recursion below the R_b nodes would spend: each term
    pays |R_2| at the base, and each level m = 3..b pays as ``_level``
    charges it, from the nodes below its node (its ``row`` among ``nodes``)
    that the terms' points of R_b occupy (``_below_codelet``)."""
    counter.add(len(points) * size(min(b, 2)))
    below, width = _below_codelet(b)
    occupied = np.zeros((nodes, width), dtype=bool)
    occupied[row, below[points]] = True
    for m in range(3, b + 1):
        # (nodes, level-m digit, level-m node below the codelet's)
        occupied = occupied.reshape(nodes, 2 * m, occupied.shape[1] // (2 * m))
        visits = np.count_nonzero(occupied, axis=(0, 2))
        occupied = occupied.any(axis=1)
        counter.add(int(_slice_costs(m) @ visits + (visits.sum() - occupied.sum()) * size(m)))


@cache
def _below_codelet(b: int) -> tuple[np.ndarray, int]:
    """Per point of R_b, its node at level 2 below the codelet's node, read-only
    (``_walk`` from a weight of 1); and how many such nodes there are."""
    below, _, width = _walk(np.zeros(size(b), dtype=np.int64), np.arange(size(b)), 1, b, 2)
    below.flags.writeable = False
    return below, width


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
    level = (functions @ _image_table(HALVERSON, base)).T.astype(complex)
    for m in range(3, b + 1):
        weight //= 2 * m
        nodes, level = _level(level, nodes, weight, m, OpCounter())
    out = np.ascontiguousarray(level.real)
    out.flags.writeable = False
    return out


@cache
def _digits(m: int) -> np.ndarray:
    """The digit of each slice of level m in a node id: T_1, …, T_m, the
    link, up_1, …, up_{m-1}, so that the slices of each side are a run."""
    out = np.empty(2 * m, dtype=np.int64)
    out[0::2], out[-1], out[1:-1:2] = np.arange(m), m, m + 1 + np.arange(m - 1)
    out.flags.writeable = False
    return out


@cache
def _groups(m: int) -> tuple[tuple[int, tuple[Shape, ...], int], ...]:
    """The labels of Λ_m grouped by dimension, (d, labels, first entry) per
    group in order of first appearance in ``labels(m)``, their blocks side
    by side in a column: Λ_5 falls into 7 groups, Λ_6 into 13, Λ_8 into 25."""
    out, at = [], 0
    for d in dict.fromkeys(dim(shape, m) for shape in labels(m)):
        out.append((d, tuple(shape for shape in labels(m) if dim(shape, m) == d), at))
        at += len(out[-1][1]) * d * d
    return tuple(out)


@cache
def _columns(m: int) -> dict[Shape, int]:
    """Where each label's block starts in a column of Λ_m, in column order."""
    return {shape: at + l * d * d for d, shapes, at in _groups(m) for l, shape in enumerate(shapes)}


def _blocks(m: int, column: np.ndarray) -> dict[Shape, np.ndarray]:
    """The blocks held in one column of Λ_m (``_columns``), as views, in the
    order of ``labels(m)``."""
    at, d = _columns(m), {shape: dim(shape, m) for shape in labels(m)}
    return {s: column[at[s] : at[s] + d[s] ** 2].reshape(d[s], -1) for s in d}


@cache
def _slice_costs(m: int) -> np.ndarray:
    """Multiply-adds of one visited slice at level m, summed over λ ∈ Λ_m,
    per slice digit (``_digits``): T_i and up_i pay what ρ_λ(T_i) does
    (``symmetric._coset_costs``); the link pays nnz·d_λ for [m]."""
    cosets = _coset_costs(labels(m), m)
    costs = np.zeros(2 * m, dtype=np.int64)
    costs[:m] = cosets
    costs[m + 1 :] = cosets[:-1]  # up_i takes the generators of T_i
    for shape in labels(m):
        rep = halverson_rep(shape, m)
        costs[m] += rep.dim * np.count_nonzero(rep.link(m))
    costs.flags.writeable = False
    return costs


@cache
def _branches(m: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The tables of level m ≥ 3, read-only.  Per μ ∈ Λ_{m-1}: its block's
    entries in a level m-1 column and their transpose, (2, d_μ, d_μ);
    Q_μ, stacking for each λ ∈ Λ_m that branches to μ (``branch_rn``) the
    μ-columns of the runs A_i = ρ(t_{i+1})···ρ(t_m), i = 1..m-1, side by
    side, (m-1)·|R_m| reals over all μ; and the rows start..stop of the
    (|R_m|, nodes) products that Q_μ times the μ-blocks fills, row (λ, a)
    and column c for entry (a, c) of λ's μ-columns.  Then the product row
    each entry of a level-m column reads; and the diagonal μ-blocks of
    every λ in a level-m and a level m-1 column, the |R_{m-1}| entries
    with μ = λ, where the image of [m] is the identity, first."""
    below = _columns(m - 1)
    height = dict.fromkeys(below, 0)
    places = {}  # (λ, μ) → (offset of μ's block in λ's, first row of λ in Q_μ)
    for shape in labels(m):
        on = 0
        for mu in branch_rn(shape, m):
            places[shape, mu] = on, height[mu]
            height[mu] += dim(shape, m)
            on += dim(mu, m - 1)
    parts, start = {}, 0
    for mu, at in below.items():
        rows = np.arange(at, at + dim(mu, m - 1) ** 2, dtype=np.int32).reshape(dim(mu, m - 1), -1)
        Q = np.empty((height[mu], (m - 1) * len(rows)))
        parts[mu] = np.stack([rows, rows.T]), Q, start, start + Q.size // (m - 1)
        start += Q.size // (m - 1)
    scatter = np.empty(size(m), dtype=np.int32)
    same, other = [], []  # (level-m entries, level m-1 entries) of each diagonal μ-block
    for d, shapes, at in _groups(m):
        # per label, (d_λ, m-1, d_λ): row a of every run A_i
        group = coset_runs([halverson_rep(shape, m) for shape in shapes]).transpose(1, 2, 0, 3)
        for shape, runs in zip(shapes, group):
            for mu in branch_rn(shape, m):
                (on, row), (rows, Q, first, _) = places[shape, mu], parts[mu]
                a, c = np.arange(d)[:, None], np.arange(rows.shape[-1])
                Q[row : row + d] = runs[:, :, on : on + len(c)].reshape(d, -1)
                scatter[at + a * d + on + c] = first + (row + a) * len(c) + c
                (same if shape == mu else other).append((at + (on + c[:, None]) * d + on + c, rows[0]))
            at += d * d
    diagonal = np.array([np.concatenate([pair[j].ravel() for pair in same + other]) for j in (0, 1)],
                        dtype=np.int32)
    for a in (*chain(*(part[:2] for part in parts.values())), scatter, diagonal):
        a.flags.writeable = False
    return tuple(parts.values()), scatter, diagonal


def _level(
    below: np.ndarray, nodes: np.ndarray, weight: int, m: int, counter: OpCounter
) -> tuple[np.ndarray, np.ndarray]:
    """One level of recursive_fft: the visited nodes of level m-1 and their
    columns of R_{m-1} blocks → the visited nodes of level m and theirs.  A
    node id is digit·weight + parent, the digit that of its slice
    (``_digits``).  Each visited slice is charged its ``_slice_costs``, and
    one addition per block entry after a node's first.

    A child's transform sits block-diagonally in ρ_λ, so the run A_i of a
    slice T_i only meets λ's μ-columns for each branch μ.  A side is one
    real product per μ ∈ Λ_{m-1} over every slice and parent (``_branches``):
    Q_μ, cut to the occupied slices (a view for a run of them), times the
    children's μ-blocks stacked slice above slice, a missing child read as
    zeros; one gather puts the products in place.  A slice up_i,
    multiplied on the right by A_i⁻¹ = A_iᵀ (each ρ(t_j) is a symmetric
    involution), is gathered transposed, X·A_iᵀ = (A_i·Xᵀ)ᵀ, and added
    back transposed, a group of one dimension at a time (``_groups``).  T_m
    and the link add their μ-blocks onto the diagonals, the link's where
    μ = λ only.
    """
    digits, parent = np.divmod(nodes, weight)
    nodes, column = np.unique(parent, return_inverse=True)
    counter.add(int(_slice_costs(m)[digits].sum()) + (len(digits) - len(nodes)) * size(m))
    parts, scatter, diagonal = _branches(m)
    kids = np.full((2 * m, len(nodes)), -1)  # the child in each slice of each parent
    kids[digits, column] = np.arange(len(digits))
    out, products = None, np.empty((len(scatter), len(nodes)), dtype=complex)
    for side, first in enumerate((0, m + 1)):  # the digits of T_1 and up_1
        runs = np.flatnonzero((kids[first : first + m - 1] >= 0).any(axis=1))
        if not len(runs):
            continue
        grid = kids[first + runs]
        missing = np.nonzero(grid < 0)
        for rows, Q, start, stop in parts:
            d = rows.shape[-1]
            part = below[rows[side, None, :, :, None], grid[:, None, None, :]]
            if len(missing[0]):
                part[missing[0], :, :, missing[1]] = 0
            if runs[-1] - runs[0] == len(runs) - 1:
                Q = Q[:, runs[0] * d : (runs[-1] + 1) * d]
            else:
                Q = Q.reshape(len(Q), m - 1, d)[:, runs].reshape(len(Q), -1)
            np.matmul(Q, part.reshape(len(runs) * d, -1).view(float),
                      out=products[start:stop].reshape(len(Q), -1).view(float))
        if not side:
            out = products.take(scatter, axis=0)
            continue
        out = np.zeros_like(products) if out is None else out
        for d, shapes, at in _groups(m):
            span = slice(at, at + len(shapes) * d * d)
            sums = out[span].reshape(len(shapes), d, d, -1)
            sums += products.take(scatter[span], axis=0).reshape(sums.shape).swapaxes(1, 2)
    del products
    out = np.zeros((len(scatter), len(nodes)), dtype=complex) if out is None else out
    for digit, count in ((m - 1, None), (m, len(below))):  # T_m, then the link
        parents = np.flatnonzero(kids[digit] >= 0)
        dst, src = diagonal[:, :count]
        out[dst[:, None], parents] += below[src[:, None], kids[digit, parents]]
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
