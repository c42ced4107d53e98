"""Seminormal representations of S_k and R_n, and a divide-and-conquer FFT on S_k.

``halverson_rep(λ, n)`` acts on n-standard tableaux; at n = |λ| it is
Young's seminormal representation of S_k, and ``seminormal_rep(λ)`` is that
same object (an element of S_k is a full-rank element of R_k).  The
matrices are chain-adapted to S_k > S_{k-1} > ... > S_1 (restriction to
the subgroup fixing k is literally block-diagonal in lower-level
representations), which is what lets the FFT assemble subgroup transforms
for free and pay only for sparse multiplications by images of the coset
representatives T_i = t_{i+1}···t_k.  The resulting multiply-add count is
at most (2/3)k(k+1)²k!.

Permutations are tuples in one-line notation: w = (w(1), ..., w(k)).  The
FFT reads a function on S_k as a vector in Clausen order (``clausen_perms``),
in which every coset of S_{m-1} in S_m is a contiguous run, so each level
of the recursion is one reshape of a batch of such vectors.  The inverse
(``sn_ifft_batch``) runs the same levels backwards, recovering each coset's
subgroup transform by Fourier inversion on S_{m-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from math import factorial
from typing import Mapping

import numpy as np

from .core import PartialPermutation, generator_word, restrictions
from .counting import OpCounter
from .tableaux import (
    Shape,
    Tableau,
    content,
    corners,
    entries,
    find_entry,
    is_standard,
    nstandard_tableaux,
    num_standard,
    partitions,
    remove_corner,
    swap_adjacent,
)

Perm = tuple[int, ...]


def perm_compose(u: Perm, v: Perm) -> Perm:
    """u∘v."""
    return tuple(u[x - 1] for x in v)


def all_perms(n: int) -> tuple[Perm, ...]:
    return tuple(permutations(range(1, n + 1)))


def transposition_image(basis: tuple[Tableau, ...], i: int) -> np.ndarray:
    """Matrix of t_i = (i-1, i) acting on the span of an n-standard basis.

    On a basis vector indexed by L: when both i-1 and i appear in L the
    action mixes L with the swapped tableau using the inverse content
    difference 1/(ct(L(i)) - ct(L(i-1))); when exactly one appears it just
    relabels; when neither appears it fixes the vector.  Read-only.
    """
    index = {t: j for j, t in enumerate(basis)}
    d = len(basis)
    M = np.zeros((d, d))
    for col, L in enumerate(basis):
        pos_i = find_entry(L, i)
        pos_prev = find_entry(L, i - 1)
        if pos_i is not None and pos_prev is not None:
            diff = content(*pos_i) - content(*pos_prev)
            M[col, col] += 1.0 / diff
            swapped = swap_adjacent(L, i)
            if is_standard(swapped):
                M[index[swapped], col] += 1.0 + 1.0 / diff
        elif pos_i is not None or pos_prev is not None:
            M[index[swap_adjacent(L, i)], col] = 1.0
        else:
            M[col, col] = 1.0
    M.flags.writeable = False
    return M


@dataclass
class HalversonRep:
    """Chain-adapted irreducible representation of R_n on n-standard tableaux.
    The generator images it holds are read-only."""

    shape: Shape
    n: int
    dim: int
    basis: tuple[Tableau, ...]
    transpositions: dict[int, np.ndarray]
    _links: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def link_image(self, m: int) -> np.ndarray:
        """Image of [m]: diagonal, keeping exactly the tableaux without m."""
        hit = self._links.get(m)
        if hit is None:
            hit = np.diag([0.0 if m in entries(L) else 1.0 for L in self.basis])
            hit.flags.writeable = False
            self._links[m] = hit
        return hit

    def evaluate(self, s: PartialPermutation) -> np.ndarray:
        """ρ(s) via a generator word; at most 2 nonzeros per factor row."""
        if s.n != self.n:
            raise ValueError(f"element lives in R_{s.n}, representation in R_{self.n}")
        return self.evaluate_word(generator_word(s))

    def evaluate_word(self, word) -> np.ndarray:
        """ρ of a generator word of R_n (``core.generator_word``), so that a
        caller imaging one element under many labels builds its word once."""
        M = np.eye(self.dim)
        for kind, j in word:
            M = M @ (self.transpositions[j] if kind == "t" else self.link_image(j))
        return M

    def eval_groupoid(self, s: PartialPermutation) -> np.ndarray:
        """Image of the groupoid basis element ⌊s⌋ = Σ_{t≤s} μ(t,s)·t: a test
        oracle, kept here because perfbench's span list (``spans.py``) names it."""
        k = s.rank
        M = np.zeros((self.dim, self.dim))
        for t in restrictions(s):
            sign = -1.0 if (k - t.rank) % 2 else 1.0
            M = M + sign * self.evaluate(t)
        return M


@cache
def halverson_rep(shape: Shape, n: int) -> HalversonRep:
    if sum(shape) > n:
        raise ValueError(f"weight of {shape} exceeds n = {n}")
    basis = nstandard_tableaux(shape, n)
    images = {j: transposition_image(basis, j) for j in range(2, n + 1)}
    return HalversonRep(shape=shape, n=n, dim=len(basis), basis=basis, transpositions=images)


def seminormal_rep(shape: Shape) -> HalversonRep:
    """The seminormal representation of S_k indexed by λ ⊢ k:
    ``halverson_rep(λ, k)``, the same cached object."""
    return halverson_rep(shape, sum(shape))


@cache
def perm_image(shape: Shape, w: Perm) -> np.ndarray:
    """ρ_λ(w) for a permutation w of 1..|λ|, read-only.  One cache for every
    caller and every n: the stein cells of R_n and ``sn_naive`` image the
    same permutations of S_k over and over."""
    M = seminormal_rep(shape).evaluate(PartialPermutation(len(w), w))
    M.flags.writeable = False
    return M


@cache
def invariant_form(shape: Shape) -> np.ndarray:
    """Diagonal W of the invariant form Σ_w ρ(w)ᵀρ(w) of seminormal_rep(shape).

    The form is diagonal in the seminormal basis, and ρ(t_i)ᵀ·W·ρ(t_i) = W
    fixes the ratio of the two weights each generator mixes:
    w(t_i·L) = w(L)·(r-1)/(r+1) with r = ct(L(i)) - ct(L(i-1)).  A walk over
    adjacent swaps from the first tableau therefore reaches every weight
    without summing over S_k.  Scaled so that w(basis[0]) = 1; every weight
    is positive, since a swap that stays standard has |r| ≥ 2.
    """
    k = sum(shape)
    basis = nstandard_tableaux(shape, k)
    index = {L: j for j, L in enumerate(basis)}
    w = np.zeros(len(basis))
    w[0] = 1.0
    stack = [0]
    while stack:
        j = stack.pop()
        L = basis[j]
        for i in range(2, k + 1):
            s = index.get(swap_adjacent(L, i))
            if s is not None and w[s] == 0.0:
                r = content(*find_entry(L, i)) - content(*find_entry(L, i - 1))
                w[s] = w[j] * (r - 1) / (r + 1)
                stack.append(s)
    w.flags.writeable = False
    return w


def branch_sn(shape: Shape) -> tuple[Shape, ...]:
    """Restriction of λ ⊢ k to S_{k-1}: remove each corner, top corner first.

    Under the last-letter basis order the restricted matrices are literally
    block-diagonal with blocks in exactly this order.
    """
    return tuple(remove_corner(shape, r) for r, _ in corners(shape))


@cache
def clausen_perms(k: int) -> np.ndarray:
    """Every w ∈ S_k in one-line notation, one row per Clausen column.

    Row s is T_{i_k}···T_{i_2} with s = Σ_m (i_m − 1)·(m−1)!, where T_i at
    level m is the cycle i → i+1 → … → m → i (so w(m) = i_m once the higher
    levels are undone).  The last-level digit varies slowest, so the cosets
    T_i·S_{m-1} are contiguous runs of (m−1)! columns.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    for m in range(1, k + 1):
        ext = np.hstack([table, np.full((len(table), 1), m)])
        runs = []
        for i in range(1, m + 1):
            values = np.arange(m + 1)
            values[i:m] += 1
            values[m] = i
            runs.append(values[ext])
        table = np.concatenate(runs)
    table.flags.writeable = False
    return table


@cache
def _clausen_column(k: int) -> dict[Perm, int]:
    return {tuple(int(v) for v in w): s for s, w in enumerate(clausen_perms(k))}


def _coset_reps(shape: Shape, inverse: bool) -> list[np.ndarray]:
    """ρ_λ(T_i) = ρ(t_{i+1})···ρ(t_m) for i = 1..m, or with inverse their
    inverses ρ(t_m)···ρ(t_{i+1}): seminormal transposition images are
    involutions."""
    rep = seminormal_rep(shape)
    m = rep.n
    out = []
    for i in range(1, m + 1):
        P = np.eye(rep.dim)
        for j in range(i + 1, m + 1):
            P = rep.transpositions[j] @ P if inverse else P @ rep.transpositions[j]
        out.append(P)
    return out


@cache
def _coset_images(shape: Shape) -> tuple[tuple[int, int, Shape, np.ndarray], ...]:
    """For λ ⊢ m: (offset, d_μ, μ, Q) per μ in branch_sn(λ), with
    Q[:, i·d_μ + s] = ρ_λ(T_{i+1})[:, offset + s] for i = 0..m−1: the columns
    of the coset representative images that meet the μ block of the
    subgroup transform, side by side."""
    images = _coset_reps(shape, inverse=False)
    parts, offset = [], 0
    for mu in branch_sn(shape):
        d = num_standard(mu)
        Q = np.concatenate([P[:, offset : offset + d] for P in images], axis=1)
        parts.append((offset, d, mu, Q.astype(complex)))
        offset += d
    return tuple(parts)


@cache
def _coset_inverse_rows(shape: Shape) -> tuple[tuple[int, int, Shape, np.ndarray], ...]:
    """For λ ⊢ m: (offset, d_μ, μ, R) per μ in branch_sn(λ), with
    R[i·d_μ + s, :] = (d_λ/(m·d_μ))·ρ_λ(T_{i+1})⁻¹[offset + s, :] for
    i = 0..m−1: the rows of the inverse coset images that meet the μ block,
    stacked and scaled for Fourier inversion on S_{m−1}.  Read-only."""
    images = _coset_reps(shape, inverse=True)
    m, d_shape = len(images), num_standard(shape)
    parts, offset = [], 0
    for mu in branch_sn(shape):
        d = num_standard(mu)
        R = np.concatenate([P[offset : offset + d] for P in images]) * (d_shape / (m * d))
        R = R.astype(complex)
        R.flags.writeable = False
        parts.append((offset, d, mu, R))
        offset += d
    return tuple(parts)


@cache
def _coset_costs(shapes: tuple[Shape, ...], m: int) -> np.ndarray:
    """Multiply-adds of the coset T_i at level m, summed over the labels
    λ ∈ shapes of R_m (the λ ⊢ m for S_m): the sparse left-multiplications
    by ρ_λ(t_m), …, ρ_λ(t_{i+1}), each costing nnz·d_λ; entry i−1 for
    i = 1..m.  Read-only."""
    costs = np.zeros(m, dtype=np.int64)
    for shape in shapes:
        rep = halverson_rep(shape, m)
        nnz = [np.count_nonzero(rep.transpositions[j]) for j in range(2, m + 1)]
        for i in range(1, m + 1):
            costs[i - 1] += rep.dim * sum(nnz[i - 1 :])
    costs.flags.writeable = False
    return costs


def sn_fft_batch(
    batch: np.ndarray, k: int, counter: OpCounter | None = None
) -> dict[Shape, np.ndarray]:
    """Transforms on S_k of a batch of functions, one row each in Clausen order.

    Clausen's recursion run level by level over the whole batch: at level m
    the m subgroup transforms of every coset node are reassembled
    block-diagonally and multiplied by the dense images of the coset
    representatives, one matmul per (λ ⊢ m, μ ∈ branch_sn(λ)).  Returns a
    (rows, d_λ, d_λ) stack per λ ⊢ k, in ``partitions(k)`` order.

    The counter is charged what a sparse recursion over the nonzero entries
    costs: a node of level m is visited only when its coset holds a nonzero
    value, each visited child coset T_i pays its sparse left-multiplications
    (``_coset_costs``), and each child after the first pays one addition per
    block entry (Σ_λ d_λ² = m!).
    """
    if counter is None:
        counter = OpCounter()
    batch = np.asarray(batch, dtype=complex)
    if batch.ndim != 2 or batch.shape[1] != factorial(k):
        raise ValueError(f"batch must have {factorial(k)} columns, got shape {batch.shape}")
    occupied = (batch != 0).ravel()
    level = {shape: batch.reshape(-1, 1, 1).copy() for shape in partitions(min(k, 1))}
    for m in range(2, k + 1):
        children = occupied.reshape(-1, m)
        occupied = children.any(axis=1)
        visits = int(children.sum(axis=0) @ _coset_costs(partitions(m), m))
        counter.add(visits + (int(children.sum()) - int(occupied.sum())) * factorial(m))
        nodes = len(occupied)
        nxt = {}
        for shape in partitions(m):
            d = num_standard(shape)
            out = np.empty((nodes, d, d), dtype=complex)
            for offset, dm, mu, Q in _coset_images(shape):
                out[:, :, offset : offset + dm] = Q @ level[mu].reshape(nodes, m * dm, dm)
            nxt[shape] = out
        level = nxt
    return level


def sn_ifft_batch(level: Mapping[Shape, np.ndarray], k: int) -> np.ndarray:
    """Inverse of ``sn_fft_batch``: a (rows, d_λ, d_λ) stack per λ ⊢ k → the
    (rows, k!) functions on S_k, one row each in Clausen order.

    The levels of ``sn_fft_batch`` run backwards.  At level m the transform
    of each child coset T_i·S_{m−1} of a node is recovered by Fourier
    inversion on the subgroup S_{m−1} (Schur orthogonality):

        child_i[μ] = Σ_{λ∋μ} (d_λ/(m·d_μ))·[ρ_λ(T_i)⁻¹·F̂_λ]_{μ rows, μ cols},

    one matmul per (λ ⊢ m, μ ∈ branch_sn(λ)) over the whole stack.
    """
    stacks = {}
    for shape in partitions(k):
        d = num_standard(shape)
        stack = np.asarray(level[shape], dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (d, d):
            raise ValueError(f"stack for {shape} must be (rows, {d}, {d}), got {stack.shape}")
        stacks[shape] = stack
    for m in range(k, 1, -1):
        below: dict[Shape, np.ndarray] = {}
        for shape in partitions(m):
            F = stacks[shape]
            for offset, dm, mu, R in _coset_inverse_rows(shape):
                child = (R @ F[:, :, offset : offset + dm]).reshape(-1, dm, dm)
                if mu in below:
                    below[mu] += child
                else:
                    below[mu] = child
        stacks = below
    (last,) = stacks.values()
    return last.reshape(-1, factorial(k))


def sn_fft(
    f: Mapping[Perm, complex], n: int, counter: OpCounter | None = None
) -> dict[Shape, np.ndarray]:
    """Fourier transform of f on S_n over the seminormal representations.

    Recursive over the coset decomposition by w(n): the n subgroup
    transforms are reassembled block-diagonally for free and multiplied by
    the images of T_i = t_{i+1}···t_n.  Runs ``sn_fft_batch`` on a batch of
    one.  Returns one d_λ×d_λ block per λ ⊢ n; multiply-adds are charged to
    the counter.
    """
    column = _clausen_column(n)
    batch = np.zeros((1, factorial(n)), dtype=complex)
    for w, c in f.items():
        s = column.get(tuple(w))
        if s is None:
            raise ValueError(f"{w} is not a permutation of 1..{n}")
        batch[0, s] = c
    return {shape: blocks[0] for shape, blocks in sn_fft_batch(batch, n, counter).items()}


def sn_naive(f: Mapping[Perm, complex], n: int) -> dict[Shape, np.ndarray]:
    """Direct evaluation of all blocks; the oracle for sn_fft, which refuses
    the same keys."""
    column = _clausen_column(n)
    for w in f:
        if tuple(w) not in column:
            raise ValueError(f"{w} is not a permutation of 1..{n}")
    out = {}
    for shape in partitions(n):
        d = num_standard(shape)
        acc = np.zeros((d, d), dtype=complex)
        for w, c in f.items():
            if c != 0:
                acc += c * perm_image(shape, tuple(w))
        out[shape] = acc
    return out


def sn_ifft(blocks: Mapping[Shape, np.ndarray]) -> dict[Perm, complex]:
    """Invert a transform on S_n: ``sn_ifft_batch`` on a batch of one."""
    shapes = list(blocks)
    if not shapes:
        raise ValueError("no blocks given")
    n = sum(shapes[0])
    expected = set(partitions(n))
    if set(shapes) != expected:
        raise ValueError(f"incomplete block set: need all partitions of {n}")
    for shape in shapes:
        d = num_standard(shape)
        if np.shape(blocks[shape]) != (d, d):
            raise ValueError(f"block {shape} should be {d}x{d}")
    values = sn_ifft_batch({shape: np.asarray(blocks[shape])[None] for shape in shapes}, n)[0]
    column = _clausen_column(n)
    return {w: values[column[w]] for w in all_perms(n)}
