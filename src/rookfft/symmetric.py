"""Young's orthogonal representations of S_k and R_n, and a divide-and-conquer FFT on S_k.

``halverson_rep(λ, n)`` acts on n-standard tableaux; at n = |λ| it is
Young's orthogonal representation of S_k, and ``seminormal_rep(λ)`` is that
same object (an element of S_k is a full-rank element of R_k).  Every
generator image ρ(t_j) is a symmetric involution, so ρ(w)⁻¹ = ρ(w)ᵀ for
every permutation w.  The matrices are chain-adapted to S_k > S_{k-1} >
... > S_1 (restriction to the subgroup fixing k is literally
block-diagonal in lower-level representations), which is what lets the
FFT assemble subgroup transforms for free and pay only for sparse
multiplications by images of the coset representatives
T_i = t_{i+1}···t_k.  The resulting multiply-add count is at most
(2/3)k(k+1)²k!.

Permutations are tuples in one-line notation: w = (w(1), ..., w(k)).  The
FFT reads a function on S_k as a vector in Clausen order (``clausen_perms``),
in which every coset of S_{m-1} in S_m is a contiguous run, so each level
of the recursion is one reshape of a batch of such vectors.  It starts from
S_b, b = min(k, 5), with one product by a cached (b!, b!) real table of
S_b's point masses (``_codelet``, built by running level b on the b! point
masses after the table of S_{b-1}), so that for k ≤ 5 the transform of a
batch is that one product; the levels above it read real tables cut from
the runs of generator images (``coset_runs``, as ``recursive_fft`` does).
The op counter is still charged the recursion's sparse count at every level
2..k, although the table does more arithmetic: b!² = 14,400 multiply-adds
per real part of a full S_5 node against the 4,760 charged.
The inverse (``sn_ifft_batch``) runs the levels above S_b backwards,
recovering each coset's subgroup transform by Fourier inversion on
S_{m-1}, then takes one product with the inverse table
(``_inverse_codelet``), which is the forward one transposed, its entries
weighted by d_λ/b!.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from math import factorial, sqrt
from typing import Mapping, NamedTuple

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


def all_perms(n: int) -> tuple[Perm, ...]:
    return tuple(permutations(range(1, n + 1)))


class Pairing(NamedTuple):
    """A generator image M = ρ(t_j) held as index pairs: t_j mixes a tableau
    only with the one that swaps j-1 and j, so each row and column of M
    holds its diagonal entry and at most one more, at the partner.
    M[r, r] = diagonal[r] and M[r, partner[r]] = off[r]; an index with no
    partner is its own, and its off entry is 0.  Read-only."""

    partner: np.ndarray
    diagonal: np.ndarray
    off: np.ndarray

    def dense(self) -> np.ndarray:
        """M as a d×d matrix, built on each call, read-only."""
        M = np.diag(self.diagonal)
        M[np.arange(len(M)), self.partner] += self.off
        M.flags.writeable = False
        return M

    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.diagonal) + np.count_nonzero(self.off))


def transposition_image(basis: tuple[Tableau, ...], i: int) -> Pairing:
    """ρ(t_i) for t_i = (i-1, i) acting on the span of an n-standard basis.

    On a basis vector indexed by L: when both i-1 and i appear in L the
    action mixes L with the swapped tableau in Young's orthogonal form,
    1/r on the diagonal and √(1 − 1/r²) at the partner, with r =
    ct(L(i)) - ct(L(i-1)) the content difference; when exactly one appears
    it just relabels; when neither appears it fixes the vector.  So every
    ρ(t_i) is a symmetric involution.
    """
    index = {t: j for j, t in enumerate(basis)}
    d = len(basis)
    partner, diagonal, off = np.arange(d), np.ones(d), np.zeros(d)
    for col, L in enumerate(basis):
        pos_i = find_entry(L, i)
        pos_prev = find_entry(L, i - 1)
        if pos_i is not None and pos_prev is not None:
            diff = content(*pos_i) - content(*pos_prev)
            diagonal[col] = 1.0 / diff
            swapped = swap_adjacent(L, i)
            if is_standard(swapped):
                row = index[swapped]
                partner[row], off[row] = col, sqrt(1.0 - 1.0 / diff**2)
        elif pos_i is not None or pos_prev is not None:
            row = index[swap_adjacent(L, i)]
            diagonal[col] = 0.0
            partner[row], off[row] = col, 1.0
    for a in (partner, diagonal, off):
        a.flags.writeable = False
    return Pairing(partner, diagonal, off)


@dataclass
class HalversonRep:
    """Chain-adapted irreducible representation of R_n on n-standard tableaux.

    Each generator image ρ(t_j) is held as its ``Pairing``, at most two
    nonzeros per row, and the image of [m] as its diagonal (``link``); a
    dense ρ(t_j) is built on demand (``Pairing.dense``) and not kept.
    Everything it holds is read-only."""

    shape: Shape
    n: int
    dim: int
    basis: tuple[Tableau, ...]
    pairings: dict[int, Pairing]
    _links: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def link(self, m: int) -> np.ndarray:
        """The diagonal of ρ([m]): 1 at exactly the tableaux without m."""
        hit = self._links.get(m)
        if hit is None:
            hit = np.array([0.0 if m in entries(L) else 1.0 for L in self.basis])
            hit.flags.writeable = False
            self._links[m] = hit
        return hit

    def evaluate(self, s: PartialPermutation) -> np.ndarray:
        """ρ(s) via a generator word; at most 2 nonzeros per factor row."""
        if not isinstance(s, PartialPermutation):
            raise TypeError(f"evaluate takes a PartialPermutation, got {type(s).__name__}")
        if s.n != self.n:
            raise ValueError(f"element lives in R_{s.n}, representation in R_{self.n}")
        return self.evaluate_word(generator_word(s))

    def evaluate_word(self, word) -> np.ndarray:
        """ρ of a generator word of R_n (``core.generator_word``), so that a
        caller imaging one element under many labels builds its word once.
        Each letter updates the columns of the product so far: column c of
        M·ρ(t_j) is M[:, c]·diagonal[c] + M[:, p]·off[p] with p the partner
        of c, and M·ρ([j]) masks the columns."""
        M = np.eye(self.dim)
        for kind, j in word:
            if kind == "t":
                p, diagonal, off = self.pairings[j]
                M = M * diagonal + M[:, p] * off[p]
            else:
                M = M * self.link(j)
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
    pairings = {j: transposition_image(basis, j) for j in range(2, n + 1)}
    return HalversonRep(shape=shape, n=n, dim=len(basis), basis=basis, pairings=pairings)


def seminormal_rep(shape: Shape) -> HalversonRep:
    """Young's orthogonal representation of S_k indexed by λ ⊢ k:
    ``halverson_rep(λ, k)``, the same cached object.  The name predates
    the orthogonal form; perfbench's span list (``spans.py``) names it."""
    return halverson_rep(shape, sum(shape))


@cache
def perm_image(shape: Shape, w: Perm) -> np.ndarray:
    """ρ_λ(w) for a permutation w of 1..|λ|, read-only.  One cache for every
    n: the stein cells of every R_n image the same permutations of S_k over
    and over."""
    M = seminormal_rep(shape).evaluate(PartialPermutation(len(w), w))
    M.flags.writeable = False
    return M


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


def coset_runs(reps: list[HalversonRep]) -> np.ndarray:
    """(m-1, L, d, d) reals for L reps of R_m of dimension d: entry i-1 holds
    each rep's run A_i = ρ(t_{i+1})···ρ(t_m).  Each run is built from the
    one after it, A_m = I and A_i = ρ(t_{i+1})·A_{i+1}, a diagonal plus one
    partner row per row (``Pairing``), in O(m·L·d²).
    Both FFTs read it: ``transforms._branches`` and ``_coset_images``."""
    m, d = reps[0].n, reps[0].dim
    runs = np.empty((m - 1, len(reps) * d, d))
    A = np.tile(np.eye(d), (len(reps), 1))
    for j in range(m, 1, -1):
        parts = [rep.pairings[j] for rep in reps]
        partner = np.concatenate([p.partner + l * d for l, p in enumerate(parts)])
        diagonal = np.concatenate([p.diagonal for p in parts])
        off = np.concatenate([p.off for p in parts])
        A = runs[j - 2] = diagonal[:, None] * A + off[:, None] * A[partner]
    return runs.reshape(m - 1, len(reps), d, d)


@cache
def _coset_images(shape: Shape) -> tuple[tuple[int, int, Shape, np.ndarray, np.ndarray], ...]:
    """For λ ⊢ m: (offset, d_μ, μ, Q, R) per μ in branch_sn(λ), Q and R real
    and read-only.  Q[:, i·d_μ + c] = ρ_λ(T_{i+1})[:, offset + c] for
    i = 0..m−1, the columns of the coset images that meet the μ block, side
    by side; R[i·d_μ + r, :] = (d_λ/(m·d_μ))·ρ_λ(T_{i+1})⁻¹[offset + r, :],
    the rows of their inverses, scaled for Fourier inversion on S_{m−1}.
    Both are cut from the runs (``coset_runs``), R transposed as
    ρ_λ(T_i)⁻¹ = ρ_λ(T_i)ᵀ."""
    rep = seminormal_rep(shape)
    m, d = rep.n, rep.dim
    runs = np.concatenate([coset_runs([rep])[:, 0], np.eye(d)[None]])
    parts, offset = [], 0
    for mu in branch_sn(shape):
        dm = num_standard(mu)
        A = np.concatenate(runs[:, :, offset : offset + dm], axis=1)
        Q, R = A, A.T * (d / (m * dm))
        Q.flags.writeable = R.flags.writeable = False
        parts.append((offset, dm, mu, Q, R))
        offset += dm
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
        nnz = [rep.pairings[j].nonzeros() for j in range(2, m + 1)]
        for i in range(1, m + 1):
            costs[i - 1] += rep.dim * sum(nnz[i - 1 :])
    costs.flags.writeable = False
    return costs


# the S_k FFT starts from S_5 (``_codelet``): measured against S_4 and S_6,
# S_5 is the fastest base at n = 5..7, and S_6's table would take 4 MB
CODELET = 5


def sn_fft_batch(
    batch: np.ndarray, k: int, counter: OpCounter | None = None
) -> dict[Shape, np.ndarray]:
    """Transforms on S_k of a batch of functions, one row each in Clausen order.

    Clausen's recursion from S_b, b = min(k, ``CODELET``): the batch, read
    as rows·k!/b! functions on the cosets of S_b, is multiplied once by the
    cached (b!, b!) table of S_b's point masses (``_codelet``), which gives
    the level-b stacks of every λ ⊢ b.  Each level m = b+1..k above it
    reassembles the m subgroup transforms of every coset node
    block-diagonally and multiplies them by the images of the coset
    representatives, one real matmul per (λ ⊢ m, μ ∈ branch_sn(λ))
    (``_clausen_level``).  For k ≤ 5 the whole transform is the one
    product.  Returns a (rows, d_λ, d_λ) stack per λ ⊢ k, in
    ``partitions(k)`` order.

    The counter is charged what a sparse recursion over the nonzero entries
    costs, at every level 2..k: a node of level m is visited only when its
    coset holds a nonzero value, each visited child coset T_i pays its
    sparse left-multiplications (``_coset_costs``), and each child after
    the first pays one addition per block entry (Σ_λ d_λ² = m!).  The
    table does more arithmetic than it is charged: b!² multiply-adds per
    real part of an S_b node, 14,400 at b = 5 against the 4,760 the
    recursion charges a full S_5 node, as the dense tables above S_b do
    more than their sparse count.
    """
    if counter is None:
        counter = OpCounter()
    batch = np.asarray(batch, dtype=complex)
    if batch.ndim != 2 or batch.shape[1] != factorial(k):
        raise ValueError(f"batch must have {factorial(k)} columns, got shape {batch.shape}")
    occupied = (batch != 0).ravel()
    for m in range(2, k + 1):
        children = occupied.reshape(-1, m)
        occupied = children.any(axis=1)
        visits = int(children.sum(axis=0) @ _coset_costs(partitions(m), m))
        counter.add(visits + (int(children.sum()) - int(occupied.sum())) * factorial(m))
    b = min(k, CODELET)
    level = _from_codelet(batch, b)
    for m in range(b + 1, k + 1):
        level = _clausen_level(level, m)
    return level


def sn_ifft_batch(level: Mapping[Shape, np.ndarray], k: int) -> np.ndarray:
    """Inverse of ``sn_fft_batch``: a (rows, d_λ, d_λ) stack per λ ⊢ k → the
    (rows, k!) functions on S_k, one row each in Clausen order.

    The levels of ``sn_fft_batch`` above S_b, b = min(k, ``CODELET``), run
    backwards.  At level m the transform of each child coset T_i·S_{m−1} of
    a node is recovered by Fourier inversion on the subgroup S_{m−1}
    (Schur orthogonality):

        child_i[μ] = Σ_{λ∋μ} (d_λ/(m·d_μ))·[ρ_λ(T_i)⁻¹·F̂_λ]_{μ rows, μ cols},

    one real matmul per (λ ⊢ m, μ ∈ branch_sn(λ)) over the whole stack,
    each stack made C-contiguous first to be read as reals.  The
    level-b stacks then take one product with the cached inverse table of
    S_b (``_inverse_codelet``), b!² multiply-adds per real part of a node;
    that table is the forward one transposed, its entries weighted by
    d_λ/b!, not the inverse levels run on point masses.  Like
    every inversion, this charges no counter.
    """
    stacks = {}
    for shape in partitions(k):
        d = num_standard(shape)
        stack = np.ascontiguousarray(level[shape], dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (d, d):
            raise ValueError(f"stack for {shape} must be (rows, {d}, {d}), got {stack.shape}")
        stacks[shape] = stack
    b = min(k, CODELET)
    for m in range(k, b, -1):
        stacks = _clausen_inverse_level(stacks, m)
    nodes = len(stacks[partitions(b)[0]])
    entries = np.empty((factorial(b), nodes), dtype=complex)
    for shape, at, d in _entries(b):
        entries[at : at + d * d] = stacks[shape].reshape(nodes, d * d).T
    del stacks
    values = np.empty_like(entries)
    np.matmul(_inverse_codelet(b), entries.view(float), out=values.view(float))
    return values.T.reshape(-1, factorial(k))


def _from_codelet(batch: np.ndarray, b: int) -> dict[Shape, np.ndarray]:
    """The level-b stacks of a batch read as functions on the cosets of S_b,
    one row of b! values each: one real product with ``_codelet(b)``."""
    functions = np.ascontiguousarray(batch.reshape(-1, factorial(b)).T)
    entries = np.empty_like(functions)
    np.matmul(_codelet(b), functions.view(float), out=entries.view(float))
    del functions
    # each stack is copied out of the product, which no block keeps alive
    level = {}
    for shape, at, d in _entries(b):
        level[shape] = entries[at : at + d * d].T.copy().reshape(-1, d, d)
    return level


def _clausen_level(level: Mapping[Shape, np.ndarray], m: int) -> dict[Shape, np.ndarray]:
    """Level m of Clausen's recursion: the (nodes·m, d_μ, d_μ) stacks of the
    μ ⊢ m−1, each run of m the cosets T_1·S_{m−1}, …, T_m·S_{m−1} of one
    node and each stack C-contiguous, to the (nodes, d_λ, d_λ) stacks of the
    λ ⊢ m, by the tables Q of ``_coset_images``."""
    nodes = len(level[partitions(m - 1)[0]]) // m
    out = {}
    for shape in partitions(m):
        d = num_standard(shape)
        F = np.empty((nodes, d, d), dtype=complex)
        for offset, dm, mu, Q, _ in _coset_images(shape):
            below = level[mu].reshape(nodes, m * dm, dm).view(float)
            F[:, :, offset : offset + dm] = np.matmul(Q, below).view(complex)
        out[shape] = F
    return out


def _clausen_inverse_level(stacks: Mapping[Shape, np.ndarray], m: int) -> dict[Shape, np.ndarray]:
    """``_clausen_level`` backwards: the (nodes, d_λ, d_λ) stacks of the
    λ ⊢ m to the (nodes·m, d_μ, d_μ) stacks of the μ ⊢ m−1.  A function of
    its own, so that its last operands are freed before the next level."""
    below: dict[Shape, np.ndarray] = {}
    for shape in partitions(m):
        F = stacks[shape]
        for offset, dm, mu, _, R in _coset_images(shape):
            child = np.matmul(R, F[:, :, offset : offset + dm].view(float))
            child = child.view(complex).reshape(-1, dm, dm)
            if mu in below:
                below[mu] += child
            else:
                below[mu] = child
    return below


@cache
def _entries(b: int) -> tuple[tuple[Shape, int, int], ...]:
    """(λ, first row, d_λ) per λ ⊢ b: the λ block of a transform on S_b
    flattened into rows at..at+d_λ² of a codelet column."""
    out, at = [], 0
    for shape in partitions(b):
        d = num_standard(shape)
        out.append((shape, at, d))
        at += d * d
    return tuple(out)


@cache
def _codelet(b: int) -> np.ndarray:
    """(b!, b!) reals for b ≤ ``CODELET``, read-only: column x holds the
    blocks ρ_λ(w) of the point mass at w = ``clausen_perms(b)[x]``, each
    flattened, side by side in ``partitions(b)`` order (``_entries``), so
    that the transform of any function on S_b is one product with it.  It
    is Clausen's recursion run on all b! point masses as one batch: the
    table of S_{b−1} gives their level-(b−1) stacks, and ``_clausen_level``
    runs level b, so the naive oracle still referees the levels 2..b.
    S_5's table is 115 KB."""
    if b <= 1:
        out = np.ones((1, 1))
        out.flags.writeable = False
        return out
    level = _clausen_level(_from_codelet(np.eye(factorial(b), dtype=complex), b - 1), b)
    blocks = [level[shape].reshape(factorial(b), d * d) for shape, _, d in _entries(b)]
    out = np.ascontiguousarray(np.concatenate(blocks, axis=1).real.T)
    out.flags.writeable = False
    return out


@cache
def _inverse_codelet(b: int) -> np.ndarray:
    """The inverse of ``_codelet(b)``, read-only, derived from it without
    running the inverse levels.  Fourier inversion reads f(w) =
    Σ_λ (d_λ/b!)·tr(ρ_λ(w)⁻¹·F̂_λ), and ρ(w)⁻¹ = ρ(w)ᵀ; so f(w) =
    Σ_{λ,i,j} (d_λ/b!)·ρ_λ(w)[i, j]·F̂_λ[i, j], the forward table's
    column w weighted by d_λ/b! entry by entry."""
    weights = np.concatenate([np.full(d * d, d / factorial(b)) for _, _, d in _entries(b)])
    out = np.ascontiguousarray((_codelet(b) * weights[:, None]).T)
    out.flags.writeable = False
    return out


def sn_fft(
    f: Mapping[Perm, complex], n: int, counter: OpCounter | None = None
) -> dict[Shape, np.ndarray]:
    """Fourier transform of f on S_n over Young's orthogonal representations.

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
