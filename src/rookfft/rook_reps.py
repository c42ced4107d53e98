"""Irreducible matrix representations of the rook monoid R_n.

Two equivalent families, both indexed by partitions λ ⊢ k for 0 ≤ k ≤ n:

* the tensor-up family ("stein"), built from a seminormal representation ρ
  of S_k placed into a C(n,k)×C(n,k) grid of d_ρ×d_ρ cells indexed by
  k-subsets: the groupoid basis element for s of rank k maps to ρ(y) in
  cell (ran(s), dom(s)) and every other element of the basis to 0;

* the tableau family ("halverson"), acting on n-standard tableaux with the
  seminormal content coefficients, extended by the rank-dropping generator
  [n] = (1)(2)..(n-1)[n] which kills every tableau containing n.  With the
  generalized last-letter basis order these matrices are chain-adapted to
  R_n > R_{n-1} > ... > R_1, which the recursive transform relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb

import numpy as np

from .core import (
    PartialPermutation,
    factorize,
    generator_word,
    ksubset_index,
    ksubsets,
    restrictions,
)
from .symmetric import GroupRep, seminormal_rep, transposition_image
from .tableaux import (
    Shape,
    corners,
    entries,
    nstandard_tableaux,
    num_standard,
    partitions,
    remove_corner,
)


def labels(n: int) -> tuple[Shape, ...]:
    """Λ_n: all partitions of all weights 0..n, in a fixed order."""
    out: list[Shape] = []
    for k in range(n + 1):
        out.extend(partitions(k))
    return tuple(out)


def dim(shape: Shape, n: int) -> int:
    """Dimension of the irreducible labelled by λ ⊢ k: C(n,k)·f^λ."""
    return comb(n, sum(shape)) * num_standard(shape)


def branch_rn(shape: Shape, n: int) -> tuple[Shape, ...]:
    """Restriction of λ to R_{n-1}, in realized block order.

    The label itself survives (when λ ⊬ n), followed by each corner
    removal, top corner first.
    """
    if n < 1:
        raise ValueError("branching needs n >= 1")
    keep = (shape,) if sum(shape) < n else ()
    return keep + tuple(remove_corner(shape, r) for r, _ in corners(shape))


@dataclass
class HalversonRep:
    """Chain-adapted irreducible representation of R_n on n-standard tableaux."""

    shape: Shape
    n: int
    dim: int
    basis: tuple
    transpositions: dict[int, np.ndarray]
    _links: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def link_image(self, m: int) -> np.ndarray:
        """Image of [m]: diagonal, keeping exactly the tableaux without m."""
        hit = self._links.get(m)
        if hit is None:
            hit = np.diag([0.0 if m in entries(L) else 1.0 for L in self.basis])
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


@cache
def halverson_similarity(shape: Shape, n: int) -> np.ndarray:
    """U with U⁻¹·ρ_H(x)·U = ρ_S(x) for every x ∈ R_n: the change of basis
    from the halverson family to the stein family for λ ⊢ k.  Read-only.

    Let V₀ be the tableaux whose entries are exactly {1..k}: elements of
    rank below k act on λ as zero, and S_k acts on V₀ by its seminormal
    matrices, in the basis order of ``seminormal_rep``.  The stein basis
    vector v of cell A is then ρ_H(p_({1..k}→A))·v, so
    U = [ρ_H(p_({1..k}→A))[:, V₀] for A in ksubsets(n, k)], side by side.
    ρ_H(p_({1..k}→{1..k})) keeps exactly V₀, and every other A takes one
    generator from a subset before it in colex order: with a the least
    point of A above 1 such that a-1 ∉ A, p_({1..k}→A) = t_a·p_({1..k}→A')
    for A' = A with a-1 in place of a.
    """
    rep = halverson_rep(shape, n)
    k = sum(shape)
    first = tuple(range(1, k + 1))
    v0 = [j for j, L in enumerate(rep.basis) if entries(L) == frozenset(first)]
    cols = {first: np.eye(rep.dim)[:, v0]}
    for A in ksubsets(n, k)[1:]:
        a = next(a for a in A if a > 1 and a - 1 not in A)
        cols[A] = rep.transpositions[a] @ cols[tuple(a - 1 if b == a else b for b in A)]
    U = np.hstack([cols[A] for A in ksubsets(n, k)])
    U.flags.writeable = False
    return U


@dataclass
class SteinRep:
    """Tensor-up irreducible representation of R_n from a seminormal ρ on S_k."""

    shape: Shape
    n: int
    base: GroupRep
    subsets: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return sum(self.shape)

    @property
    def dim(self) -> int:
        return len(self.subsets) * self.base.dim

    def eval_groupoid(self, s: PartialPermutation) -> np.ndarray:
        """Image of the groupoid basis element for s: zero unless rk(s) = k,
        otherwise ρ(y) in the (ran(s), dom(s)) cell."""
        out = np.zeros((self.dim, self.dim))
        if s.rank == self.k:
            ran, y, dom = factorize(s)
            block = self.base.evaluate(y.to_perm_tuple())
            d = self.base.dim
            a, b = ksubset_index(ran), ksubset_index(dom)
            out[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
        return out

    def eval_semigroup(self, s: PartialPermutation) -> np.ndarray:
        """Image of s itself: the sum over all restrictions of rank k."""
        out = np.zeros((self.dim, self.dim))
        for t in restrictions(s):
            if t.rank == self.k:
                out += self.eval_groupoid(t)
        return out


@cache
def stein_rep(shape: Shape, n: int) -> SteinRep:
    k = sum(shape)
    if k > n:
        raise ValueError(f"weight of {shape} exceeds n = {n}")
    return SteinRep(shape=shape, n=n, base=seminormal_rep(shape), subsets=ksubsets(n, k))
