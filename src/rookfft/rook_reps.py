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
  It lives in ``symmetric`` (at n = k it is the seminormal family of S_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .core import PartialPermutation, factorize, ksubset_index, ksubsets, restrictions
from .symmetric import HalversonRep, halverson_rep, perm_image, seminormal_rep
from .tableaux import Shape, corners, entries, num_standard, partitions, remove_corner


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
    base: HalversonRep
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
            block = perm_image(self.shape, y.image)
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
