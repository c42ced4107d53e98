"""Irreducible matrix representations of the rook monoid R_n.

Two equivalent families, both indexed by partitions λ ⊢ k for 0 ≤ k ≤ n:

* the tensor-up family ("stein"), built from Young's orthogonal
  representation ρ of S_k placed into a C(n,k)×C(n,k) grid of d_ρ×d_ρ
  cells indexed by k-subsets: the groupoid basis element for s of rank k
  maps to ρ(y) in cell (ran(s), dom(s)) and every other element of the
  basis to 0;

* the tableau family ("halverson"), acting on n-standard tableaux with
  the content coefficients of Young's orthogonal form, extended by the
  rank-dropping generator [n] = (1)(2)..(n-1)[n] which kills every tableau
  containing n.  With the generalized last-letter basis order these
  matrices are chain-adapted to R_n > R_{n-1} > ... > R_1, which the
  recursive transform relies on.  It lives in ``symmetric`` (at n = k it
  is the orthogonal family of S_k).

In both, ρ(w)⁻¹ = ρ(w)ᵀ for every w ∈ S_k, and the two are related by a
permutation of the tableaux (``halverson_permutation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .core import PartialPermutation, factorize, ksubset_index, ksubsets
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
def halverson_permutation(shape: Shape, n: int) -> np.ndarray:
    """The index p with ρ_S(x) = ρ_H(x)[p][:, p] for every x ∈ R_n: the
    change of basis from the halverson family to the stein family for
    λ ⊢ k, a permutation of the tableaux.  Read-only.

    Let V₀ be the tableaux whose entries are exactly {1..k}: elements of
    rank below k act on λ as zero, and S_k acts on V₀ by its orthogonal
    matrices, in the basis order of ``seminormal_rep``.  The stein basis
    vector v of cell A is then ρ_H(p_({1..k}→A))·v, so the similarity U
    with U⁻¹·ρ_H(x)·U = ρ_S(x) is [ρ_H(p_({1..k}→A))[:, V₀] for A in
    ksubsets(n, k)], side by side.  ρ_H(p_({1..k}→{1..k})) keeps exactly V₀,
    and every other A takes one generator from a subset before it in colex
    order: with a the least point of A above 1 such that a-1 ∉ A,
    p_({1..k}→A) = t_a·p_({1..k}→A') for A' = A with a-1 in place of a.
    Each column of U for A' is a tableau holding a-1 but not a, and t_a
    only relabels a-1 as a there, so it sends that column to one other
    tableau: U is a 0/1 permutation matrix, column j the unit vector at
    p[j], and U⁻¹·F̂·U is the gather F̂[p][:, p].
    """
    rep = halverson_rep(shape, n)
    k = sum(shape)
    first = tuple(range(1, k + 1))
    v0 = [j for j, L in enumerate(rep.basis) if entries(L) == frozenset(first)]
    rows = {first: np.array(v0, dtype=np.intp)}
    for A in ksubsets(n, k)[1:]:
        a = next(a for a in A if a > 1 and a - 1 not in A)
        before = rows[tuple(a - 1 if b == a else b for b in A)]
        rows[A] = rep.pairings[a].partner[before]
    p = np.concatenate([rows[A] for A in ksubsets(n, k)])
    p.flags.writeable = False
    return p


@dataclass
class SteinRep:
    """Tensor-up irreducible representation of R_n from Young's orthogonal ρ on S_k."""

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


@cache
def stein_rep(shape: Shape, n: int) -> SteinRep:
    k = sum(shape)
    if k > n:
        raise ValueError(f"weight of {shape} exceeds n = {n}")
    return SteinRep(shape=shape, n=n, base=seminormal_rep(shape), subsets=ksubsets(n, k))
