"""Integer index tables for dense functions on R_n.

The hot paths hold a function on R_n as a complex vector indexed like
``enumerate_rn(n)``.  An element is located by its image code
Σ_p img[p]·(n+1)^(n-1-p), which grows with the image tuple, so the sorted
codes of R_n are in canonical order and ``np.searchsorted`` maps a code to
its position.  The rank-k elements are generated as x = p_A·y·p_B⁻¹ over
range subsets A, domain subsets B (colex order) and y ∈ S_k (Clausen
order), which is the (cell, column) layout the groupoid FFT consumes.

The recursive FFT splits R_m into 2m translated copies of R_{m-1}
(``slice_index``); composing those tables down the chain places every
element at one base node.

Every table is built once per n (and rank) with numpy, is read-only and
holds int32 positions.  Restrictions are located per call, one domain
point at a time, so no table over all pairs t ≤ x exists.
"""

from __future__ import annotations

from functools import cache
from math import comb

import numpy as np

from .core import PartialPermutation, ksubsets
from .symmetric import clausen_perms


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _powers(n: int) -> np.ndarray:
    """Weight (n+1)^(n-1-p) of image position p in the code."""
    return (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _terms(n: int, k: int) -> np.ndarray:
    """(C, C, k!, k) code terms of the rank-k elements.

    Entry [a, b, s, j] is the code contribution of the pair B[j] → A[y_s(j)]
    of x = p_A·y_s·p_B⁻¹, with A, B the a-th and b-th k-subsets; the code of
    x sums its k terms, and a restriction of x sums a subset of them.
    """
    subsets = np.array(ksubsets(n, k), dtype=np.int64).reshape(comb(n, k), k)
    values = subsets[:, clausen_perms(k) - 1]  # A[y(j)]: (C, k!, k)
    weights = _powers(n)[subsets - 1]  # position weight of B[j]: (C, k)
    return values[:, None, :, :] * weights[None, :, None, :]


@cache
def image_codes(n: int) -> np.ndarray:
    """Sorted image codes of R_n; position i is the code of enumerate_rn(n)[i]."""
    codes = np.concatenate([_terms(n, k).sum(axis=-1).ravel() for k in range(n + 1)])
    return _frozen(np.sort(codes))


def element_index(n: int, images: np.ndarray) -> np.ndarray:
    """Positions in enumerate_rn(n) of the elements with these image rows."""
    return np.searchsorted(image_codes(n), images @ _powers(n))


def elements_at(n: int, positions: np.ndarray) -> list[PartialPermutation]:
    """The elements at these positions of enumerate_rn(n), decoded from
    their image codes; nothing of R_n is enumerated or kept."""
    digits = image_codes(n)[positions][:, None] // _powers(n) % (n + 1)
    return PartialPermutation._unchecked(n, map(tuple, digits.tolist()))


def flat_forms(n: int, positions: np.ndarray) -> list[str]:
    """The flat forms "a->b;c->d" of the elements at these positions of
    enumerate_rn(n), as ``PartialPermutation.to_flat`` spells them, built as
    bytes from the image digits, all terms at once: a term is the pairs
    "a->b;" of the points a of 1..n ≤ 9 that have an image b, then a
    newline; the ";" before each newline is dropped and the text split
    there."""
    codes = image_codes(n)[positions]
    text = np.empty((len(codes), 5 * n + 1), dtype=np.uint8)
    text[:] = np.frombuffer("".join(f"{a}->0;" for a in range(1, n + 1)).encode() + b"\n", np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for p, w in enumerate(_powers(n)):
        digit = (codes // w % (n + 1)).astype(np.uint8)
        text[:, 5 * p + 3] += digit
        keep[:, 5 * p : 5 * p + 5] = (digit != 0)[:, None]
    joined = text[keep].tobytes().decode("ascii")
    return joined.replace(";\n", "\n").split("\n")[:-1]


def ranks_at(n: int, positions: np.ndarray) -> np.ndarray:
    """Ranks of the elements at these positions of enumerate_rn(n)."""
    codes = image_codes(n)[positions]
    return sum((codes // w % (n + 1) != 0 for w in _powers(n)), np.zeros(len(codes), dtype=np.int64))


@cache
def cell_index(n: int, k: int) -> np.ndarray:
    """(C(n,k)², k!) int32: row a·C(n,k) + b, column s holds the position of
    p_A·y_s·p_B⁻¹, so gathering a vector through it gives every (A, B) cell
    of the groupoid FFT as one function on S_k in Clausen order."""
    codes = _terms(n, k).sum(axis=-1).reshape(comb(n, k) ** 2, -1)
    return _frozen(np.searchsorted(image_codes(n), codes).astype(np.int32))


def without_point(n: int, positions: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Of these positions, the ones whose element has p in its domain
    (p counted from 0), and the positions of those elements with the pair at
    p removed; the work is one searchsorted per element kept."""
    codes = image_codes(n)
    weight = (n + 1) ** (n - 1 - p)
    digit = codes[positions] // weight % (n + 1)
    kept = np.flatnonzero(digit)
    return positions[kept], np.searchsorted(codes, codes[positions[kept]] - digit[kept] * weight)


@cache
def slice_index(m: int) -> np.ndarray:
    """(|R_m|, 2) int32 for m ≥ 2: row i holds the slice of
    x = enumerate_rn(m)[i] in the recursive FFT's split of R_m, and the
    position in enumerate_rn(m-1) of the s ∈ R_{m-1} that x translates.

    Slice 2i-2 (i = 1..m) holds x = T_i·s, when x(m) = i; slice 2i-1
    (i = 1..m-1) holds x = s·T^i, when x(i) = m and x(m) is undefined; slice
    2m-1 holds x = [m]·s, when m is in neither the domain nor the range.
    Both slices of an i take the generators t_m, …, t_{i+1}.
    """
    codes = image_codes(m)
    img = np.stack([(codes // w % (m + 1)).astype(np.int8) for w in _powers(m)], axis=1)
    last = img[:, -1]
    hits = (img[:, :-1] == m) & (last == 0)[:, None]
    up = hits.any(axis=1)
    i_up = hits.argmax(axis=1)
    slices = np.where(last > 0, 2 * last - 2, np.where(up, 2 * i_up + 1, 2 * m - 1))
    # T_i: drop x(m), lower the values above i; up: delete the slot i; link: drop x(m)
    skip = up[:, None] & (np.arange(m - 1) >= i_up[:, None])
    s = np.where(skip, img[:, 1:], img[:, :-1])
    s -= (s > last[:, None]) & (last > 0)[:, None]
    return _frozen(np.stack([slices, element_index(m - 1, s)], axis=1).astype(np.int32))
