"""Integer index tables for dense functions on R_n.

The hot paths hold a function on R_n as a complex vector indexed like
``enumerate_rn(n)``.  An element is located by its image code
Σ_p img[p]·(n+1)^(n-1-p), which grows with the image tuple, so the sorted
codes of R_n are in canonical order and ``np.searchsorted`` maps a code to
its position.  ``flat_positions`` computes the codes of flat-form terms
straight from their points, with no image row.  The rank-k elements are
generated as x = p_A·y·p_B⁻¹ over range subsets A, domain subsets B
(colex order) and y ∈ S_k (Clausen order), which is the (cell, column)
layout the groupoid FFT consumes.

The recursive FFT splits R_m into 2m translated copies of R_{m-1}
(``slice_index``); composing those tables down the chain places every
element at one base node.

The rank-major cell layout (``cell_layout``) lists the positions of R_n
rank by rank, each rank in its ``cell_index`` order.  The zeta and Möbius
passes run as n steps over it (``zeta_steps``): step j takes every element
of rank ≥ j, a tail of the layout, to that element without its j-th
smallest domain point.  The target tables are built from two small ones, a
subset-drop and a permutation-deletion table, with no search over image
codes.  They hold Σ_k k·|R_{n,k}| int32 positions: 21 KB at n=5, 223 KB
at n=6, 2.6 MB at n=7 and 33.5 MB at n=8.  No table over the pairs t ≤ x
(101.8 M of them in R_8) is built.

Every table is built once per n (and rank) with numpy, is read-only and
holds int32 positions.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import comb, factorial

import numpy as np

from .core import FlatTerms, PartialPermutation, check_n, ksubsets, size
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


def _cell_codes(n: int) -> np.ndarray:
    """Image codes of R_n rank by rank, each rank in (cell, column) order."""
    return np.concatenate([_terms(n, k).sum(axis=-1).ravel() for k in range(n + 1)])


@cache
def image_codes(n: int) -> np.ndarray:
    """Sorted image codes of R_n; position i is the code of enumerate_rn(n)[i]."""
    return _frozen(np.sort(_cell_codes(n)))


def element_index(n: int, images: np.ndarray) -> np.ndarray:
    """Positions in enumerate_rn(n) of the elements with these image rows."""
    return np.searchsorted(image_codes(n), images @ _powers(n))


_BITS = 28  # low bits of a flat_positions word: the bits of MAX_N = 8 pairs sum below 2^28
_TERMS = 1 << 16  # terms per flat_positions pass


def flat_positions(n: int, terms: FlatTerms) -> tuple[np.ndarray, np.ndarray]:
    """Positions in enumerate_rn(n) of flat-form terms (``read_flat``) on
    {1..n}, and a (T,) mask of the terms refused: ungrammatical, a point
    outside 1..n, a domain point mapped twice, or a repeated image point.
    A refused term's position is meaningless.  n is checked as by
    ``check_n``, so a point read as 10 is always outside.

    The codes come straight from the points, one word per pair.  A pair
    a->b (points are 0..10) is looked up at a·11 + b in a table of 121
    words: its part b·(n+1)^(n-a) of the image code shifted past _BITS
    bits, plus the bits 2^a + 2^(16+b); or 1 when a point lies outside
    1..n.  A term's pairs are one run of the points, so each term's sum
    and union of words are one ``reduceat`` each over the runs, _TERMS
    terms at a time, so that the per-pair arrays stay small.  A term of
    at most n pairs, all inside, sums to below 2^_BITS in the low bits, so
    the code is the sum shifted back, and its low bits equal their union
    exactly when no point repeats.  A term of more than n pairs has a
    point outside or repeats one.
    """
    check_n(n)
    point = np.arange(11, dtype=np.int64)
    inside = (point >= 1) & (point <= n)
    code = ((n + 1) ** np.maximum(n - point, 0))[:, None] * point
    bits = (1 << point[:, None]) + (1 << (16 + point))
    word_of = np.where(inside[:, None] & inside, (code << _BITS) + bits, 1).ravel()
    low = (1 << _BITS) - 1
    codes = np.zeros(len(terms.pairs), dtype=np.int64)
    refused = ~terms.grammatical
    done = 0  # pairs of the terms before the slice
    for at in range(0, len(codes), _TERMS):
        pairs = terms.pairs[at : at + _TERMS]
        count = int(pairs.sum())
        runs = np.flatnonzero(pairs)
        if len(runs):
            points = terms.points[2 * done : 2 * (done + count)]
            words = word_of[points[0::2] * 11 + points[1::2]]
            starts = (np.cumsum(pairs) - pairs)[runs]
            sums = np.add.reduceat(words, starts)
            union = np.bitwise_or.reduceat(words, starts)
            codes[at + runs] = sums >> _BITS
            refused[at + runs] |= (pairs[runs] > n) | ((sums ^ union) & low != 0) | (union & 1 == 1)
        done += count
    return np.searchsorted(image_codes(n), codes), refused


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


@cache
def rank_starts(n: int) -> tuple[int, ...]:
    """Start of each rank k = 0..n in ``cell_layout(n)``, then |R_n|."""
    return tuple(accumulate((comb(n, k) ** 2 * factorial(k) for k in range(n + 1)), initial=0))


@cache
def cell_layout(n: int) -> np.ndarray:
    """(|R_n|,) int32: the positions of R_n rank by rank, each rank in its
    ``cell_index`` order, so rank k fills rank_starts(n)[k:k+2].  Sorting
    the codes in this order gives ``image_codes(n)``, so the layout is the
    inverse of that sort's permutation."""
    layout = np.empty(size(n), dtype=np.int32)
    layout[np.argsort(_cell_codes(n))] = np.arange(size(n), dtype=np.int32)
    return _frozen(layout)


@cache
def cell_index(n: int, k: int) -> np.ndarray:
    """(C(n,k)², k!) int32: row a·C(n,k) + b, column s holds the position of
    p_A·y_s·p_B⁻¹, so gathering a vector through it gives every (A, B) cell
    of the groupoid FFT as one function on S_k in Clausen order.  A view of
    ``cell_layout(n)``."""
    start, stop = rank_starts(n)[k : k + 2]
    return cell_layout(n)[start:stop].reshape(comb(n, k) ** 2, factorial(k))


def _subset_drops(n: int, k: int) -> np.ndarray:
    """(C(n,k), k): entry [a, i] is the colex index of the a-th k-subset
    without its (i+1)-th smallest point, Σ_t C(b_t − 1, t) over the points
    b_1 < … < b_{k−1} left."""
    subsets = np.array(ksubsets(n, k), dtype=np.int64).reshape(comb(n, k), k)
    binom = np.array([[comb(v, t) for t in range(k)] for v in range(n)], dtype=np.int64)
    rests = (np.delete(subsets, i, axis=1) - 1 for i in range(k))
    return np.stack([binom[rest, np.arange(1, k)].sum(axis=1) for rest in rests], axis=1)


def _clausen_index(w: np.ndarray) -> np.ndarray:
    """Clausen columns of the permutations in the rows of w (values 1..m):
    the digit of level m is w(m), and the rest is w without the pair
    m → w(m), its values above w(m) lowered."""
    index = np.zeros(len(w), dtype=np.int64)
    for m in range(w.shape[1], 0, -1):
        last, w = w[:, m - 1 : m], w[:, : m - 1]
        index += (last[:, 0] - 1) * factorial(m - 1)
        w = w - (w > last)
    return index


def _point_deletions(k: int) -> np.ndarray:
    """(k!, k): entry [s, j] is the Clausen column of y_s without its pair
    j+1 → y_s(j+1), the points above either end lowered."""
    w = clausen_perms(k)
    columns = []
    for j in range(k):
        rest = np.delete(w, j, axis=1)
        columns.append(_clausen_index(rest - (rest > w[:, j : j + 1])))
    return np.stack(columns, axis=1)


@cache
def zeta_steps(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The steps of the zeta pass over R_n in the order they run, j = n, …, 1.

    Step j is a pair (sources, targets) of int32 positions in
    ``enumerate_rn(n)``: sources is the tail of ``cell_layout(n)`` from
    rank j, and targets[i] is the element sources[i] without its j-th
    smallest domain point.  For x = p_A·y_s·p_B⁻¹ of rank k that drops the
    pair B[j] → A[y_s(j)], so its row in the layout is
    rank_starts(n)[k−1] + (drop(A, y_s(j))·C(n,k−1) + drop(B, j))·(k−1)! +
    del(s, j), read off the small tables ``_subset_drops`` and
    ``_point_deletions``.  A target has rank k−1, so its row lies below its
    source's.
    """
    layout, starts = cell_layout(n), rank_starts(n)
    small = {k: (_subset_drops(n, k), _point_deletions(k), clausen_perms(k)) for k in range(1, n + 1)}

    def rows(j: int, k: int) -> np.ndarray:
        drops, deletions, w = small[k]
        ran = drops[:, w[:, j - 1] - 1] * (comb(n, k - 1) * factorial(k - 1)) + deletions[:, j - 1]
        dom = drops[:, j - 1] * factorial(k - 1)
        return layout[(starts[k - 1] + ran[:, None, :] + dom[None, :, None]).ravel()]

    return tuple(
        (layout[starts[j] :], _frozen(np.concatenate([rows(j, k) for k in range(j, n + 1)])))
        for j in range(n, 0, -1)
    )


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
