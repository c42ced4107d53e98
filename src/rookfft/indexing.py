"""Integer index tables for dense functions on R_n.

The hot paths hold a function on R_n as a complex vector in the rank-major
cell layout: rank k fills rows ``rank_starts(n)[k]:[k+1]`` as a
(C(n,k)², k!) array, row a·C(n,k) + b the (A_a, B_b) cell and column s the
element p_A·y_s·p_B⁻¹, over range and domain subsets (colex order) and
y_s ∈ S_k (Clausen order): the batch the groupoid FFT consumes.

The canonical order (sorted image tuples) is known here alone.  The image
code Σ_p img[p]·(n+1)^(n-1-p) grows with the image tuple, so
``np.searchsorted`` in the sorted codes (``image_codes``) finds an
element's canonical position, and one more lookup its row.  The lookups
(``element_index``; ``flat_positions``, which computes the codes straight
from the points) return rows, the decodes (``elements_at``,
``flat_forms``) take them, and ``canonical_order`` sorts rows canonically.

The recursive FFT splits R_m into 2m translated copies of R_{m-1}
(``slice_index``); composing those tables down the chain places every
element at one base node.

The zeta and Möbius passes run as n steps over the layout (``zeta_steps``):
step j takes every element of rank ≥ j, a tail of the layout, to that
element without its j-th smallest domain point.  The target tables are
built from a subset-drop and a permutation-deletion table, with no search
over image codes, and hold Σ_k k·|R_{n,k}| int32 rows: 21 KB at n=5,
223 KB at n=6, 2.6 MB at n=7 and 33.5 MB at n=8.  No table over the pairs
t ≤ x (101.8 M of them in R_8) is built.

Every table is built once per n (and rank) with numpy and is read-only.
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


@cache
def _orders(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted image codes, the canonical position of each layout row and
    the row of each canonical position: each row's code above bit 32 and the
    row below, written rank by rank into one vector and sorted in place."""
    packed, starts = np.empty(size(n), dtype=np.int64), rank_starts(n)
    for k in range(n + 1):
        # the code of x = p_A·y_s·p_B⁻¹ sums A[y_s(j)]·(n+1)^(n-B[j]) over its k pairs
        subsets = np.array(ksubsets(n, k), dtype=np.int64).reshape(comb(n, k), k)
        rank = packed[starts[k] : starts[k + 1]].reshape(len(subsets), len(subsets), -1)
        np.einsum("asj,bj->abs", subsets[:, clausen_perms(k) - 1], _powers(n)[subsets - 1], out=rank)
        rank <<= 32
        rank += np.arange(*starts[k : k + 2]).reshape(rank.shape)
    packed.sort()
    rows = np.empty(size(n), dtype=np.int32)
    np.bitwise_and(packed, 0xFFFFFFFF, out=rows, casting="unsafe")
    packed >>= 32
    layout = np.empty(size(n), dtype=np.int32)
    layout[rows] = np.arange(size(n), dtype=np.int32)
    return _frozen(packed), _frozen(layout), _frozen(rows)


def image_codes(n: int) -> np.ndarray:
    """Sorted image codes of R_n, in canonical order."""
    return _orders(n)[0]


def cell_layout(n: int) -> np.ndarray:
    """(|R_n|,) int32: the canonical position of each layout row."""
    return _orders(n)[1]


def canonical_order(n: int, rows: np.ndarray) -> np.ndarray:
    """These layout rows sorted in canonical order, by their canonical
    positions."""
    _, layout, canonical_rows = _orders(n)
    return canonical_rows[np.sort(layout[rows])]


def element_index(n: int, images: np.ndarray) -> np.ndarray:
    """Layout rows of the elements with these image rows."""
    codes, _, canonical_rows = _orders(n)
    return canonical_rows[np.searchsorted(codes, images @ _powers(n))]


_BITS = 28  # low bits of a flat_positions word: the bits of MAX_N = 8 pairs sum below 2^28
_TERMS = 1 << 16  # terms per flat_positions pass


def flat_positions(n: int, terms: FlatTerms) -> tuple[np.ndarray, np.ndarray]:
    """Layout rows of flat-form terms (``read_flat``) on {1..n}, and a (T,)
    mask of the terms refused: ungrammatical, a point outside 1..n, a domain
    point mapped twice, or a repeated image point.  A refused term's row is
    meaningless.  n is checked as by ``check_n``, so a point read as 10 is
    always outside.

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
    sorted_codes, _, canonical_rows = _orders(n)
    return canonical_rows.take(np.searchsorted(sorted_codes, codes), mode="clip"), refused


def elements_at(n: int, rows: np.ndarray) -> list[PartialPermutation]:
    """The elements in these layout rows, decoded from their image codes;
    nothing of R_n is enumerated or kept."""
    digits = image_codes(n)[cell_layout(n)[rows]][:, None] // _powers(n) % (n + 1)
    return PartialPermutation._unchecked(n, map(tuple, digits.tolist()))


def flat_forms(n: int, rows: np.ndarray) -> list[str]:
    """The flat forms "a->b;c->d" of the elements in these layout rows, as
    ``PartialPermutation.to_flat`` spells them, built as
    bytes from the image digits, all terms at once: a term is the pairs
    "a->b;" of the points a of 1..n ≤ 9 that have an image b, then a
    newline; the ";" before each newline is dropped and the text split
    there."""
    codes = image_codes(n)[cell_layout(n)[rows]]
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
    """First layout row of each rank k = 0..n, then |R_n|."""
    return tuple(accumulate((comb(n, k) ** 2 * factorial(k) for k in range(n + 1)), initial=0))


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
def zeta_steps(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The steps of the zeta pass over R_n in the order they run, j = n, …, 1.

    Step j is a pair (first, targets): its sources are the layout rows from
    first = rank_starts(n)[j] on, the elements of rank ≥ j, and targets[i]
    is the int32 row of source first + i without its j-th smallest domain
    point.  For x = p_A·y_s·p_B⁻¹ of rank k that drops the pair
    B[j] → A[y_s(j)], so its row is rank_starts(n)[k−1] +
    (drop(A, y_s(j))·C(n,k−1) + drop(B, j))·(k−1)! + del(s, j), read off the
    small tables ``_subset_drops`` and ``_point_deletions``.  A target has
    rank k−1, so its row lies below its source's.
    """
    starts = rank_starts(n)
    small = {k: (_subset_drops(n, k), _point_deletions(k), clausen_perms(k)) for k in range(1, n + 1)}

    def rows(j: int, k: int) -> np.ndarray:
        drops, deletions, w = small[k]
        ran = drops[:, w[:, j - 1] - 1] * (comb(n, k - 1) * factorial(k - 1)) + deletions[:, j - 1]
        dom = drops[:, j - 1] * factorial(k - 1)
        return (starts[k - 1] + ran[:, None, :] + dom[None, :, None]).astype(np.int32).ravel()

    return tuple(
        (starts[j], _frozen(np.concatenate([rows(j, k) for k in range(j, n + 1)])))
        for j in range(n, 0, -1)
    )


@cache
def slice_index(m: int) -> np.ndarray:
    """(|R_m|, 2) int32 for m ≥ 2: row i holds the slice of the element x in
    layout row i of R_m in the recursive FFT's split of R_m, and the layout
    row in R_{m-1} of the s ∈ R_{m-1} that x translates.

    Slice 2i-2 (i = 1..m) holds x = T_i·s, when x(m) = i; slice 2i-1
    (i = 1..m-1) holds x = s·T^i, when x(i) = m and x(m) is undefined; slice
    2m-1 holds x = [m]·s, when m is in neither the domain nor the range.
    Both slices of an i take the generators t_m, …, t_{i+1}.
    """
    codes = image_codes(m)[cell_layout(m)]
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
