import random
import re
import sys
from itertools import combinations, permutations
from math import factorial, sqrt

import numpy as np
from hypothesis import strategies as st

from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    _require,
    convolve_groupoid,
    convolve_semigroup,
    random_element,
)
from rookfft.core import (
    CanonicalFactorization,
    ParseError,
    PartialPermutation,
    _check_image,
    _pairs_image,
    check_n,
    compose,
    ksubsets,
    json_complex,
    json_int,
    order_preserving,
    read_flat,
    refuse_flat,
    restrictions,
    size,
)
from rookfft.counting import OpCounter
from rookfft.indexing import element_index, elements_at, flat_positions
from rookfft.rook_reps import SteinRep, halverson_rep, labels
from rookfft.symmetric import (
    Perm,
    _clausen_column,
    _coset_costs,
    _coset_images,
    perm_image,
)
from rookfft.tableaux import (
    Shape,
    Tableau,
    content,
    entries,
    find_entry,
    is_standard,
    num_standard,
    partitions,
    swap_adjacent,
)


def rand_elem(n: int, basis: str, seed: int, support: str = "full") -> AlgebraElement:
    return random_element(n, basis, random.Random(seed), support)


def sparse_element(n: int, terms: int, seed: int, basis: str = GROUPOID) -> AlgebraElement:
    """A seeded element with the given number of terms, drawn without
    enumerating R_n."""
    rng = random.Random(seed)
    coeffs = {}
    while len(coeffs) < terms:
        k = rng.randint(0, n)
        pairs = zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k))
        coeffs[PartialPermutation.from_pairs(n, pairs)] = complex(
            rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
    return AlgebraElement(n, basis, coeffs)


def reference_enumerate_rn(n: int) -> tuple[PartialPermutation, ...]:
    """All elements of R_n built as domain subsets times value
    arrangements and sorted by image tuple: the oracle for
    ``enumerate_rn``, which decodes image codes."""
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(1, n + 1), k):
            for values in permutations(range(1, n + 1), k):
                img = [0] * n
                for a, b in zip(dom, values):
                    img[a - 1] = b
                elems.append(PartialPermutation(n, img))
    elems.sort(key=lambda s: s.image)
    return tuple(elems)


def as_matrix(s: PartialPermutation) -> np.ndarray:
    """0/1 rook matrix of s with a 1 at (s(b), b)."""
    M = np.zeros((s.n, s.n), dtype=int)
    for b, a in s.pairs():
        M[a - 1, b - 1] = 1
    return M


def extended(s: PartialPermutation, n: int) -> PartialPermutation:
    """s in the larger ambient set {1..n}; the new points unmapped."""
    if n < s.n:
        raise ValueError("extended() cannot shrink the ambient set")
    return PartialPermutation(n, s.image + (0,) * (n - s.n))


def extended_fixed(s: PartialPermutation, n: int) -> PartialPermutation:
    """s in the larger ambient set {1..n}; the new points fixed.  This is
    the embedding R_m < R_n of the chain R_n > R_{n-1} > ... > R_1."""
    if n < s.n:
        raise ValueError("extended_fixed() cannot shrink the ambient set")
    return PartialPermutation(n, s.image + tuple(range(s.n + 1, n + 1)))


def reassemble(fact: CanonicalFactorization, n: int) -> PartialPermutation:
    """p_({1..k}->ran) ∘ y ∘ p_(dom->{1..k}): the inverse of ``factorize``."""
    k = fact.y.n
    p_out = order_preserving(n, range(1, k + 1), fact.ran)
    p_in = order_preserving(n, fact.dom, range(1, k + 1))
    return compose(compose(p_out, extended(fact.y, n)), p_in)


def image_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """(T, n) int64 image rows of the elements in these layout rows of a
    coefficient vector (``elements_at``)."""
    return np.array([s.image for s in elements_at(n, rows)], dtype=np.int64).reshape(len(rows), n)


def flat_images(n: int, texts: list) -> np.ndarray:
    """(T, n) image rows of the flat forms, each checked as by
    ``flat_image``; the first refused term raises its ParseError."""
    at, refused = flat_positions(n, read_flat(texts))
    if refused.any():
        refuse_flat(n, texts[int(refused.argmax())])
    return image_rows(n, at)


def eval_semigroup(rep: SteinRep, s: PartialPermutation) -> np.ndarray:
    """Image of s itself under a stein representation: the sum of the
    groupoid images of its restrictions of rank k."""
    out = np.zeros((rep.dim, rep.dim))
    for t in restrictions(s):
        if t.rank == rep.k:
            out += rep.eval_groupoid(t)
    return out


def halverson_similarity(shape: Shape, n: int) -> np.ndarray:
    """U with U⁻¹·ρ_H(x)·U = ρ_S(x) for every x ∈ R_n, as a matrix: the
    columns of cell {1..k} are the unit vectors of V₀, and each other cell A
    is ρ(t_a) times the columns of A with a-1 in place of a, as
    ``rook_reps.halverson_permutation`` says; the oracle of its index."""
    rep = halverson_rep(shape, n)
    k = sum(shape)
    first = tuple(range(1, k + 1))
    v0 = [j for j, L in enumerate(rep.basis) if entries(L) == frozenset(first)]
    cols = {first: np.eye(rep.dim)[:, v0]}
    for A in ksubsets(n, k)[1:]:
        a = next(a for a in A if a > 1 and a - 1 not in A)
        cols[A] = rep.pairings[a].dense() @ cols[tuple(a - 1 if b == a else b for b in A)]
    return np.hstack([cols[A] for A in ksubsets(n, k)])


def transposition_image(basis: tuple[Tableau, ...], i: int) -> np.ndarray:
    """Dense matrix of t_i = (i-1, i) acting on the span of an n-standard
    basis, entry by entry: the reference for the pairings
    ``symmetric.transposition_image`` builds.

    On a basis vector indexed by L: when both i-1 and i appear in L the
    action mixes L with the swapped tableau in Young's orthogonal form, 1/r
    on the diagonal and √(1 − 1/r²) at the swapped tableau, with r =
    ct(L(i)) - ct(L(i-1)); when exactly one appears it just relabels; when
    neither appears it fixes the vector.
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
                M[index[swapped], col] += sqrt(1.0 - 1.0 / diff**2)
        elif pos_i is not None or pos_prev is not None:
            M[index[swap_adjacent(L, i)], col] = 1.0
        else:
            M[col, col] = 1.0
    return M


def perm_compose(u: Perm, v: Perm) -> Perm:
    """u∘v."""
    return tuple(u[x - 1] for x in v)


def sn_naive(f: dict, n: int) -> dict[Shape, np.ndarray]:
    """Direct evaluation of all blocks: the oracle for ``sn_fft``, which
    refuses the same keys."""
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


def reference_sn_fft_batch(
    batch: np.ndarray, k: int, counter: OpCounter | None = None
) -> dict[Shape, np.ndarray]:
    """Clausen's recursion run level by level from S_1, every level 2..k a
    matmul per (λ ⊢ m, μ ∈ branch_sn(λ)) over the whole batch, charged from
    occupancy: the oracle for ``sn_fft_batch``, which starts from a cached
    S_5 table."""
    if counter is None:
        counter = OpCounter()
    batch = np.asarray(batch, dtype=complex)
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
            for offset, dm, mu, Q, _ in _coset_images(shape):
                out[:, :, offset : offset + dm] = Q @ level[mu].reshape(nodes, m * dm, dm)
            nxt[shape] = out
        level = nxt
    return level


def reference_sn_ifft_batch(level: dict, k: int) -> np.ndarray:
    """The levels of ``reference_sn_fft_batch`` run backwards down to S_1,
    each child coset recovered by Fourier inversion on S_{m−1}: the oracle
    for ``sn_ifft_batch``."""
    stacks = {shape: np.asarray(level[shape], dtype=complex) for shape in partitions(k)}
    for m in range(k, 1, -1):
        below: dict[Shape, np.ndarray] = {}
        for shape in partitions(m):
            F = stacks[shape]
            for offset, dm, mu, _, R in _coset_images(shape):
                child = (R @ F[:, :, offset : offset + dm]).reshape(-1, dm, dm)
                below[mu] = below[mu] + child if mu in below else child
        stacks = below
    (last,) = stacks.values()
    return last.reshape(-1, factorial(k))


def reference_flat_image(n: int, text: str) -> tuple[int, ...]:
    """The flat form parsed one term at a time, points matched by ``\\d``:
    the oracle for the batched parse (``read_flat``, ``flat_positions``).
    ``\\d`` also reads non-ASCII digits, which the batch refuses, so
    compare the two on ASCII digits only."""
    text = text.strip()
    pairs = []
    for part in text.split(";") if text else ():
        m = re.fullmatch(r"\s*(\d+)\s*->\s*(\d+)\s*", part)
        if m is None:
            raise ParseError(f"bad mapping {part!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    try:
        img = tuple(_pairs_image(n, pairs))
        _check_image(n, img)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return img


# The flat-form grammar: points are ASCII digits, whitespace is whatever
# str.strip() removes (the regex \s matches exactly the str.isspace() characters).
FLAT_RE = re.compile(r"\s*(?:[0-9]+\s*->\s*[0-9]+\s*(?:;\s*[0-9]+\s*->\s*[0-9]+\s*)*)?")


def reference_read_flat(texts: list) -> tuple[list[bool], list[int], list[int]]:
    """``read_flat``'s grammatical, pairs and points, one regex per term:
    the grammar oracle.  A point above 9, or longer than ``int`` reads,
    is 10."""
    limit = sys.get_int_max_str_digits()
    grammatical, pairs, points = [], [], []
    for t in texts:
        ok = isinstance(t, str) and FLAT_RE.fullmatch(t) is not None
        grammatical.append(ok)
        pairs.append(t.count(">") if ok else 0)
        for run in re.findall("[0-9]+", t) if ok else ():
            points.append(10 if (limit and len(run) > limit) or int(run) > 9 else int(run))
    return grammatical, pairs, points


def reference_from_json_dict(data: dict) -> np.ndarray:
    """The coefficient vector of an element JSON built term by term,
    through ``reference_flat_image``: the oracle for ``from_json_dict``."""
    try:
        n = json_int(data["n"], "n")
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad algebra element JSON: {exc}") from None
    check_n(n)
    images, coeffs = [], []
    for term in terms:
        try:
            flat = term["elem"]
            c = json_complex(term)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"bad algebra element term {term!r}: {exc}") from None
        if not isinstance(flat, str):
            raise ParseError(f"bad algebra element term {term!r}: elem must be a string")
        images.append(reference_flat_image(n, flat))
        coeffs.append(c)
    values = np.zeros(size(n), dtype=complex)
    np.add.at(values, element_index(n, np.array(images, dtype=np.int64).reshape(len(images), n)), coeffs)
    return values


def reference_block_json(F) -> dict:
    """The block JSON written block by block and row by row, one
    ``tolist`` per block: the oracle for ``transforms.to_json_dict``."""
    data: dict = {"n": F.n, "format": "rookfft-blocks-1", "ops": F.ops.multiply_adds, "blocks": []}
    for shape in labels(F.n):
        M = np.asarray(F.blocks[shape], dtype=complex)
        data["blocks"].append({
            "lambda": list(shape),
            "k": sum(shape),
            "dim": int(M.shape[0]),
            "rows": [[{"re": re, "im": im} for re, im in zip(real, imag)]
                     for real, imag in zip(M.real.tolist(), M.imag.tolist())],
        })
    return data


def reference_without_point(n: int, rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Of these layout rows, the ones whose element has p in its domain
    (p counted from 0), and the rows of those elements with the pair at p
    removed, decoded and looked up again (``image_rows``,
    ``element_index``)."""
    images = image_rows(n, rows)
    kept = np.flatnonzero(images[:, p])
    images = images[kept]
    images[:, p] = 0
    return rows[kept], element_index(n, images)


def reference_spread(f: AlgebraElement, signed: bool) -> np.ndarray:
    """Σ_{x ≥ t} f(x) into slot t, times (−1)^(rk x − rk t) when signed, as
    a Yates pass over the domain points p = 1..n that pushes every nonzero
    value at an x with p in its domain onto x without p: the per-point
    pass, the oracle for ``algebra._spread`` at any n (its work follows the
    support, so sparse inputs at n = 8 are cheap)."""
    out = f.values.copy()
    sign = -1.0 if signed else 1.0
    for p in range(f.n):
        sources, targets = reference_without_point(f.n, np.flatnonzero(out), p)
        np.add.at(out, targets, sign * out[sources])
    return out


def direct_convolve_semigroup(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f∗g)(s) = Σ_{rt=s} f(r)g(t) by a loop over pairs of terms: the
    oracle for ``convolve_semigroup`` (quadratic in the support, n ≤ 5)."""
    _require(f, SEMIGROUP)
    _require(g, SEMIGROUP)
    f._check_compatible(g)
    out: dict[PartialPermutation, complex] = {}
    g_terms = list(g.items())
    for r, fr in f.items():
        for t, gt in g_terms:
            s = r * t
            out[s] = out.get(s, 0j) + fr * gt
    return AlgebraElement(f.n, SEMIGROUP, out)


def direct_convolve_groupoid(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """⌊r⌋⌊t⌋ = ⌊rt⌋ if dom(r) = ran(t), else 0, by a loop over pairs of
    terms: the oracle for ``convolve_groupoid`` (n ≤ 5)."""
    _require(f, GROUPOID)
    _require(g, GROUPOID)
    f._check_compatible(g)
    out: dict[PartialPermutation, complex] = {}
    g_terms = [(t, t.ran(), gt) for t, gt in g.items()]
    for r, fr in f.items():
        rdom = r.dom()
        for t, tran, gt in g_terms:
            if rdom == tran:
                s = r * t
                out[s] = out.get(s, 0j) + fr * gt
    return AlgebraElement(f.n, GROUPOID, out)


def assert_product_matches_oracle(f: AlgebraElement, g: AlgebraElement) -> None:
    """The convolution of f and g in their basis has the nonzero slots of
    the direct sum, and values within 1e-9 times its largest coefficient."""
    if f.basis == SEMIGROUP:
        got, want = convolve_semigroup(f, g), direct_convolve_semigroup(f, g)
    else:
        got, want = convolve_groupoid(f, g), direct_convolve_groupoid(f, g)
    assert (got.n, got.basis) == (want.n, want.basis)
    assert np.array_equal(np.flatnonzero(got.values), np.flatnonzero(want.values))
    scale = np.abs(want.values).max(initial=0.0)
    assert np.abs(got.values - want.values).max(initial=0.0) <= 1e-9 * scale


def block_diag(mats: list[np.ndarray], dim: int) -> np.ndarray:
    """Sub-blocks down the diagonal of a dim × dim complex matrix."""
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for M in mats:
        d = M.shape[0]
        out[at : at + d, at : at + d] = M
        at += d
    if at != dim:
        raise ValueError(f"blocks fill {at} of {dim} dimensions")
    return out


@st.composite
def partial_perms(draw, min_n: int = 0, max_n: int = 4):
    """A random injective partial map on {1..n}."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(0, n))
    dom = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    values = draw(st.permutations(range(1, n + 1)))[:k]
    return PartialPermutation.from_pairs(n, zip(dom, values))


@st.composite
def partial_perm_pairs(draw, max_n: int = 4):
    """Two elements with a common ambient size."""
    n = draw(st.integers(0, max_n))
    return (
        draw(partial_perms(min_n=n, max_n=n)),
        draw(partial_perms(min_n=n, max_n=n)),
    )
