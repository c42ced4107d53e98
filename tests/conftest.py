import random

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
from rookfft.core import PartialPermutation


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
