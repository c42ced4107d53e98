import random

import numpy as np
from hypothesis import strategies as st

from rookfft.algebra import GROUPOID, AlgebraElement, random_element
from rookfft.core import PartialPermutation


def rand_elem(n: int, basis: str, seed: int, support: str = "full") -> AlgebraElement:
    return random_element(n, basis, random.Random(seed), support)


def sparse_element(n: int, terms: int, seed: int) -> AlgebraElement:
    """A seeded groupoid-basis element with the given number of terms,
    drawn without enumerating R_n."""
    rng = random.Random(seed)
    coeffs = {}
    while len(coeffs) < terms:
        k = rng.randint(0, n)
        pairs = zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k))
        coeffs[PartialPermutation.from_pairs(n, pairs)] = complex(
            rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
    return AlgebraElement(n, GROUPOID, coeffs)


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
