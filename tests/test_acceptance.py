"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from conftest import block_diag, direct_convolve_groupoid, extended_fixed
from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    convolve_semigroup,
    inner1,
    inner2,
    random_element,
    to_groupoid,
    to_semigroup,
)
from rookfft.cli import main as cli_main
from rookfft.core import PartialPermutation, enumerate_rn, size, size_recursive
from rookfft.rook_reps import branch_rn, dim, halverson_rep, labels
from rookfft.symmetric import all_perms, branch_sn, seminormal_rep
from rookfft.tableaux import partitions
from rookfft.transforms import (
    FourierCoefficients,
    OpCounter,
    blockwise_product,
    fourier_invert,
    naive_transform,
    recursive_bound,
    recursive_fft,
    stein_bound,
    stein_fft,
    stein_fft_semigroup,
    stein_semigroup_bound,
)


@contextmanager
def criterion(num: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:2d}] {name}: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed <= budget_seconds, f"criterion {num} took {elapsed:.1f}s"


def test_01_counting():
    with criterion(1, "counting formulas", 1.0):
        for n in range(9):
            assert size(n) == sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
        for n in range(3, 9):
            assert size(n) == size_recursive(n)
        assert [size(n) for n in range(2, 7)] == [7, 34, 209, 1546, 13327]


def test_02_wedderburn_sum_of_squares():
    with criterion(2, "sum of squared dimensions", 1.0):
        for n in range(7):
            assert sum(dim(sh, n) ** 2 for sh in labels(n)) == size(n)


def test_03_oracle_equivalence():
    with criterion(3, "fast transforms match the naive oracle", 120.0):
        rng = random.Random(2024)
        plan = [(1, 100), (2, 100), (3, 100), (4, 100), (5, 10)]
        for n, trials in plan:
            for _ in range(trials):
                f = random_element(n, SEMIGROUP, rng)
                g = random_element(n, GROUPOID, rng)
                naive_s = naive_transform(g, "stein")
                assert stein_fft(g).allclose(naive_s, 1e-9)
                assert stein_fft_semigroup(f).allclose(
                    naive_transform(to_groupoid(f), "stein"), 1e-9
                )
                assert recursive_fft(f).allclose(naive_transform(f, "halverson"), 1e-9)


def test_04_convolution_theorem():
    with criterion(4, "transform of convolution is blockwise product", 30.0):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            f = random_element(n, SEMIGROUP, rng)
            g = random_element(n, SEMIGROUP, rng)
            lhs = recursive_fft(convolve_semigroup(f, g))
            rhs = blockwise_product(recursive_fft(f), recursive_fft(g))
            assert lhs.allclose(rhs, 1e-9)
            u = random_element(n, GROUPOID, rng)
            v = random_element(n, GROUPOID, rng)
            lhs = stein_fft(direct_convolve_groupoid(u, v))
            rhs = blockwise_product(stein_fft(u), stein_fft(v))
            assert lhs.allclose(rhs, 1e-9)


def test_05_inversion():
    with criterion(5, "Fourier inversion", 30.0):
        for n in range(4):
            for s in enumerate_rn(n):
                d = AlgebraElement.delta(n, s, GROUPOID)
                assert fourier_invert(stein_fft(d)).allclose(d, 1e-9)
        rng = random.Random(11)
        for _ in range(3):
            f = random_element(4, GROUPOID, rng)
            assert fourier_invert(stein_fft(f)).allclose(f, 1e-9)


def test_06_complexity_bounds():
    with criterion(6, "measured multiply-adds within closed-form bounds", 60.0):
        rng = random.Random(31)
        assert recursive_bound(2) == 49
        assert recursive_bound(3) == 906
        assert recursive_bound(4) == 13936
        assert recursive_bound(5) == 216660
        for n in range(1, 6):
            f = random_element(n, SEMIGROUP, rng)
            g = random_element(n, GROUPOID, rng)
            ops_stein = stein_fft(g).ops.multiply_adds
            assert Fraction(ops_stein) <= stein_bound(n)
            ops_ss = stein_fft_semigroup(f).ops.multiply_adds
            assert Fraction(ops_ss) <= stein_semigroup_bound(n)
            ops_rec = recursive_fft(f).ops.multiply_adds
            assert ops_rec <= recursive_bound(n)
            if n == 5:
                assert ops_rec <= 2**5 * 5 * size(5) == 247360


def test_07_schur_sparsity():
    with criterion(7, "generator images are Schur-sparse", 10.0):
        for n in range(1, 6):
            for sh in labels(n):
                rep = halverson_rep(sh, n)
                for M in (p.dense() for p in rep.pairings.values()):
                    nz = np.abs(M) > 1e-12
                    assert nz.sum(axis=0).max() <= 2
                    assert nz.sum(axis=1).max() <= 2
                link_nz = np.abs(np.diag(rep.link(n))) > 1e-12
                assert link_nz.sum(axis=1).max() <= 1
            for sh in partitions(n):
                rep = seminormal_rep(sh)
                for M in (p.dense() for p in rep.pairings.values()):
                    nz = np.abs(M) > 1e-12
                    assert nz.sum(axis=0).max() <= 2
                    assert nz.sum(axis=1).max() <= 2


def test_08_branching_equality():
    with criterion(8, "restrictions are exactly block-diagonal", 30.0):
        for n in range(1, 5):
            for sh in labels(n):
                rep = halverson_rep(sh, n)
                order = branch_rn(sh, n)
                for s in enumerate_rn(n - 1):
                    expected = block_diag(
                        [halverson_rep(mu, n - 1).evaluate(s).astype(complex) for mu in order],
                        rep.dim,
                    )
                    got = rep.evaluate(extended_fixed(s, n))
                    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
            for sh in partitions(n):
                if n == 1:
                    continue
                rep = seminormal_rep(sh)
                order = branch_sn(sh)
                for w in all_perms(n - 1):
                    y = PartialPermutation(n - 1, w)
                    expected = block_diag(
                        [seminormal_rep(mu).evaluate(y).astype(complex) for mu in order], rep.dim
                    )
                    got = rep.evaluate(PartialPermutation(n, w + (n,)))
                    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def _fourier_basis(n):
    """Inverse images of the elementary matrices, grouped by label."""
    out = []
    for sh in labels(n):
        d = dim(sh, n)
        for i in range(d):
            for j in range(d):
                blocks = {
                    other: np.zeros((dim(other, n), dim(other, n)), dtype=complex)
                    for other in labels(n)
                }
                blocks[sh][i, j] = 1.0
                vec = fourier_invert(FourierCoefficients(n, "stein", blocks))
                out.append((sh, vec))
    return out


def test_09_isotypic_orthogonality():
    with criterion(9, "isotypics orthogonal under the groupoid inner product", 10.0):
        for n in range(1, 4):
            basis = _fourier_basis(n)
            assert len(basis) == size(n)
            for a, (sh_a, va) in enumerate(basis):
                for sh_b, vb in basis[a + 1 :]:
                    if sh_a != sh_b:
                        assert abs(inner2(va, vb)) <= 1e-10
        # and the failure of the semigroup inner product on R_1
        bid = AlgebraElement.delta(1, PartialPermutation.identity(1), GROUPOID)
        bzero = AlgebraElement.delta(1, PartialPermutation.zero(1), GROUPOID)
        assert inner1(to_semigroup(bid), to_semigroup(bzero)) == -1


def test_10_zeta_matrix_identity():
    with criterion(10, "zeta matrix 1-count identity", 1.0):
        for n in range(9):
            rows = sum(comb(n, k) ** 2 * factorial(k) * size(n - k) for k in range(n + 1))
            cols = sum(comb(n, k) ** 2 * factorial(k) * 2**k for k in range(n + 1))
            assert rows == cols


def test_11_cli_bench(tmp_path):
    with criterion(11, "CLI bench agrees and is deterministic", 60.0):
        first = tmp_path / "bench1.json"
        second = tmp_path / "bench2.json"
        assert cli_main(["bench", "--n", "4", "--seed", "123",
                         "--format", "json", "--output", str(first)]) == 0
        assert cli_main(["bench", "--n", "4", "--seed", "123",
                         "--format", "json", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        rows = json.loads(first.read_text())
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        assert all(r["agree"] for r in rows)
