import json
import os
import subprocess
import sys
import tracemalloc
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import rookfft
from conftest import (
    assert_product_matches_oracle,
    direct_convolve_groupoid,
    direct_convolve_semigroup,
    partial_perms,
    rand_elem,
    reference_spread,
    sparse_element,
)
from rookfft.algebra import (
    DROP_EPS,
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    BasisMismatch,
    convolve_groupoid,
    convolve_semigroup,
    from_dense,
    from_json_dict,
    inner1,
    inner2,
    to_groupoid,
    to_json_dict,
    to_semigroup,
)
from rookfft.core import (
    DimensionMismatch,
    ParseError,
    PartialPermutation,
    compose,
    enumerate_rn,
    idempotent_on,
    leq,
    restrictions,
    size,
)
from rookfft.counting import OpCounter
from rookfft.indexing import element_index, elements_at

PP = PartialPermutation


def pp(n, flat):
    return PP.from_flat(n, flat)


def delta(n, s, basis):
    return AlgebraElement.delta(n, s, basis)


class TestConvolveSemigroup:
    def test_point_masses_multiply_like_elements(self):
        for r in enumerate_rn(2):
            for t in enumerate_rn(2):
                prod = convolve_semigroup(delta(2, r, SEMIGROUP), delta(2, t, SEMIGROUP))
                assert prod.allclose(delta(2, compose(r, t), SEMIGROUP))

    def test_identity_delta_is_neutral(self):
        f = rand_elem(3, SEMIGROUP, seed=1)
        e = delta(3, PP.identity(3), SEMIGROUP)
        assert convolve_semigroup(e, f).allclose(f)

    def test_matches_triple_loop(self):
        f = rand_elem(3, SEMIGROUP, seed=2)
        g = rand_elem(3, SEMIGROUP, seed=3)
        expected = {}
        for r in enumerate_rn(3):
            for t in enumerate_rn(3):
                s = compose(r, t)
                expected[s] = expected.get(s, 0j) + f[r] * g[t]
        assert convolve_semigroup(f, g).allclose(AlgebraElement(3, SEMIGROUP, expected), 1e-10)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            convolve_semigroup(
                rand_elem(2, SEMIGROUP, 1), rand_elem(2, GROUPOID, 1)
            )


class TestConvolveGroupoid:
    def test_disallowed_composition_vanishes(self):
        sigma = pp(4, "1->2;3->1")
        piv = pp(4, "1->4;2->3")
        out = convolve_groupoid(delta(4, sigma, GROUPOID), delta(4, piv, GROUPOID))
        assert out.support() == 0

    def test_aligned_composition_survives(self):
        sigma = pp(4, "1->2;3->1")
        piv = pp(4, "1->4;2->3")
        out = convolve_groupoid(delta(4, piv, GROUPOID), delta(4, sigma, GROUPOID))
        assert out.allclose(delta(4, pp(4, "1->3;3->4"), GROUPOID))

    def test_idempotent_bracket_squares_to_itself(self):
        e = idempotent_on(3, [1, 3])
        d = delta(3, e, GROUPOID)
        assert convolve_groupoid(d, d).allclose(d)

    def test_matches_range_aligned_sum(self):
        # (f∗g)(s) = Σ_{r : ran(r) = ran(s)} f(r)·g(r⁻¹s)
        f = rand_elem(3, GROUPOID, seed=4)
        g = rand_elem(3, GROUPOID, seed=5)
        got = convolve_groupoid(f, g)
        for s in enumerate_rn(3):
            total = 0j
            for r in enumerate_rn(3):
                if r.ran() == s.ran():
                    total += f[r] * g[compose(r.inverse(), s)]
            assert abs(got[s] - total) < 1e-10


class TestBasisChange:
    def test_r1_expansion(self):
        a, b = 2.0, 5.0
        f = AlgebraElement(1, SEMIGROUP, {PP.identity(1): a, PP.zero(1): b})
        g = to_groupoid(f)
        assert abs(g[PP.identity(1)] - a) < 1e-12
        assert abs(g[PP.zero(1)] - (a + b)) < 1e-12

    def test_identity_delta_spreads_everywhere(self):
        g = to_groupoid(delta(3, PP.identity(3), SEMIGROUP))
        for s in enumerate_rn(3):
            assert abs(g[s] - (1.0 if leq(s, PP.identity(3)) else 0.0)) < 1e-12

    def test_bracket_identity_in_r1(self):
        f = to_semigroup(delta(1, PP.identity(1), GROUPOID))
        assert abs(f[PP.identity(1)] - 1) < 1e-12
        assert abs(f[PP.zero(1)] + 1) < 1e-12

    def test_bracket_zero_map_is_zero_map(self):
        f = to_semigroup(delta(2, PP.zero(2), GROUPOID))
        assert f.allclose(delta(2, PP.zero(2), SEMIGROUP))

    def test_round_trip_random(self):
        f = rand_elem(3, SEMIGROUP, seed=6)
        assert to_semigroup(to_groupoid(f)).allclose(f, 1e-10)

    @pytest.mark.parametrize("n", range(5))
    def test_mutually_inverse_on_basis_vectors(self, n):
        for s in enumerate_rn(n):
            d = delta(n, s, SEMIGROUP)
            assert to_semigroup(to_groupoid(d)).allclose(d, 1e-12)
            dg = delta(n, s, GROUPOID)
            assert to_groupoid(to_semigroup(dg)).allclose(dg, 1e-12)

    def test_zeta_op_count_on_full_support(self):
        n = 3
        f = rand_elem(n, SEMIGROUP, seed=7)
        counter = OpCounter()
        to_groupoid(f, counter)
        expected = sum(comb(n, k) ** 2 * factorial(k) * 2**k for k in range(n + 1))
        assert counter.multiply_adds == expected
        assert counter.multiply_adds <= 2**n * size(n)


class TestMultiplicationConsistency:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_bases_compute_the_same_product(self, seed):
        f = rand_elem(3, SEMIGROUP, seed)
        g = rand_elem(3, SEMIGROUP, seed + 100)
        lhs = to_groupoid(direct_convolve_semigroup(f, g))
        rhs = direct_convolve_groupoid(to_groupoid(f), to_groupoid(g))
        assert lhs.allclose(rhs, 1e-10)

    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID])
    def test_associativity(self, basis):
        conv = convolve_semigroup if basis == SEMIGROUP else convolve_groupoid
        f = rand_elem(3, basis, 21)
        g = rand_elem(3, basis, 22)
        h = rand_elem(3, basis, 23)
        assert conv(conv(f, g), h).allclose(conv(f, conv(g, h)), 1e-10)


class TestConvolutionOracle:
    """Both convolutions run through the stein transforms; the direct sums
    over pairs of terms are their reference."""

    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID])
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("n, support", [
        *((n, "full") for n in range(5)),
        (4, "sparse"),
        (4, (30, 5)),
        (5, (40, 6)),
        (5, (300, 30)),
    ])
    def test_matches_direct_sum(self, basis, scale, n, support):
        if isinstance(support, str):
            f, g = rand_elem(n, basis, 40 + n, support), rand_elem(n, basis, 50 + n, support)
        else:
            f, g = (sparse_element(n, terms, 60 + n + i, basis) for i, terms in enumerate(support))
        assert_product_matches_oracle(scale * f, scale * g)


class TestInnerProducts:
    def test_bracket_identity_counterexample(self):
        v = to_semigroup(delta(1, PP.identity(1), GROUPOID))
        w = to_semigroup(delta(1, PP.zero(1), GROUPOID))
        assert inner1(v, w) == -1

    def test_inner2_on_distinct_brackets(self):
        v = delta(1, PP.identity(1), GROUPOID)
        w = delta(1, PP.zero(1), GROUPOID)
        assert inner2(v, w) == 0

    def test_basis_requirements(self):
        f = rand_elem(2, SEMIGROUP, 1)
        g = rand_elem(2, GROUPOID, 1)
        with pytest.raises(BasisMismatch):
            inner1(f, g)
        with pytest.raises(BasisMismatch):
            inner2(g, f)

    def test_conjugate_symmetry(self):
        f = rand_elem(2, GROUPOID, 31)
        g = rand_elem(2, GROUPOID, 32)
        assert abs(inner2(f, g) - inner2(g, f).conjugate()) < 1e-12


def restriction_loop(f, signed):
    """The basis change as a loop over restrictions(x) per support element x:
    the reference for the dense Yates pass."""
    out = {}
    for x, c in f.items():
        for t in restrictions(x):
            sign = -1 if signed and (x.rank - t.rank) % 2 else 1
            out[t] = out.get(t, 0j) + sign * c
    return {t: c for t, c in out.items() if abs(c) >= DROP_EPS}


class TestDenseBasisChange:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("support", ["full", "sparse"])
    def test_matches_restriction_loop(self, n, support):
        f = rand_elem(n, SEMIGROUP, 300 + n, support)
        g = rand_elem(n, GROUPOID, 310 + n, support)
        counter = OpCounter()
        for got, want in (
            (to_groupoid(f, counter), restriction_loop(f, signed=False)),
            (to_semigroup(g), restriction_loop(g, signed=True)),
        ):
            assert set(got.coeffs) == set(want)
            assert all(abs(got[t] - c) <= 1e-12 for t, c in want.items())
        assert counter.multiply_adds == sum(1 << x.rank for x in f.coeffs)

    @pytest.mark.parametrize("n", range(5))
    def test_dense_round_trip(self, n):
        f = rand_elem(n, GROUPOID, 320 + n, support="sparse")
        values = f.values
        assert values.tolist() == [f[s] for s in elements_at(n, np.arange(len(values)))]
        images = np.array([s.image for s in enumerate_rn(n)], dtype=np.int64)
        rows = element_index(n, images.reshape(len(values), n))
        assert [values[i] for i in rows] == [f[s] for s in enumerate_rn(n)]
        back = from_dense(n, GROUPOID, values)
        assert back.basis == GROUPOID and back.coeffs == f.coeffs

    def test_one_term_at_n8_builds_no_pair_table(self):
        # a table of every pair t <= x in R_8 holds 101.8 M positions (407 MB
        # as int32); the basis changes of one term must stay far below that
        x = PP.from_pairs(8, [(1, 3), (2, 5), (7, 7)])
        f = AlgebraElement(8, SEMIGROUP, {x: 1.5 - 2j})
        counter = OpCounter()
        tracemalloc.start()
        try:
            g = to_groupoid(f, counter)
            back = to_semigroup(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert g.coeffs == {t: 1.5 - 2j for t in restrictions(x)}
        assert counter.multiply_adds == 8
        assert back.coeffs == f.coeffs

    @pytest.mark.parametrize("n, support", [(6, "full"), (6, "sparse"), (7, "full"), (7, "sparse")])
    def test_matches_per_point_pass(self, n, support):
        f = rand_elem(n, SEMIGROUP, 340 + n, support)
        g = rand_elem(n, GROUPOID, 350 + n, support)
        assert_matches_per_point_pass(f, g)

    @pytest.mark.parametrize("terms", [1, 300])
    def test_matches_per_point_pass_at_n8(self, terms):
        f = sparse_element(8, terms, 360 + terms, SEMIGROUP)
        g = sparse_element(8, terms, 370 + terms, GROUPOID)
        assert_matches_per_point_pass(f, g)


def assert_matches_per_point_pass(f, g):
    """Both basis changes agree with the per-point pass within 1e-12 of the
    largest entry (the additions are associated differently)."""
    for got, want in (
        (to_groupoid(f), reference_spread(f, signed=False)),
        (to_semigroup(g), reference_spread(g, signed=True)),
    ):
        assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


# run as ``python -c ZETA_PROBE n``: both basis changes of one term of R_n in
# a fresh process, so that every table they read is built in the traced
# region; prints the traced peak, the bytes kept once the results are
# dropped, and the bytes of the cell layout among them
ZETA_PROBE = """
import gc, json, sys, tracemalloc
from rookfft.algebra import SEMIGROUP, AlgebraElement, to_groupoid, to_semigroup
from rookfft.core import PartialPermutation
from rookfft.indexing import cell_layout
n = int(sys.argv[1])
x = PartialPermutation.from_pairs(n, [(1, 3), (2, 5), (n, n)])
f = AlgebraElement(n, SEMIGROUP, {x: 1.5 - 2j})
gc.collect()
tracemalloc.start()
back = to_semigroup(to_groupoid(f))
peak = tracemalloc.get_traced_memory()[1]
assert back.coeffs == f.coeffs
del back
gc.collect()
kept = tracemalloc.get_traced_memory()[0]
print(json.dumps({"peak": peak, "kept": kept, "cells": cell_layout(n).nbytes}))
"""


class TestZetaMemory:
    @pytest.mark.parametrize("n, kept_mb", [(6, 0.3), (8, 36)])
    def test_one_term_tables_built_in_a_fresh_process(self, n, kept_mb):
        # the step tables hold Σ_k k·|R_{n,k}| int32 positions (0.21 MiB at
        # n=6, 31.96 MiB at n=8); the cell layout they index is the groupoid
        # FFT's own (0.05 MiB at n=6, 5.5 MiB at n=8) and is counted apart
        src = str(Path(rookfft.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", ZETA_PROBE, str(n)], env=env, check=True,
                             capture_output=True, text=True).stdout
        probe = json.loads(out)
        assert probe["peak"] < 100 * 2**20
        assert probe["kept"] - probe["cells"] <= kept_mb * 2**20


@pytest.mark.parametrize("n", range(9))
def test_zeta_matrix_one_count_identity(n):
    rows = sum(comb(n, k) ** 2 * factorial(k) * size(n - k) for k in range(n + 1))
    cols = sum(comb(n, k) ** 2 * factorial(k) * 2**k for k in range(n + 1))
    assert rows == cols


class TestElementPlumbing:
    def test_near_zero_coefficients_are_dropped(self):
        f = AlgebraElement(2, SEMIGROUP, {PP.zero(2): 1e-16})
        assert f.support() == 0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            AlgebraElement(2, SEMIGROUP, {PP.zero(3): 1.0})

    def test_json_round_trip(self):
        f = rand_elem(3, GROUPOID, 41, support="sparse")
        assert from_json_dict(to_json_dict(f)).allclose(f, 1e-15)

    @pytest.mark.parametrize("re, im", [(float("nan"), 0.0), (1.0, float("inf")), (float("-inf"), 0.0)])
    def test_json_rejects_non_finite_coefficients(self, re, im):
        data = {"n": 2, "basis": SEMIGROUP, "terms": [{"elem": "1->1", "re": re, "im": im}]}
        with pytest.raises(ParseError, match="non-finite"):
            from_json_dict(data)

    def test_json_sums_two_spellings_of_one_element(self):
        data = {"n": 2, "basis": SEMIGROUP, "terms": [
            {"elem": "1->2;2->1", "re": 1.5, "im": 0.5},
            {"elem": "2->1;1->2", "re": 0.25, "im": -1.0},
        ]}
        f = from_json_dict(data)
        assert list(f.items()) == [(pp(2, "1->2;2->1"), 1.75 - 0.5j)]

    def test_state_is_one_read_only_vector(self):
        f = rand_elem(3, GROUPOID, 42, support="sparse")
        assert AlgebraElement.__slots__ == ("n", "basis", "values")
        assert f.values.shape == (size(3),) and not f.values.flags.writeable
        assert f.support() == len(f.coeffs) == int(np.count_nonzero(f.values))
        f.coeffs[PP.zero(3)] = 5.0  # a decoded copy: the element keeps its value
        assert f[PP.zero(3)] == f.values[0] != 5.0
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_from_dense_zeroes_small_entries_and_takes_the_vector(self):
        values = np.array([1e-15, 2.0, -3e-15j, 0.0, 1j, 1e-13, 0.0], dtype=complex)
        f = from_dense(2, SEMIGROUP, values)
        assert f.values is values and not values.flags.writeable
        assert values.tolist() == [0, 2.0, 0, 0, 1j, 1e-13, 0]
        with pytest.raises(DimensionMismatch):
            from_dense(3, SEMIGROUP, np.zeros(size(2), dtype=complex))

    def test_json_rejects_term_without_element(self):
        with pytest.raises(ParseError):
            from_json_dict({"n": 2, "basis": SEMIGROUP, "terms": [{"re": 1.0}]})

    def test_arithmetic(self):
        f = rand_elem(2, SEMIGROUP, 51)
        g = rand_elem(2, SEMIGROUP, 52)
        assert (f + g - g).allclose(f, 1e-12)
        assert (2.0 * f).allclose(f + f, 1e-12)


@given(partial_perms(min_n=1, max_n=4))
@settings(max_examples=100)
def test_zeta_moebius_round_trip_on_deltas(s):
    d = AlgebraElement.delta(s.n, s, SEMIGROUP)
    assert to_semigroup(to_groupoid(d)).allclose(d, 1e-12)
