import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import rookfft
from conftest import (
    assert_product_matches_oracle,
    block_diag,
    direct_convolve_groupoid,
    extended,
    halverson_similarity,
    rand_elem,
    sparse_element,
    transposition_image,
)
from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    BasisMismatch,
    convolve_semigroup,
    from_dense,
    random_element,
    to_groupoid,
)
from rookfft.core import ParseError, PartialPermutation, enumerate_rn, ksubset_index, size
from rookfft.counting import OpCounter
from rookfft.indexing import element_index, elements_at, slice_index
from rookfft.rook_reps import (
    branch_rn,
    dim,
    halverson_permutation,
    halverson_rep,
    labels,
    stein_rep,
)
from rookfft.spectral import spectrum
from rookfft.symmetric import _coset_images
from rookfft.tableaux import num_standard, partitions
from rookfft.transforms import (
    IMAGE_TABLE_BYTES,
    FourierCoefficients,
    CODELET,
    _branches,
    _codelet,
    _columns,
    _image_table,
    blockwise_product,
    clausen_bound,
    fourier_invert,
    from_json_dict,
    naive_bound,
    naive_transform,
    recursive_bound,
    recursive_fft,
    stein_bound,
    stein_fft,
    stein_fft_semigroup,
    stein_semigroup_bound,
    to_json_dict,
)

PP = PartialPermutation


def pp(n, flat):
    return PP.from_flat(n, flat)


def delta(n, s, basis):
    return AlgebraElement.delta(n, s, basis)


class TestNaive:
    def test_delta_identity_gives_identity_blocks(self):
        F = naive_transform(delta(3, PP.identity(3), SEMIGROUP))
        for sh, M in F.blocks.items():
            assert np.allclose(M, np.eye(dim(sh, 3)))

    def test_bracket_identity_under_stein(self):
        F = naive_transform(delta(1, PP.identity(1), GROUPOID))
        assert np.allclose(F.blocks[(1,)], [[1.0]])
        assert np.allclose(F.blocks[()], [[0.0]])

    def test_constant_function_on_r1(self):
        f = AlgebraElement(1, SEMIGROUP, {PP.identity(1): 1.0, PP.zero(1): 1.0})
        F = naive_transform(f)
        assert np.allclose(F.blocks[()], [[2.0]])
        assert np.allclose(F.blocks[(1,)], [[1.0]])

    # case ids name the representations each basis's rows are built in
    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID], ids=["halverson", "stein"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counter_is_support_times_dims(self, n, basis):
        f = rand_elem(n, basis, 1, support="sparse")
        F = naive_transform(f)
        assert F.ops.multiply_adds == f.support() * sum(dim(sh, n) ** 2 for sh in labels(n))

    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID], ids=["halverson", "stein"])
    def test_matches_the_per_term_sum(self, basis):
        # the loop over terms and labels that the image table replaced; the
        # halverson sums are gathered to the stein order
        f = rand_elem(3, basis, 4)
        F = naive_transform(f)
        for sh in labels(3):
            rep = halverson_rep(sh, 3) if basis == SEMIGROUP else stein_rep(sh, 3)
            image = rep.evaluate if basis == SEMIGROUP else rep.eval_groupoid
            p = halverson_permutation(sh, 3) if basis == SEMIGROUP else np.arange(rep.dim)
            expected = sum((c * image(s) for s, c in f.items()), np.zeros((rep.dim, rep.dim)))
            assert np.allclose(F.blocks[sh], expected[p][:, p], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, terms", [(6, 320), (7, 40)])
    def test_chunked_table_matches_fast_paths(self, n, terms):
        # above n = 5 the image table is built per call, a chunk of rows at
        # a time: 314 rows at n = 6, 32 at n = 7, so both supports span chunks
        assert terms > IMAGE_TABLE_BYTES // (8 * size(n))
        f = sparse_element(n, terms, n, SEMIGROUP)
        g = sparse_element(n, terms, n, GROUPOID)
        for F, fast in [(naive_transform(f), recursive_fft(f)), (naive_transform(g), stein_fft(g))]:
            assert F.allclose(fast, 1e-9)
            assert F.ops.multiply_adds == terms * size(n)

    def test_full_support_counter_is_squared_size(self):
        f = rand_elem(3, GROUPOID, 2)
        assert naive_transform(f).ops.multiply_adds == naive_bound(3) == size(3) ** 2

    def test_both_bases_give_one_transform(self):
        # the semigroup rows (halverson images, gathered) and the groupoid
        # rows (stein images) are built apart
        for n in range(5):
            f = rand_elem(n, SEMIGROUP, 20 + n)
            F, G = naive_transform(f), naive_transform(to_groupoid(f))
            for sh in labels(n):
                scale = max(1.0, np.abs(G.blocks[sh]).max())
                assert np.abs(F.blocks[sh] - G.blocks[sh]).max() <= 1e-12 * scale


class TestSteinFFT:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_on_r3(self, seed):
        f = rand_elem(3, GROUPOID, seed)
        assert stein_fft(f).allclose(naive_transform(f), 1e-9)

    def test_rank_filtered_support(self):
        # support only on rank-1 elements: every block of other weight is zero
        coeffs = {s: 1.0 for s in enumerate_rn(3) if s.rank == 1}
        F = stein_fft(AlgebraElement(3, GROUPOID, coeffs))
        for sh, M in F.blocks.items():
            if sum(sh) != 1:
                assert np.allclose(M, 0.0)
        assert not np.allclose(F.blocks[(1,)], 0.0)

    def test_point_mass_cell(self):
        F = stein_fft(delta(2, pp(2, "2->1"), GROUPOID))
        assert np.allclose(F.blocks[(1,)], [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(F.blocks[()], 0.0)
        assert np.allclose(F.blocks[(2,)], 0.0)
        assert np.allclose(F.blocks[(1, 1)], 0.0)

    @pytest.mark.parametrize("n, count", [(6, 350_600), (7, 5_726_322)])
    def test_full_support_count(self, n, count):
        f = random_element(n, GROUPOID, random.Random(n))
        assert stein_fft(f).ops.multiply_adds == count

    def test_requires_groupoid(self):
        with pytest.raises(BasisMismatch):
            stein_fft(rand_elem(2, SEMIGROUP, 1))


class TestCellFormula:
    def test_cells_are_subgroup_transforms_of_translated_slices(self):
        # the (A,B) cell of the λ-block is Σ_y f(p_({1..k}→A)·y·p_(B→{1..k}))·ρ(y),
        # built here from explicit order-preserving maps rather than factorize
        from rookfft.core import compose, ksubsets, order_preserving
        from rookfft.symmetric import all_perms, seminormal_rep
        from rookfft.tableaux import partitions as sym_partitions

        n = 3
        f = rand_elem(n, GROUPOID, 17)
        F = stein_fft(f)
        for k in range(n + 1):
            subs = ksubsets(n, k)
            for a, A in enumerate(subs):
                for b, B in enumerate(subs):
                    p_out = order_preserving(n, range(1, k + 1), A)
                    p_in = order_preserving(n, B, range(1, k + 1))
                    for shape in sym_partitions(k):
                        rep = seminormal_rep(shape)
                        expected = np.zeros((rep.dim, rep.dim), dtype=complex)
                        for y in all_perms(k):
                            s = compose(compose(p_out, extended(PP(k, y), n)), p_in)
                            expected += f[s] * rep.evaluate(PP(k, y))
                        d = rep.dim
                        cell = F.blocks[shape][a * d : (a + 1) * d, b * d : (b + 1) * d]
                        assert np.allclose(cell, expected, atol=1e-9)


class TestFourierBasis:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_vectors_factor_through_bracketed_translations(self, n):
        # the inverse image of the elementary matrix at cell (A,B), entry (i,j)
        # equals ⌊p_({1..k}→A)⌋ ∗ (Σ_y c_ij(y)·⌊y⌋) ∗ ⌊p_(B→{1..k})⌋
        from rookfft.core import ksubsets, order_preserving
        from rookfft.symmetric import sn_ifft
        from rookfft.tableaux import num_standard, partitions as sym_partitions

        for k in range(n + 1):
            subs = ksubsets(n, k)
            for shape in sym_partitions(k):
                d = num_standard(shape)
                for a, A in enumerate(subs[:2]):
                    for b, B in enumerate(subs[:2]):
                        for i in range(d):
                            for j in range(d):
                                blocks = {
                                    sh: np.zeros((dim(sh, n), dim(sh, n)), dtype=complex)
                                    for sh in labels(n)
                                }
                                D = dim(shape, n)
                                full = np.zeros((D, D), dtype=complex)
                                full[a * d + i, b * d + j] = 1.0
                                blocks[shape] = full
                                via_invert = fourier_invert(
                                    FourierCoefficients(n, blocks)
                                )

                                cij = sn_ifft(_elementary_sk(shape, i, j))
                                middle = AlgebraElement(
                                    n,
                                    GROUPOID,
                                    {
                                        extended(PP(k, y), n): c
                                        for y, c in cij.items()
                                    },
                                )
                                left = delta(
                                    n, order_preserving(n, range(1, k + 1), A), GROUPOID
                                )
                                right = delta(
                                    n, order_preserving(n, B, range(1, k + 1)), GROUPOID
                                )
                                product = direct_convolve_groupoid(
                                    direct_convolve_groupoid(left, middle), right
                                )
                                assert product.allclose(via_invert, 1e-9)


def _elementary_sk(shape, i, j):
    from rookfft.tableaux import num_standard, partitions as sym_partitions

    k = sum(shape)
    out = {}
    for sh in sym_partitions(k):
        d = num_standard(sh)
        M = np.zeros((d, d), dtype=complex)
        if sh == shape:
            M[i, j] = 1.0
        out[sh] = M
    return out


class TestSteinSemigroup:
    def test_delta_identity_on_r1(self):
        F = stein_fft_semigroup(delta(1, PP.identity(1), SEMIGROUP))
        assert np.allclose(F.blocks[()], [[1.0]])
        assert np.allclose(F.blocks[(1,)], [[1.0]])

    def test_zero_element(self):
        F = stein_fft_semigroup(AlgebraElement.zero(2, SEMIGROUP))
        for M in F.blocks.values():
            assert np.allclose(M, 0.0)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_oracle_via_basis_change(self, seed):
        f = rand_elem(3, SEMIGROUP, seed)
        expected = naive_transform(to_groupoid(f))
        assert stein_fft_semigroup(f).allclose(expected, 1e-9)

    def test_builds_no_element_between_its_stages(self, monkeypatch):
        # the zeta pass hands stein_fft its vector: no PartialPermutation key
        # is decoded from it, and none is encoded back
        n = 4
        rng = np.random.default_rng(4)
        f = from_dense(n, SEMIGROUP, rng.uniform(-1, 1, size(n)) + 1j * rng.uniform(-1, 1, size(n)))

        def refuse(*args, **kwargs):
            raise AssertionError("a PartialPermutation was built")

        monkeypatch.setattr(PartialPermutation, "_unchecked", classmethod(refuse))
        monkeypatch.setattr(PartialPermutation, "__init__", refuse)
        F = stein_fft_semigroup(f)
        monkeypatch.undo()
        assert F.allclose(naive_transform(to_groupoid(f)), 1e-9)


class TestRecursive:
    def test_slice_counts_at_n3(self):
        elems = enumerate_rn(3)
        type1 = [s for s in elems if s(3) is not None]
        type2 = [s for s in elems if s(3) is None and 3 in s.image]
        type3 = [s for s in elems if s(3) is None and 3 not in s.image]
        assert (len(type1), len(type2), len(type3)) == (21, 6, 7)
        assert len(type1) + len(type2) + len(type3) == 34

    def test_delta_identity(self):
        F = recursive_fft(delta(4, PP.identity(4), SEMIGROUP))
        for sh, M in F.blocks.items():
            assert np.allclose(M, np.eye(dim(sh, 4)), atol=1e-12)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_oracle(self, n):
        f = rand_elem(n, SEMIGROUP, 40 + n)
        assert recursive_fft(f).allclose(naive_transform(f), 1e-9)

    def test_ops_within_recurrence_bound_at_n4(self):
        f = rand_elem(4, SEMIGROUP, 44)
        F = recursive_fft(f)
        assert F.ops.multiply_adds <= recursive_bound(4) == 13936

    def test_requires_semigroup(self):
        with pytest.raises(BasisMismatch):
            recursive_fft(rand_elem(2, GROUPOID, 1))


def in_stein_order(n, blocks):
    """Halverson-order blocks gathered by ``halverson_permutation``, the
    order recursive_fft publishes."""
    return {sh: M[halverson_permutation(sh, n)][:, halverson_permutation(sh, n)]
            for sh, M in blocks.items()}


def per_node_recursive(fd, m, counter):
    """The recursion of recursive_fft one Python call per node, as it ran
    before the level-batched pass: the oracle for its blocks, in the
    halverson order (``in_stein_order``), and op counts."""
    if m <= 2:  # where the halverson and stein orders agree
        base = naive_transform(AlgebraElement(m, SEMIGROUP, fd))
        counter.add(base.ops.multiply_adds)
        return base.blocks
    t_buckets, up_buckets, link_bucket = {}, {}, {}
    for x, c in fd.items():
        img = x.image
        i = img[m - 1]
        if i != 0:
            # T_i⁻¹ sends i → m and j → j−1 for i < j ≤ m; i is not among img[: m - 1]
            key = PP(m - 1, tuple(v - (v > i) for v in img[: m - 1]))
            t_buckets.setdefault(i, {})[key] = c
        elif m in img:
            i = img.index(m) + 1
            up_buckets.setdefault(i, {})[PP(m - 1, img[: i - 1] + img[i:m])] = c
        else:
            link_bucket[PP(m - 1, img[: m - 1])] = c
    sub_t = {i: per_node_recursive(g, m - 1, counter) for i, g in sorted(t_buckets.items())}
    sub_up = {i: per_node_recursive(g, m - 1, counter) for i, g in sorted(up_buckets.items())}
    sub_link = per_node_recursive(link_bucket, m - 1, counter) if link_bucket else None
    slices = len(sub_t) + len(sub_up) + (sub_link is not None)
    out = {}
    for shape in labels(m):
        rep = halverson_rep(shape, m)
        order = branch_rn(shape, m)
        d = rep.dim
        images = {j: p.dense() for j, p in rep.pairings.items()}
        acc = np.zeros((d, d), dtype=complex)
        for i, sub in sub_t.items():
            D = block_diag([sub[mu] for mu in order], d)
            for j in range(m, i, -1):
                D = images[j] @ D
                counter.add(int(np.count_nonzero(images[j])) * d)
            acc += D
        if sub_link is not None:
            keep = rep.link(m)
            acc += keep[:, None] * block_diag([sub_link[mu] for mu in order], d)
            counter.add(int(np.count_nonzero(keep)) * d)
        for i, sub in sub_up.items():
            D = block_diag([sub[mu] for mu in order], d)
            for j in range(m, i, -1):
                D = D @ images[j]
                counter.add(int(np.count_nonzero(images[j])) * d)
            acc += D
        counter.add(max(slices - 1, 0) * d * d)
        out[shape] = acc
    return out


class TestLevelBatchedRecursion:
    """The level-by-level pass against the per-node recursion it replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("support", ["full", "half", "few"])
    def test_matches_per_node_recursion(self, n, support):
        self._check_against_per_node(n, support)

    @pytest.mark.parametrize("support", ["half", "few"])
    def test_sparse_r6_matches_per_node_recursion(self, support):
        # two levels above the R_4 codelet, where parents miss children
        self._check_against_per_node(6, support)

    @staticmethod
    def _check_against_per_node(n, support):
        if support == "few":
            f = sparse_element(n, max(1, size(n) // 50), 300 + n, SEMIGROUP)
        else:
            f = rand_elem(n, SEMIGROUP, 310 + n, "full" if support == "full" else "sparse")
        counter = OpCounter()
        expected = in_stein_order(n, per_node_recursive(dict(f.coeffs), n, counter))
        F = recursive_fft(f)
        assert list(F.blocks) == list(expected)
        for sh, M in expected.items():
            assert np.allclose(F.blocks[sh], M, rtol=0.0, atol=1e-12)
        assert F.ops.multiply_adds == counter.multiply_adds

    @pytest.mark.parametrize("m", range(2, 8))
    def test_generator_images_pair_indices(self, m):
        # the level pass applies ρ(t_j) through one partner per index: the
        # partners are an involution, and the stored entries are the dense
        # reference's diagonal and its entry at each row's partner
        for shape in labels(m):
            rep = halverson_rep(shape, m)
            for j in range(2, m + 1):
                M = transposition_image(rep.basis, j)
                partner, diagonal, off = rep.pairings[j]
                at = np.arange(len(M))
                assert np.array_equal(partner[partner], at)
                assert np.array_equal(diagonal, np.diag(M))
                assert np.array_equal(off, M[at, partner] * (partner != at))

    @pytest.mark.parametrize("m", range(2, 8))
    def test_generator_images_are_symmetric_involutions(self, m):
        # Young's orthogonal form: every ρ(t_j) is exactly symmetric and
        # orthogonal, so a slice up_i reads the run of T_i transposed
        for shape in labels(m):
            for M in (p.dense() for p in halverson_rep(shape, m).pairings.values()):
                assert np.array_equal(M, M.T)
                assert np.abs(M @ M.T - np.eye(len(M))).max() <= 1e-14

    @pytest.mark.parametrize("m", range(2, 7))
    def test_runs_are_products_of_generator_images(self, m):
        # Q_μ stacks, for each λ that branches to μ, the μ-columns of
        # ρ(t_{i+1})···ρ(t_m), i = 1..m-1, side by side; together the tables
        # hold (m-1)·|R_m| reals, as many as the runs themselves.  The
        # μ-block's halverson entry (a, c) is read where the stein order
        # keeps it, (q[a], q[c]) for q the inverse of halverson_permutation
        parts = _branches(m)[0]
        assert sum(Q.size for _, Q, _, _ in parts) == (m - 1) * size(m)
        tables = dict(zip(_columns(m - 1), parts))
        rows = dict.fromkeys(tables, 0)
        for shape in labels(m):
            rep, on = halverson_rep(shape, m), 0
            for mu in branch_rn(shape, m):
                entries, Q, _, _ = tables[mu]
                dm = dim(mu, m - 1)
                q = np.argsort(halverson_permutation(mu, m - 1))
                assert np.array_equal(entries[0], _columns(m - 1)[mu] + q[:, None] * dm + q)
                assert np.array_equal(entries[1], entries[0].T)
                got = Q[rows[mu] : rows[mu] + rep.dim].reshape(rep.dim, m - 1, dm)
                for i in range(1, m):
                    A = np.eye(rep.dim)
                    for j in range(i + 1, m + 1):
                        A = A @ rep.pairings[j].dense()
                    assert np.abs(got[:, i - 1] - A[:, on : on + dm]).max() <= 1e-12
                assert not Q.flags.writeable
                rows[mu] += rep.dim
                on += dm
        assert all(rows[mu] == len(Q) for mu, (_, Q, _, _) in tables.items())

    def test_stein_paths_build_no_runs(self):
        # the tables hold 81 MB at m = 8: the S_k FFT builds its own tables
        # (symmetric._coset_images) without filling recursive_fft's cache
        _branches.cache_clear()
        _coset_images.cache_clear()
        f = random_element(6, GROUPOID, random.Random(66))
        fourier_invert(stein_fft(f))
        spectrum(f)
        assert _branches.cache_info().currsize == 0

    @pytest.mark.parametrize("b", [3, CODELET])
    def test_codelet_is_the_oracle_table_in_the_orthogonal_basis(self, b):
        # column x of the codelet is the halverson image of x, with no
        # scale, as the representations are built in Young's orthogonal form;
        # each block in the stein order
        want = _image_table(SEMIGROUP, b).T.copy()
        for shape, at in _columns(b).items():
            d, p = dim(shape, b), halverson_permutation(shape, b)
            want[at : at + d * d] = want[at : at + d * d].reshape(d, d, -1)[p][:, p].reshape(d * d, -1)
        table = _codelet(b)
        assert table.shape == (size(b), size(b)) and not table.flags.writeable
        assert np.abs(table - want).max() <= 1e-12 * np.abs(want).max()

    def test_full_support_count_at_n6(self):
        f = random_element(6, SEMIGROUP, random.Random(6))
        assert recursive_fft(f).ops.multiply_adds == 1_709_513

    def test_full_support_count_at_n7(self):
        f = random_element(7, SEMIGROUP, random.Random(7))
        assert recursive_fft(f).ops.multiply_adds == 26_519_799

    def test_sparse_r8_traces_match_stein(self):
        f = sparse_element(8, 300, 8, SEMIGROUP)
        H = recursive_fft(f)
        S = stein_fft_semigroup(f)
        assert H.ops.multiply_adds <= recursive_bound(8)
        for sh in labels(8):
            assert abs(np.trace(H.blocks[sh]) - np.trace(S.blocks[sh])) <= 1e-9

    def test_full_support_r7_power_traces_match_stein(self):
        # the two FFTs give the same blocks, so tr(F̂^p) agrees for every p;
        # at n = 7 the naive oracle is out of reach
        f = random_element(7, SEMIGROUP, random.Random(77))
        H, S = recursive_fft(f), stein_fft_semigroup(f)
        for sh in labels(7):
            for p in (1, 2, 3):
                want = np.trace(np.linalg.matrix_power(S.blocks[sh], p))
                got = np.trace(np.linalg.matrix_power(H.blocks[sh], p))
                assert abs(got - want) <= 1e-9 * abs(want)


def slice_paths(n):
    """(|R_n|, n-2) slices (``indexing.slice_index``) that each x ∈ R_n
    falls in at the levels m = n, …, 3 of recursive_fft."""
    points = np.arange(size(n))
    columns = []
    for m in range(n, 2, -1):
        slices, points = slice_index(m)[points].T
        columns.append(slices)
    return np.stack(columns, axis=1) if columns else np.empty((size(n), 0), dtype=np.int32)


def slice_kinds(n):
    """(|R_n|, n-2) kinds of the slice each x ∈ R_n falls in at the levels
    m = n, …, 3 of recursive_fft: "T" (T_i, i < m), "Tm", "up" or "link"."""
    paths = slice_paths(n)
    kind = np.where(paths % 2 == 0, "T", "up").astype(object)
    top = 2 * np.arange(n, 2, -1)  # 2m at each column
    kind[paths == top - 2], kind[paths == top - 1] = "Tm", "link"
    return kind


def element_on(n, positions, seed):
    rng = np.random.default_rng(seed)
    values = np.zeros(size(n), dtype=complex)
    values[positions] = rng.uniform(-1, 1, len(positions)) + 1j * rng.uniform(-1, 1, len(positions))
    return from_dense(n, SEMIGROUP, values)


class TestEmptySlices:
    """Supports that leave whole slices empty at every level, which the
    level pass skips, against the per-node recursion's blocks and counts
    and, up to n = 5, the naive oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kinds", [{"link"}, {"Tm"}, {"up"}, {"T", "Tm"}, {"up", "link"},
                                       {"Tm", "link"}])
    def test_supports_within_slice_kinds(self, n, kinds):
        # {"link"} keeps the zero map and R_2; {"T", "Tm"} holds every
        # permutation and more; {"Tm", "link"} takes no product at any level
        inside = np.isin(slice_kinds(n), list(kinds)).all(axis=1)
        f = element_on(n, np.flatnonzero(inside), 500 + n)
        assert f.support() > 0
        self._check(f)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("slot", [0, 2, 1, 3])  # T_1, T_2, up_1, up_2
    def test_one_slot_of_one_side_at_every_level(self, n, slot):
        # each level multiplies the children of one slice alone, through a
        # view of Q_μ's columns for it; the other side is empty
        inside = (slice_paths(n) == slot).all(axis=1)
        f = element_on(n, np.flatnonzero(inside), 530 + n + slot)
        assert f.support() > 0
        self._check(f)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_term_in_each_slice(self, n):
        # the top level has every slice, each with one child; below it, each
        # parent has one child and every other slice of its side is missing
        top = slice_paths(n)[:, 0]
        rng = np.random.default_rng(540 + n)
        terms = [rng.choice(np.flatnonzero(top == s)) for s in range(2 * n)]
        self._check(element_on(n, np.sort(terms), 540 + n))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_only_permutations(self, n):
        perms = np.array(sorted(permutations(range(1, n + 1))), dtype=np.int64)
        self._check(element_on(n, element_index(n, perms), 510 + n))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zero_map_and_top_link_slice(self, n):
        # the top level has one slice only; the levels below are full
        self._check(element_on(n, np.flatnonzero(slice_kinds(n)[:, 0] == "link"), 520 + n))

    @pytest.mark.parametrize("n", range(6))
    def test_zero_element(self, n):
        F = recursive_fft(from_dense(n, SEMIGROUP, np.zeros(size(n), dtype=complex)))
        assert list(F.blocks) == list(labels(n))
        for sh, M in F.blocks.items():
            assert M.shape == (dim(sh, n), dim(sh, n))
            assert not M.any()
        assert F.ops.multiply_adds == 0

    @staticmethod
    def _check(f):
        F = recursive_fft(f)
        counter = OpCounter()
        expected = in_stein_order(f.n, per_node_recursive(dict(f.coeffs), f.n, counter))
        assert F.ops.multiply_adds == counter.multiply_adds
        for sh, M in expected.items():
            assert np.allclose(F.blocks[sh], M, rtol=0.0, atol=1e-12)
        if f.n <= 5:
            assert F.allclose(naive_transform(f), 1e-9)


MEMORY_PROBE = """
import gc, json, tracemalloc
import numpy as np
from rookfft.algebra import SEMIGROUP, from_dense
from rookfft.core import size
from rookfft.transforms import recursive_fft
rng = np.random.default_rng(106)
f = from_dense(6, SEMIGROUP, rng.uniform(-1, 1, size(6)) + 1j * rng.uniform(-1, 1, size(6)))
gc.collect()
tracemalloc.start()
recursive_fft(f)
gc.collect()
kept = tracemalloc.get_traced_memory()[0]
tracemalloc.reset_peak()
recursive_fft(f)
print(json.dumps({"kept": kept, "warm_peak": tracemalloc.get_traced_memory()[1] - kept}))
"""


class TestMemory:
    def test_full_support_r6_caches_and_peak(self):
        # in a fresh process, so that every cache is filled by the first
        # call; the per-label pass this kernel replaced kept 1.51 MB and
        # peaked at 1.98 MB warm under this probe
        src = str(Path(rookfft.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout
        probe = json.loads(out)
        assert probe["kept"] <= 2.0 * 2**20
        assert probe["warm_peak"] <= 2.5 * 2**20


class TestInversion:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_round_trip_r3(self, seed):
        f = rand_elem(3, GROUPOID, seed)
        assert fourier_invert(stein_fft(f)).allclose(f, 1e-9)

    def test_zero_map_point_mass(self):
        d = delta(2, PP.zero(2), GROUPOID)
        assert fourier_invert(stein_fft(d)).allclose(d, 1e-12)

    @pytest.mark.parametrize("seed", [9, 10])
    def test_recursive_round_trip(self, seed):
        g = rand_elem(3, SEMIGROUP, seed)
        assert fourier_invert(recursive_fft(g)).allclose(to_groupoid(g), 1e-9)

    def test_missing_block_is_error(self):
        F = stein_fft(rand_elem(2, GROUPOID, 11))
        del F.blocks[(1,)]
        with pytest.raises(ValueError):
            fourier_invert(F)
        # a block whose label lies outside Λ_n is refused, not ignored
        G = stein_fft(rand_elem(3, GROUPOID, 11))
        G.blocks[(5,)] = np.eye(1)
        for refuse in (fourier_invert, lambda G: blockwise_product(G, G)):
            with pytest.raises(ValueError, match=r"\(5,\), which is not a label of R_3"):
                refuse(G)

    def test_wrong_shape_is_error(self):
        F = stein_fft(rand_elem(2, GROUPOID, 12))
        F.blocks[(1,)] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            fourier_invert(F)


def _invert_per_element(F, rows):
    """The per-element inversion formula, the oracle for fourier_invert:
    f(x) = (1/k!) Σ_{λ⊢k} f^λ·tr(F̂(λ)·ρ_λ(⌊x⁻¹⌋)) with k = rk(x), at the
    elements of R_n in these layout rows."""
    out = []
    for x in elements_at(F.n, rows):
        x_inv = x.inverse()
        total = sum(
            num_standard(shape)
            * np.trace(F.blocks[shape] @ stein_rep(shape, F.n).eval_groupoid(x_inv))
            for shape in partitions(x.rank)
        )
        out.append(total / factorial(x.rank))
    return np.array(out)


@cache
def _full_support(n):
    """A seeded full-support semigroup element of R_n, its groupoid image,
    and its transforms by both FFTs."""
    rng = np.random.default_rng(300 + n)
    values = rng.uniform(-1, 1, size(n)) + 1j * rng.uniform(-1, 1, size(n))
    f = from_dense(n, SEMIGROUP, values)
    g = to_groupoid(f)
    return f, g, stein_fft(g), recursive_fft(f)


class TestFastInversion:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_per_element_formula(self, n):
        # every element up to n = 4; a seeded sample of 200 at n = 5, where the
        # formula takes seconds over all of R_5
        _, _, S, H = _full_support(n)
        positions = range(size(n)) if n <= 4 else sorted(random.Random(5).sample(range(size(n)), 200))
        elements = enumerate_rn(n)
        images = np.array([elements[i].image for i in positions], dtype=np.int64)
        rows = element_index(n, images.reshape(len(positions), n))
        for F in (S, H):
            want = _invert_per_element(F, rows)
            assert np.abs(fourier_invert(F).values[rows] - want).max() <= 1e-9

    @pytest.mark.parametrize("n", [6, 7])
    def test_round_trip_full_support_both_families(self, n):
        _, g, S, H = _full_support(n)
        assert np.abs(fourier_invert(S).values - g.values).max() <= 1e-9
        assert np.abs(fourier_invert(H).values - g.values).max() <= 1e-9

    @pytest.mark.parametrize("n", [6, 7])
    def test_recursive_blocks_are_stein_blocks(self, n):
        # beyond the naive oracle's reach: recursive_fft's blocks are the
        # stein blocks of the groupoid image
        _, _, S, H = _full_support(n)
        for shape in labels(n):
            want = S.blocks[shape]
            assert np.abs(H.blocks[shape] - want).max() <= 1e-12 * np.abs(want).max()

    def test_similarity_takes_recursive_blocks_to_stein_at_n7(self):
        # recursive_fft's blocks, taken back to the halverson order by the
        # inverse of p, are ones the dense similarity U takes to the stein
        # blocks: U⁻¹·F̂_H·U = stein_fft_semigroup(f), and F̂_H[p][:, p] is it
        n = 7
        f, _, _, H = _full_support(n)
        S = stein_fft_semigroup(f)
        for shape in labels(n):
            U, p = halverson_similarity(shape, n), halverson_permutation(shape, n)
            q = np.argsort(p)
            halverson = H.blocks[shape][q][:, q]
            assert np.abs(np.linalg.solve(U, halverson @ U) - S.blocks[shape]).max() <= 1e-9
            assert np.array_equal(H.blocks[shape], halverson[p][:, p])

    def test_input_blocks_are_left_unchanged(self):
        _, _, S, H = _full_support(3)
        for F in (S, H):
            before = {sh: M.copy() for sh, M in F.blocks.items()}
            fourier_invert(F)
            assert all(np.array_equal(F.blocks[sh], before[sh]) for sh in before)


class TestAlgebraIsomorphism:
    @pytest.mark.parametrize("n", range(4))
    def test_convolution_theorem_semigroup_pairing(self, n):
        f = rand_elem(n, SEMIGROUP, 60 + n)
        g = rand_elem(n, SEMIGROUP, 70 + n)
        lhs = recursive_fft(convolve_semigroup(f, g))
        rhs = blockwise_product(recursive_fft(f), recursive_fft(g))
        assert lhs.allclose(rhs, 1e-9)

    @pytest.mark.parametrize("n", range(4))
    def test_convolution_theorem_groupoid_pairing(self, n):
        f = rand_elem(n, GROUPOID, 80 + n)
        g = rand_elem(n, GROUPOID, 90 + n)
        lhs = stein_fft(direct_convolve_groupoid(f, g))
        rhs = blockwise_product(stein_fft(f), stein_fft(g))
        assert lhs.allclose(rhs, 1e-9)

    @pytest.mark.parametrize("n, f_terms, g_terms", [(6, 200, 20), (7, 100, 10)])
    def test_convolution_theorem_on_sparse_operands(self, n, f_terms, g_terms):
        # recursive_fft computes its blocks apart from the stein transforms
        # that convolve_semigroup runs through
        f = sparse_element(n, f_terms, 100 + n, SEMIGROUP)
        g = sparse_element(n, g_terms, 110 + n, SEMIGROUP)
        lhs = recursive_fft(convolve_semigroup(f, g))
        rhs = blockwise_product(recursive_fft(f), recursive_fft(g))
        assert lhs.allclose(rhs, 1e-9)

    def test_product_refuses_operands_with_different_labels(self):
        # block JSON may leave labels out; the product names the first one missing
        F = stein_fft(rand_elem(2, GROUPOID, 5))
        data = to_json_dict(F)
        data["blocks"] = [b for b in data["blocks"] if b["lambda"] != [2]]
        partial = from_json_dict(data)
        for a, b in [(F, partial), (partial, F)]:
            with pytest.raises(ValueError, match=r"missing block for label \(2,\)"):
                blockwise_product(a, b)

    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID])
    def test_convolutions_match_the_direct_sums_at_n6(self, basis):
        assert_product_matches_oracle(
            sparse_element(6, 200, 120, basis), sparse_element(6, 20, 121, basis)
        )

    @pytest.mark.parametrize("n", range(4))
    def test_transform_is_invertible_linear_map(self, n):
        # stacking the transforms of all basis vectors gives a square
        # invertible matrix of size |R_n|
        rows = []
        for s in enumerate_rn(n):
            F = stein_fft(delta(n, s, GROUPOID))
            rows.append(
                np.concatenate([F.blocks[sh].ravel() for sh in labels(n)])
            )
        M = np.array(rows)
        assert M.shape == (size(n), size(n))
        assert np.linalg.matrix_rank(M) == size(n)

    @pytest.mark.parametrize("n", range(4))
    def test_inversion_on_every_basis_vector(self, n):
        for s in enumerate_rn(n):
            d = delta(n, s, GROUPOID)
            assert fourier_invert(stein_fft(d)).allclose(d, 1e-9)


class TestBounds:
    def test_closed_forms(self):
        assert clausen_bound(4) == 1600
        # k=1 term: C(2,1)²·(2/3)·1·4·1! = 32/3; k=2 term: 1·(2/3)·2·9·2! = 24
        assert stein_bound(2) == Fraction(32, 3) + 24
        assert recursive_bound(2) == 49
        assert recursive_bound(3) == 906
        assert recursive_bound(4) == 13936
        assert recursive_bound(5) == 216660
        assert 2**5 * 5 * size(5) == 247360

    @pytest.mark.parametrize("n", range(1, 5))
    def test_measured_ops_within_bounds(self, n):
        f = rand_elem(n, SEMIGROUP, 100 + n)
        g = to_groupoid(f)
        assert stein_fft(g).ops.multiply_adds <= stein_bound(n)
        assert stein_fft_semigroup(f).ops.multiply_adds <= stein_semigroup_bound(n)
        assert recursive_fft(f).ops.multiply_adds <= recursive_bound(n)


class TestSparseSupport:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_paths_agree_on_sparse_inputs(self, n):
        f = rand_elem(n, SEMIGROUP, 200 + n, support="sparse")
        g = to_groupoid(f)
        oracle = naive_transform(g)
        assert stein_fft(g).allclose(oracle, 1e-9)
        assert stein_fft_semigroup(f).allclose(oracle, 1e-9)
        assert recursive_fft(f).allclose(oracle, 1e-9)

    def test_recursive_inversion_at_n4(self):
        g = rand_elem(4, SEMIGROUP, 207)
        assert fourier_invert(recursive_fft(g)).allclose(to_groupoid(g), 1e-9)


SPARSE_PINS = [
    # n, stein, semigroup, recursive
    (1, 0, 3, 4), (2, 2, 12, 35), (3, 48, 121, 522), (4, 1034, 2019, 7529),
    (5, 17530, 30207, 110_357), (6, 309_840, 490_109, 1_649_821),
]


class TestPinnedOpCounts:
    """multiply_adds pinned: the batched S_k kernel charges exactly what the
    per-cell S_k recursion charged, and recursive_fft's dense products
    exactly what sparse applies charged, sparse inputs too."""

    def test_full_support_at_n6(self):
        assert stein_fft(rand_elem(6, GROUPOID, 206)).ops.multiply_adds == 350_600
        assert stein_fft_semigroup(rand_elem(6, SEMIGROUP, 106)).ops.multiply_adds == 642_393
        assert recursive_fft(rand_elem(6, SEMIGROUP, 106)).ops.multiply_adds == 1_709_513

    # case ids name (n, stein, semigroup) only, so they stay stable as columns are added
    @pytest.mark.parametrize("n, stein, semigroup, recursive", SPARSE_PINS,
                             ids=["-".join(map(str, row[:3])) for row in SPARSE_PINS])
    def test_sparse_support(self, n, stein, semigroup, recursive):
        g = rand_elem(n, GROUPOID, 200 + n, support="sparse")
        f = rand_elem(n, SEMIGROUP, 100 + n, support="sparse")
        assert stein_fft(g).ops.multiply_adds == stein
        assert stein_fft_semigroup(f).ops.multiply_adds == semigroup
        assert recursive_fft(f).ops.multiply_adds == recursive


class TestScalableOracles:
    def test_deltas_at_n7_match_stein_rep(self):
        # beyond the naive oracle: the transform of ⌊x⌋ is the image of x
        n = 7
        rng = random.Random(7)
        for k in range(n + 1):
            for _ in range(2):
                pairs = zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k))
                x = PP.from_pairs(n, pairs)
                F = stein_fft(delta(n, x, GROUPOID))
                for sh in labels(n):
                    assert np.allclose(F.blocks[sh], stein_rep(sh, n).eval_groupoid(x),
                                       rtol=0.0, atol=1e-9)

    def test_delta_characters_at_n7_agree_across_families(self):
        # the two FFTs give the same blocks, so every block has the same trace
        n = 7
        rng = random.Random(17)
        for k in range(n + 1):
            for _ in range(2):
                pairs = zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k))
                f = delta(n, PP.from_pairs(n, pairs), SEMIGROUP)
                H = recursive_fft(f)
                S = stein_fft(to_groupoid(f))
                for sh in labels(n):
                    assert abs(np.trace(H.blocks[sh]) - np.trace(S.blocks[sh])) <= 1e-9


class TestSerialization:
    def test_round_trip(self):
        F = stein_fft(rand_elem(2, GROUPOID, 13))
        G = from_json_dict(to_json_dict(F))
        assert G.allclose(F, 1e-15)
        assert G.ops.multiply_adds == F.ops.multiply_adds

    def test_stein_cells_expose_block_grid(self):
        F = stein_fft(delta(2, pp(2, "2->1"), GROUPOID))
        data = to_json_dict(F)
        block = next(b for b in data["blocks"] if b["lambda"] == [1])
        d = 1  # the S_1 irreducible is 1-dimensional

        def cell(A, B):
            a, b = ksubset_index(A), ksubset_index(B)
            return [row[b * d : (b + 1) * d] for row in block["rows"][a * d : (a + 1) * d]]

        assert cell((1,), (2,)) == [[{"re": 1.0, "im": 0.0}]]
        assert cell((1,), (1,)) == [[{"re": 0.0, "im": 0.0}]]

    def test_rejects_non_finite_entry(self):
        data = to_json_dict(stein_fft(rand_elem(2, GROUPOID, 15)))
        data["blocks"][-1]["rows"][0][0]["re"] = float("nan")
        with pytest.raises(ParseError, match="non-finite"):
            from_json_dict(data)

    @pytest.mark.parametrize("damage", ["no_blocks", "no_rows", "entry_not_object"])
    def test_rejects_malformed_layout(self, damage):
        data = to_json_dict(stein_fft(rand_elem(2, GROUPOID, 16)))
        if damage == "no_blocks":
            del data["blocks"]
        elif damage == "no_rows":
            del data["blocks"][0]["rows"]
        else:
            data["blocks"][0]["rows"][0][0] = 1.0
        with pytest.raises(ParseError, match="bad block JSON"):
            from_json_dict(data)

    def test_halverson_has_no_cells(self):
        F = recursive_fft(rand_elem(2, SEMIGROUP, 14))
        data = to_json_dict(F)
        assert all("cells" not in b for b in data["blocks"])
