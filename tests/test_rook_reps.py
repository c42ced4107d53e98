import numpy as np
import pytest

from conftest import (
    block_diag,
    eval_semigroup,
    extended_fixed,
    halverson_similarity,
    transposition_image,
)
from rookfft.core import PartialPermutation, compose, enumerate_rn, generator_word, size
from rookfft.rook_reps import (
    branch_rn,
    dim,
    halverson_permutation,
    halverson_rep,
    labels,
    stein_rep,
)

PP = PartialPermutation


def pp(n, flat):
    return PP.from_flat(n, flat)


class TestLabels:
    def test_label_sets(self):
        assert labels(0) == ((),)
        assert labels(2) == ((), (1,), (2,), (1, 1))

    def test_dims_at_n2(self):
        dims = [dim(sh, 2) for sh in labels(2)]
        assert dims == [1, 2, 1, 1]
        assert sum(d * d for d in dims) == 7

    def test_empty_shape_dim(self):
        for n in range(5):
            assert dim((), n) == 1

    def test_paper_sized_module(self):
        assert dim((2, 1, 1), 5) == 15

    @pytest.mark.parametrize("n", range(7))
    def test_wedderburn_sum_of_squares(self, n):
        assert sum(dim(sh, n) ** 2 for sh in labels(n)) == size(n)


class TestBranching:
    def test_weight_one_label(self):
        assert branch_rn((1,), 2) == ((1,), ())

    def test_full_row_label(self):
        assert branch_rn((3,), 3) == ((2,),)
        assert branch_rn((1, 1, 1), 3) == ((1, 1),)

    def test_two_corner_label(self):
        assert branch_rn((2, 1, 1), 5) == ((2, 1, 1), (1, 1, 1), (2, 1))
        assert [dim(mu, 4) for mu in branch_rn((2, 1, 1), 5)] == [3, 4, 8]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dims_add_up(self, n):
        for sh in labels(n):
            assert dim(sh, n) == sum(dim(mu, n - 1) for mu in branch_rn(sh, n))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_block_equality(self, n):
        # restriction to R_{n-1} is exactly block-diagonal in branching order
        for sh in labels(n):
            rep = halverson_rep(sh, n)
            order = branch_rn(sh, n)
            for s in enumerate_rn(n - 1):
                expected = block_diag(
                    [halverson_rep(mu, n - 1).evaluate(s).astype(complex) for mu in order],
                    rep.dim,
                )
                assert np.allclose(rep.evaluate(extended_fixed(s, n)), expected, atol=1e-12)


class TestHalverson:
    def test_rank_one_label_at_n1(self):
        rep = halverson_rep((1,), 1)
        assert rep.pairings == {}
        assert np.array_equal(rep.link(1), [0.0])
        assert np.array_equal(rep.evaluate(PP.zero(1)), [[0.0]])

    def test_sign_label_at_n2(self):
        rep = halverson_rep((1, 1), 2)
        assert np.array_equal(rep.pairings[2].dense(), [[-1.0]])

    def test_empty_label_is_trivial_action(self):
        rep = halverson_rep((), 3)
        for s in enumerate_rn(3):
            assert np.array_equal(rep.evaluate(s), [[1.0]])

    def test_paper_basis_is_used(self):
        rep = halverson_rep((2, 1, 1), 5)
        assert rep.dim == 15
        assert rep.basis[0] == ((1, 4), (2,), (3,))
        assert rep.basis[-1] == ((2, 3), (4,), (5,))

    @pytest.mark.parametrize("n", range(4))
    def test_homomorphism_exhaustive(self, n):
        elems = enumerate_rn(n)
        for sh in labels(n):
            rep = halverson_rep(sh, n)
            for s in elems:
                Ms = rep.evaluate(s)
                for t in elems:
                    assert np.allclose(
                        Ms @ rep.evaluate(t), rep.evaluate(compose(s, t)), atol=1e-9
                    )

    @pytest.mark.parametrize("n", range(7))
    def test_pairings_densify_to_the_dense_reference(self, n):
        # every generator image is held as its pairing, which builds the
        # entry-by-entry dense matrix exactly, with as many nonzeros
        for sh in labels(n):
            rep = halverson_rep(sh, n)
            assert sorted(rep.pairings) == list(range(2, n + 1))
            for j, pairing in rep.pairings.items():
                M = transposition_image(rep.basis, j)
                assert np.array_equal(rep.pairings[j].dense(), M)
                assert pairing.nonzeros() == np.count_nonzero(M)

    @pytest.mark.parametrize("n", range(5))
    def test_words_by_column_updates_match_dense_products(self, n):
        # evaluate_word updates columns through the pairings; the product of
        # the dense reference matrices, letter by letter, agrees
        for sh in labels(n):
            rep = halverson_rep(sh, n)
            dense = {j: transposition_image(rep.basis, j) for j in range(2, n + 1)}
            for s in enumerate_rn(n):
                want = np.eye(rep.dim)
                for kind, j in generator_word(s):
                    want = want @ (dense[j] if kind == "t" else np.diag(rep.link(j)))
                assert np.allclose(rep.evaluate(s), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_schur_sparsity(self, n):
        for sh in labels(n):
            rep = halverson_rep(sh, n)
            for M in (p.dense() for p in rep.pairings.values()):
                nz = np.abs(M) > 1e-12
                assert nz.sum(axis=0).max() <= 2
                assert nz.sum(axis=1).max() <= 2
            link = np.abs(np.diag(rep.link(n))) > 1e-12
            assert link.sum(axis=1).max() <= 1


class TestStein:
    def test_rank_filter_at_n1(self):
        rep = stein_rep((1,), 1)
        assert np.array_equal(rep.eval_groupoid(PP.identity(1)), [[1.0]])
        assert np.array_equal(rep.eval_groupoid(PP.zero(1)), [[0.0]])

    def test_empty_label(self):
        rep = stein_rep((), 1)
        assert np.array_equal(rep.eval_groupoid(PP.zero(1)), [[1.0]])
        assert np.array_equal(rep.eval_groupoid(PP.identity(1)), [[0.0]])

    def test_cell_placement_at_n2(self):
        rep = stein_rep((1,), 2)
        M = rep.eval_groupoid(pp(2, "2->1"))
        # ran {1} is the first 1-subset, dom {2} the second
        assert np.array_equal(M, [[0.0, 1.0], [0.0, 0.0]])

    def test_groupoid_morphism_on_aligned_pairs(self):
        # ⌊r⌋⌊t⌋ = ⌊rt⌋ when dom(r) = ran(t), else 0
        for sh in labels(2):
            rep = stein_rep(sh, 2)
            for r in enumerate_rn(2):
                for t in enumerate_rn(2):
                    prod = rep.eval_groupoid(r) @ rep.eval_groupoid(t)
                    if r.dom() == t.ran():
                        assert np.allclose(prod, rep.eval_groupoid(compose(r, t)), atol=1e-10)
                    else:
                        assert np.allclose(prod, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", range(4))
    def test_families_share_characters(self, n):
        # equivalent representations have equal traces on every element
        for sh in labels(n):
            h = halverson_rep(sh, n)
            s_rep = stein_rep(sh, n)
            assert h.dim == s_rep.dim
            for s in enumerate_rn(n):
                assert abs(
                    np.trace(h.evaluate(s)) - np.trace(eval_semigroup(s_rep, s))
                ) < 1e-9


class TestSimilarity:
    @pytest.mark.parametrize("n", range(5))
    def test_takes_halverson_images_to_stein_images(self, n):
        for sh in labels(n):
            U = halverson_similarity(sh, n)
            assert U.shape == (dim(sh, n), dim(sh, n))
            p = halverson_permutation(sh, n)
            h, s_rep = halverson_rep(sh, n), stein_rep(sh, n)
            for s in enumerate_rn(n):
                want = eval_semigroup(s_rep, s)
                assert np.allclose(np.linalg.solve(U, h.evaluate(s) @ U), want, rtol=0.0, atol=1e-9)
                assert np.allclose(h.evaluate(s)[p][:, p], want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n", range(8))
    def test_similarity_is_the_permutation(self, n):
        # U is a 0/1 permutation matrix, column j the unit vector at p[j]
        for sh in labels(n):
            p = halverson_permutation(sh, n)
            assert not p.flags.writeable
            assert np.array_equal(halverson_similarity(sh, n), np.eye(dim(sh, n))[:, p])
