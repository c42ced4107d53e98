import random
import re
from math import factorial

import numpy as np
import pytest

from rookfft.core import PartialPermutation as PP
from rookfft.counting import OpCounter
from rookfft.rook_reps import stein_rep
from rookfft.symmetric import (
    all_perms,
    branch_sn,
    clausen_perms,
    halverson_rep,
    invariant_form,
    perm_compose,
    perm_image,
    seminormal_rep,
    sn_fft,
    sn_fft_batch,
    sn_ifft,
    sn_ifft_batch,
    sn_naive,
)
from rookfft.tableaux import num_standard, partitions
from rookfft.transforms import clausen_bound


def image(shape, w):
    """ρ_λ(w) for a permutation w in one-line notation."""
    return seminormal_rep(shape).evaluate(PP.from_perm_tuple(w))


def rand_fn(n, seed):
    rng = random.Random(seed)
    return {w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in all_perms(n)}


class TestSeminormalImages:
    def test_trivial_and_sign(self):
        assert np.array_equal(seminormal_rep((2,)).transpositions[2], [[1.0]])
        assert np.array_equal(seminormal_rep((1, 1)).transpositions[2], [[-1.0]])

    def test_standard_rep_of_s3(self):
        rep = seminormal_rep((2, 1))
        assert rep.dim == 2
        assert np.allclose(rep.transpositions[2], np.diag([-1.0, 1.0]))
        # off-diagonal entries are 1 ± 1/(content difference) on the swap pair
        assert np.allclose(rep.transpositions[3], [[0.5, 0.5], [1.5, -0.5]])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generator_relations(self, n):
        for shape in partitions(n):
            rep = seminormal_rep(shape)
            eye = np.eye(rep.dim)
            for j in range(2, n + 1):
                M = rep.transpositions[j]
                assert np.allclose(M @ M, eye, atol=1e-10)
            for j in range(2, n):
                A, B = rep.transpositions[j], rep.transpositions[j + 1]
                assert np.allclose(A @ B @ A, B @ A @ B, atol=1e-10)
            for j in range(2, n + 1):
                for i in range(2, j - 1):
                    A, B = rep.transpositions[i], rep.transpositions[j]
                    assert np.allclose(A @ B, B @ A, atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_schur_sparsity(self, n):
        for shape in partitions(n):
            rep = seminormal_rep(shape)
            for M in rep.transpositions.values():
                nz = np.abs(M) > 1e-12
                assert nz.sum(axis=0).max() <= 2
                assert nz.sum(axis=1).max() <= 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sum_of_squared_dims(self, n):
        assert sum(num_standard(sh) ** 2 for sh in partitions(n)) == factorial(n)

    def test_evaluate_is_homomorphism(self):
        for u in all_perms(3):
            for v in all_perms(3):
                assert np.allclose(
                    image((2, 1), u) @ image((2, 1), v),
                    image((2, 1), perm_compose(u, v)),
                    atol=1e-10,
                )

    @pytest.mark.parametrize("k", range(7))
    def test_seminormal_rep_is_the_halverson_rep_at_n_equal_k(self, k):
        for shape in partitions(k):
            assert seminormal_rep(shape) is halverson_rep(shape, k)

    def test_handed_out_images_are_read_only(self):
        w = (2, 1, 3)
        rep, want = seminormal_rep((2, 1)), image((2, 1), w)
        handed = [perm_image((2, 1), w), rep.link_image(3), *rep.transpositions.values()]
        for M in handed:
            with pytest.raises(ValueError, match="read-only"):
                M[:] = 0
        fresh = image((2, 1), w)
        fresh[:] = 0  # evaluate builds a new matrix each call
        assert np.array_equal(image((2, 1), w), want)
        assert np.array_equal(perm_image((2, 1), w), want)
        assert np.array_equal(stein_rep((2, 1), 3).eval_groupoid(PP.from_perm_tuple(w)), want)


class TestBranching:
    def test_order_realized_by_blocks(self):
        # (2,1) restricted to S_2: diag(-1, 1) = sign ⊕ trivial exactly
        assert branch_sn((2, 1)) == ((1, 1), (2,))
        M = image((2, 1), (2, 1, 3))
        top = image((1, 1), (2, 1))
        bottom = image((2,), (2, 1))
        assert np.allclose(M, np.block([
            [top, np.zeros((1, 1))],
            [np.zeros((1, 1)), bottom],
        ]), atol=1e-12)

    def test_trivial_and_sign_chains(self):
        assert branch_sn((4,)) == ((3,),)
        assert branch_sn((1, 1, 1, 1)) == ((1, 1, 1),)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_chain_adapted_equality(self, n):
        # evaluating λ ⊢ n on w ∈ S_{n-1} gives exactly the block diagonal of
        # the restricted seminormal images
        for shape in partitions(n):
            rep = seminormal_rep(shape)
            parts = branch_sn(shape)
            for w in all_perms(n - 1):
                lifted = w + (n,)
                expected = np.zeros((rep.dim, rep.dim))
                at = 0
                for mu in parts:
                    sub = image(mu, w)
                    d = sub.shape[0]
                    expected[at : at + d, at : at + d] = sub
                    at += d
                assert np.allclose(image(shape, lifted), expected, atol=1e-12)


class TestSnFFT:
    def test_s2_blocks(self):
        blocks = sn_fft({(1, 2): 3.0, (2, 1): 5.0}, 2)
        assert np.allclose(blocks[(2,)], [[8.0]])
        assert np.allclose(blocks[(1, 1)], [[-2.0]])

    def test_delta_at_identity(self):
        blocks = sn_fft({(1, 2, 3): 1.0}, 3)
        for shape, M in blocks.items():
            assert np.allclose(M, np.eye(num_standard(shape)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_naive_within_bound(self, n):
        f = rand_fn(n, seed=n)
        counter = OpCounter()
        fast = sn_fft(f, n, counter)
        slow = sn_naive(f, n)
        for shape in fast:
            assert np.allclose(fast[shape], slow[shape], atol=1e-9)
        assert counter.multiply_adds <= clausen_bound(n)

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1), (1, 2, 4), (0, 1, 2)])
    @pytest.mark.parametrize("transform", [sn_fft, sn_naive])
    def test_refuses_a_key_that_is_not_a_permutation(self, transform, key):
        message = re.escape(f"{key} is not a permutation of 1..3")
        with pytest.raises(ValueError, match=f"^{message}$"):
            transform({(1, 2, 3): 1.0, key: 0.5}, 3)

    def test_s4_bound_value(self):
        counter = OpCounter()
        sn_fft(rand_fn(4, seed=0), 4, counter)
        assert counter.multiply_adds <= clausen_bound(4) == 1600

    @pytest.mark.parametrize("n", range(1, 5))
    def test_convolution_theorem(self, n):
        f, g = rand_fn(n, 10 + n), rand_fn(n, 20 + n)
        conv = {}
        for u, fu in f.items():
            for v, gv in g.items():
                w = perm_compose(u, v)
                conv[w] = conv.get(w, 0j) + fu * gv
        lhs = sn_fft(conv, n)
        F, G = sn_fft(f, n), sn_fft(g, n)
        for shape in lhs:
            assert np.allclose(lhs[shape], F[shape] @ G[shape], atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_ifft_round_trip(self, n):
        f = rand_fn(n, 30 + n)
        back = sn_ifft(sn_fft(f, n))
        assert all(abs(back[w] - f[w]) < 1e-9 for w in f)

    @pytest.mark.parametrize("k", range(7))
    def test_ifft_inverts_the_naive_transform(self, k):
        f = rand_fn(k, 40 + k)
        back = sn_ifft(sn_naive(f, k))
        assert list(back) == list(all_perms(k))
        assert max(abs(back[w] - f[w]) for w in f) <= 1e-9

    def test_ifft_rejects_bad_blocks(self):
        blocks = sn_fft(rand_fn(3, 1), 3)
        with pytest.raises(ValueError):
            sn_ifft({(3,): blocks[(3,)]})
        blocks[(2, 1)] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            sn_ifft(blocks)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            sn_fft({(1, 1): 1.0}, 2)

    def test_op_counts_of_the_sparse_recursion(self):
        # the counts the per-coset recursion charged before the batched kernel
        counts = []
        for n in range(1, 6):
            counter = OpCounter()
            sn_fft(rand_fn(n, seed=n), n, counter)
            counts.append(counter.multiply_adds)
        assert counts == [0, 4, 50, 484, 4760]


class TestBatchedKernel:
    @pytest.mark.parametrize("k", range(6))
    def test_clausen_order(self, k):
        perms = clausen_perms(k)
        assert sorted(map(tuple, perms.tolist())) == sorted(all_perms(k))
        if k:
            # the top-level coset T_i·S_(k-1) is the i-th run of (k-1)! columns
            runs = np.arange(factorial(k)) // factorial(k - 1) + 1
            assert np.array_equal(perms[:, k - 1], runs)

    @pytest.mark.parametrize("k", range(6))
    def test_rows_match_naive_and_single_runs(self, k):
        rng = random.Random(70 + k)
        perms = [tuple(w) for w in clausen_perms(k).tolist()]
        rows = []
        for keep in (1.0, 0.5, 0.2, 0.0):  # full, sparse, sparser and empty rows
            rows.append([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         if rng.random() < keep else 0j for _ in perms])
        counter = OpCounter()
        blocks = sn_fft_batch(np.array(rows), k, counter)
        assert list(blocks) == list(partitions(k))
        single_total = 0
        for r, row in enumerate(rows):
            f = {w: c for w, c in zip(perms, row) if c != 0}
            want = sn_naive(f, k)
            for shape in partitions(k):
                assert np.allclose(blocks[shape][r], want[shape], atol=1e-9)
            single = OpCounter()
            sn_fft(f, k, single)
            single_total += single.multiply_adds
        assert counter.multiply_adds == single_total


    @pytest.mark.parametrize("k", range(7))
    def test_inverse_batch_round_trip(self, k):
        rng = np.random.default_rng(80 + k)
        batch = rng.uniform(-1, 1, (4, factorial(k))) + 1j * rng.uniform(-1, 1, (4, factorial(k)))
        batch[1, rng.random(factorial(k)) < 0.7] = 0  # a sparse row
        batch[3] = 0  # an empty row
        back = sn_ifft_batch(sn_fft_batch(batch, k), k)
        assert back.shape == batch.shape
        assert np.abs(back - batch).max() <= 1e-12

    def test_inverse_batch_rejects_a_misshapen_stack(self):
        stacks = sn_fft_batch(np.ones((2, 6)), 3)
        stacks[(2, 1)] = stacks[(2, 1)][:, :1]
        with pytest.raises(ValueError, match="must be"):
            sn_ifft_batch(stacks, 3)


class TestInvariantForm:
    @pytest.mark.parametrize("shape", [sh for k in range(6) for sh in partitions(k)])
    def test_generator_walk_matches_group_sum(self, shape):
        S = sum(image(shape, w).T @ image(shape, w) for w in all_perms(sum(shape)))
        assert np.allclose(S, np.diag(np.diag(S)), rtol=0.0, atol=1e-9 * np.abs(S).max())
        W = invariant_form(shape)
        assert W[0] == 1.0 and np.all(W > 0)
        assert np.allclose(np.diag(S) / S[0, 0], W, rtol=1e-12, atol=0.0)
