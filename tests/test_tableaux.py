from math import comb

import pytest

from rookfft.rook_reps import dim
from rookfft.tableaux import (
    corners,
    last_letter_key,
    nstandard_tableaux,
    num_standard,
    partitions,
    remove_corner,
    standard_tableaux,
)


def test_partition_counts():
    assert [len(partitions(k)) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_corners():
    assert corners((2, 1, 1)) == ((0, 1), (2, 0))
    assert corners((3, 3, 1)) == ((1, 2), (2, 0))
    assert corners(()) == ()
    assert remove_corner((2, 1, 1), 2) == (2, 1)


def test_hook_counts():
    assert num_standard(()) == 1
    assert num_standard((3,)) == 1
    assert num_standard((1, 1, 1)) == 1
    assert num_standard((2, 1)) == 2
    assert num_standard((2, 2)) == 2
    assert num_standard((3, 2)) == 5
    assert num_standard((2, 1, 1)) == 3


@pytest.mark.parametrize("k", range(7))
def test_hook_formula_matches_enumeration(k):
    for shape in partitions(k):
        assert len(standard_tableaux(shape)) == num_standard(shape)


@pytest.mark.parametrize("n", range(6))
def test_nstandard_counts(n):
    for k in range(n + 1):
        for shape in partitions(k):
            tabs = nstandard_tableaux(shape, n)
            assert len(tabs) == dim(shape, n) == comb(n, k) * num_standard(shape)
            assert len(set(tabs)) == len(tabs)


def test_ordered_basis_for_2_1_1_at_n5():
    # the 15-dimensional module: first the tableaux without 5, then 5 in the
    # top corner, then 5 in the bottom corner, each group ordered recursively
    expected = [
        ((1, 4), (2,), (3,)),
        ((1, 3), (2,), (4,)),
        ((1, 2), (3,), (4,)),
        ((1, 5), (2,), (3,)),
        ((1, 5), (2,), (4,)),
        ((1, 5), (3,), (4,)),
        ((2, 5), (3,), (4,)),
        ((1, 3), (2,), (5,)),
        ((1, 2), (3,), (5,)),
        ((1, 4), (2,), (5,)),
        ((1, 4), (3,), (5,)),
        ((2, 4), (3,), (5,)),
        ((1, 2), (4,), (5,)),
        ((1, 3), (4,), (5,)),
        ((2, 3), (4,), (5,)),
    ]
    assert list(nstandard_tableaux((2, 1, 1), 5)) == expected


def test_last_letter_reduces_to_classic_order_for_full_tableaux():
    # for λ ⊢ n the no-n block is empty and the order is plain last-letter
    tabs = nstandard_tableaux((2, 1), 3)
    assert tabs == (((1, 3), (2,)), ((1, 2), (3,)))
    key = [last_letter_key(t, 3) for t in tabs]
    assert key == sorted(key)
