from math import comb

import numpy as np
import pytest

from conftest import reference_enumerate_rn
from rookfft.core import enumerate_rn, factorize, ksubset_index
from rookfft.indexing import (
    canonical_order,
    cell_layout,
    element_index,
    elements_at,
    rank_starts,
    slice_index,
    zeta_steps,
)
from rookfft.symmetric import clausen_perms


@pytest.mark.parametrize("n", range(7))
def test_positions_follow_enumeration_order(n):
    elems = reference_enumerate_rn(n)
    images = np.array([s.image for s in elems], dtype=np.int64).reshape(len(elems), n)
    rows = element_index(n, images)
    assert sorted(rows.tolist()) == list(range(len(elems)))
    assert elements_at(n, rows) == list(elems)
    assert np.array_equal(canonical_order(n, np.arange(len(elems))), rows)
    assert np.array_equal(canonical_order(n, rows[::-1]), rows)
    assert enumerate_rn(n) == elems


@pytest.mark.parametrize("n", range(5))
def test_cells_hold_the_canonical_factorization(n):
    starts = rank_starts(n)
    assert starts[-1] == len(enumerate_rn(n))
    for k in range(n + 1):
        c = comb(n, k)
        perms = [tuple(w) for w in clausen_perms(k).tolist()]
        cells = np.arange(starts[k], starts[k + 1]).reshape(c * c, len(perms))
        for row, rows in enumerate(cells):
            for column, x in enumerate(elements_at(n, rows)):
                ran, y, dom = factorize(x)
                assert x.rank == k
                assert (ksubset_index(ran), ksubset_index(dom)) == divmod(row, c)
                assert y.image == perms[column]


@pytest.mark.parametrize("n", range(6))
def test_zeta_steps_drop_the_jth_smallest_domain_point(n):
    elems = elements_at(n, np.arange(len(enumerate_rn(n))))
    assert sorted(cell_layout(n).tolist()) == list(range(len(elems)))
    steps = zeta_steps(n)
    assert len(steps) == n
    for j, (first, targets) in zip(range(n, 0, -1), steps):
        assert targets.dtype == np.int32 and first + len(targets) == len(elems)
        assert list(range(first, len(elems))) == [i for i, x in enumerate(elems) if x.rank >= j]
        for i, t in enumerate(targets.tolist(), start=first):
            image = list(elems[i].image)
            image[elems[i].dom()[j - 1] - 1] = 0
            assert elems[t].image == tuple(image)


@pytest.mark.parametrize("m", range(2, 6))
def test_slices_split_rm_into_translated_copies(m):
    below = {x.image: i for i, x in enumerate(elements_at(m - 1, np.arange(len(enumerate_rn(m - 1)))))}
    table = slice_index(m)
    assert table.dtype == np.int32 and table.shape == (len(enumerate_rn(m)), 2)
    for (k, at), x in zip(table.tolist(), elements_at(m, np.arange(len(table)))):
        img = x.image
        i = img[-1]
        if i:  # x = T_i·s: drop x(m), lower the values above i
            expected = (2 * i - 2, tuple(v - (v > i) for v in img[:-1]))
        elif m in img:  # x = s·T^i with x(i) = m: delete the slot i
            i = img.index(m) + 1
            expected = (2 * i - 1, img[: i - 1] + img[i:])
        else:  # x = [m]·s
            expected = (2 * m - 1, img[:-1])
        assert (k, at) == (expected[0], below[expected[1]])
