"""The array-fed JSON edge: the element writer spells flat forms from image
digits, the block writer slices its rows from one list of entries, the
block reader checks re/im as whole lists, and the halverson image rows
build one generator word per element; each against the term-by-term path
it replaced."""

import numpy as np
import orjson
import pytest

from conftest import rand_elem, reference_block_json
from rookfft.algebra import GROUPOID, SEMIGROUP, _term, from_dense, from_json_dict, to_json_dict
from rookfft.core import ParseError, enumerate_rn, json_complex, size
from rookfft.indexing import elements_at, flat_forms
from rookfft.rook_reps import halverson_rep
from rookfft.transforms import (
    HALVERSON,
    FourierCoefficients,
    _columns,
    _image_rows,
    _json_block,
    recursive_fft,
    stein_fft,
    to_json_dict as blocks_to_json,
)


@pytest.mark.parametrize("n", range(7))
def test_flat_forms_spell_to_flat(n):
    every = np.arange(size(n))
    some = np.random.default_rng(n).choice(size(n), min(size(n), 50), replace=False)
    for at in (every, some, every[:0]):
        assert flat_forms(n, at) == [s.to_flat() for s in elements_at(n, at)]


@pytest.mark.parametrize("n,basis,seed", [(0, SEMIGROUP, 1), (1, GROUPOID, 2), (3, SEMIGROUP, 3),
                                          (5, GROUPOID, 4)])
def test_element_json_matches_the_term_by_term_writer(n, basis, seed):
    values = rand_elem(n, basis, seed).values.copy()
    values[::3] = 0  # gaps in the support
    values[1::7] = complex(-0.0, 0.5)  # a signed zero
    f = from_dense(n, basis, values)
    expected = [{"elem": s.to_flat(), "re": c.real, "im": c.imag} for s, c in f.items()]
    data = to_json_dict(f)
    assert repr(data) == repr({"n": n, "basis": basis, "terms": expected})  # -0.0 too
    assert all(type(t["re"]) is float and type(t["im"]) is float for t in data["terms"])
    assert np.array_equal(from_json_dict(data).values, f.values)


@pytest.mark.parametrize("n", range(6))
def test_block_writer_matches_the_per_row_writer(n):
    """Bit for bit, signed zeros included, in both families: n = 0 is one
    1×1 block, and every n has 1×1 blocks."""
    for F in (stein_fft(rand_elem(n, GROUPOID, n)), recursive_fft(rand_elem(n, SEMIGROUP, n))):
        blocks = {}
        for i, (shape, M) in enumerate(F.blocks.items()):
            M = M.copy()
            M.flat[i % M.size] = complex(-0.0, 0.5) if i % 2 else complex(0.25, -0.0)
            M.flat[-1] = -0.0
            blocks[shape] = M
        G = FourierCoefficients(n, F.family, blocks, F.ops)
        got, want = blocks_to_json(G), reference_block_json(G)
        assert repr(got) == repr(want)  # -0.0 too
        assert orjson.dumps(got) == orjson.dumps(want)
        assert all(type(e["re"]) is float and type(e["im"]) is float
                   for block in got["blocks"] for row in block["rows"] for e in row)
        assert any(len(block["rows"]) == 1 for block in got["blocks"])


def test_integer_coefficients_read_as_their_float_twins():
    # JSON integers take the bulk read too: here every im is an int and re
    # mixes ints and floats; an int too large for a float is refused with
    # the ParseError of the one-term check
    f = rand_elem(4, SEMIGROUP, 44)
    rng = np.random.default_rng(44)
    ints = [{"elem": t["elem"], "re": int(a) + 0.5 * (i % 2), "im": int(b)}
            for i, (t, a, b) in enumerate(zip(to_json_dict(f)["terms"],
                                              *rng.integers(-9, 10, (2, size(4)))))]
    twin = [{**t, "re": float(t["re"]), "im": float(t["im"])} for t in ints]
    got = from_json_dict({"n": 4, "basis": SEMIGROUP, "terms": ints})
    want = from_json_dict({"n": 4, "basis": SEMIGROUP, "terms": twin})
    assert np.array_equal(got.values, want.values)
    huge = [*ints[:3], {**ints[3], "re": 2**1024}, *ints[4:]]
    with pytest.raises(ParseError) as refused:
        from_json_dict({"n": 4, "basis": SEMIGROUP, "terms": huge})
    with pytest.raises(ParseError) as alone:
        _term(4, huge[3])
    assert str(refused.value) == str(alone.value) and "too large" in str(refused.value)


def _per_entry(rows):
    return np.array([[json_complex(e) for e in row] for row in rows], dtype=complex)


def _outcome(fn, rows):
    try:
        out = fn(rows)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return out.shape, out.tolist()


GOOD = {"re": 0.5, "im": -1.25}


@pytest.mark.parametrize("rows", [
    [[GOOD, GOOD], [GOOD, {"re": 3}]],  # an int entry
    [[{}]],  # re and im left out
    [[GOOD, {"re": "1.5", "im": 0.0}], [{"re": True}, GOOD]],
    [[GOOD, {"re": 1.0, "im": float("nan")}]],
    [[{"re": 10**400}]],  # an int too large for a float
    [[{"re": None}]],
    [[GOOD], [GOOD, GOOD]],  # ragged
    [[GOOD, "x"]],  # an entry that is no object
    [[GOOD, 5]],
    [],
    [[]],
    [[], []],
    5,
    "ab",
    {"a": [GOOD]},
    [GOOD],  # a row that is no list
    [(GOOD,)],
])
def test_bulk_block_reader_matches_the_per_entry_reader(rows):
    assert _outcome(_json_block, rows) == _outcome(_per_entry, rows)


def test_bulk_block_reader_reads_a_block_bit_for_bit():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M[0, 0] = -0.0
    rows = [[{"re": z.real, "im": z.imag} for z in row] for row in M.tolist()]
    got = _json_block(rows)
    assert got.shape == (6, 6) and got.tobytes() == M.tobytes()


@pytest.mark.parametrize("n", range(5))
def test_halverson_rows_match_per_label_evaluation(n):
    elems = enumerate_rn(n)
    expected = np.array([
        np.concatenate([halverson_rep(shape, n).evaluate(x).ravel() for shape in _columns(n)])
        for x in elems
    ]).reshape(len(elems), size(n))
    assert np.array_equal(_image_rows(HALVERSON, n, elems), expected)
