"""The batched flat-form parser (``read_flat``, ``flat_rows``, ``flat_images``)
against the term-by-term oracle in ``conftest.py``, and the ASCII-digit rule."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_elem, reference_flat_image, reference_from_json_dict
from rookfft.algebra import SEMIGROUP, from_dense, from_json_dict, to_json_dict
from rookfft.core import (
    ParseError,
    PartialPermutation,
    flat_images,
    flat_rows,
    parse_cycle_link,
    read_flat,
)

# Unicode whitespace that str.strip() and the regex \s both remove
_space = st.sampled_from(["", "", " ", "\t", "\n", "\x1c", "\u00a0", "\u2003", "\u3000"])
_point = st.one_of(
    st.integers(0, 5).map(str),
    st.tuples(st.integers(1, 3), st.integers(0, 9)).map(lambda t: "0" * t[0] + str(t[1])),
    st.sampled_from(["", "10", "12", "0010", "9" * 5000, "0" * 4999 + "1", "0" * 4299 + "2"]),
)
_arrow = st.sampled_from(["->", "->", "->", "->", "-", ">", "=>", "->->"])
_pair = st.tuples(_space, _point, _space, _arrow, _space, _point, _space).map("".join)
_flat_term = st.one_of(
    st.lists(_pair, max_size=4).map(";".join),
    st.tuples(st.lists(_pair, min_size=1, max_size=3).map(";".join), _space).map(";".join),
    st.text(alphabet="0123456789->; x", max_size=12),
)


def _reference_or_error(n, text):
    try:
        return reference_flat_image(n, text)
    except ValueError as exc:  # ParseError, or int()'s refusal of a very long point
        return exc


@given(n=st.integers(0, 4), texts=st.lists(_flat_term, max_size=6))
@settings(max_examples=150, deadline=None)
def test_batch_agrees_with_the_term_by_term_parser(n, texts):
    """The same rows for a batch the old parser takes; otherwise the same
    error, of the same type, for the same first refused term."""
    want = [_reference_or_error(n, t) for t in texts]
    rows, refused = flat_rows(n, read_flat(texts))
    assert refused.tolist() == [isinstance(w, ValueError) for w in want]
    first = next((w for w in want if isinstance(w, ValueError)), None)
    if first is None:
        got = flat_images(n, texts)
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(len(want), n))
        assert np.array_equal(rows, got)
    else:
        with pytest.raises(ValueError) as got:
            flat_images(n, texts)
        assert type(got.value) is type(first) and str(got.value) == str(first)


def test_twenty_thousand_ascii_strings_refused_as_before():
    """Seeded random ASCII strings over the flat-form alphabet: the batch
    refuses exactly the ones the term-by-term parser refused, with the
    same message (checked on every 40th), and reads the others to the same
    rows."""
    rng = random.Random(10)
    alphabet = "0123456789 ->;\t"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9))) for _ in range(20_000)]
    texts += [f"{rng.randint(0, 4)}->{rng.randint(0, 4)}" for _ in range(2_000)]
    for n in (0, 3):
        want = [_reference_or_error(n, t) for t in texts]
        rows, refused = flat_rows(n, read_flat(texts))
        assert refused.tolist() == [isinstance(w, ValueError) for w in want]
        for i in np.flatnonzero(refused)[::40]:  # the message, on a sample of the refused
            with pytest.raises(ParseError) as got:
                PartialPermutation.from_flat(n, texts[i])
            assert str(got.value) == str(want[i])
        read = [w for w in want if not isinstance(w, ValueError)]
        assert np.array_equal(rows[~refused], np.array(read, dtype=np.int64).reshape(len(read), n))


def test_full_support_n6_element_json_loads_as_the_term_by_term_path():
    f = rand_elem(6, SEMIGROUP, 10)
    data = json.loads(json.dumps(to_json_dict(f)))
    got = from_json_dict(data).values
    assert np.array_equal(got, from_dense(6, SEMIGROUP, reference_from_json_dict(data)).values)
    assert np.array_equal(got, f.values)


class TestNonAsciiDigits:
    """Points are ASCII digits: "٣", "１" and "²" are no points, in any text form."""

    @pytest.mark.parametrize("text", ["٣->１", "٣->1", "1->１", "²->1"])
    def test_from_flat_refuses(self, text):
        with pytest.raises(ParseError, match="bad mapping"):
            PartialPermutation.from_flat(3, text)

    @pytest.mark.parametrize("text", ["(٣,1)", "[1,٣]", "(²)", "(1, ３)"])
    def test_cycle_link_refuses(self, text):
        with pytest.raises(ParseError, match="bad symbol list"):
            parse_cycle_link(text, 3)

    def test_element_json_refuses(self):
        data = {"n": 3, "basis": SEMIGROUP, "terms": [{"elem": "٣->1", "re": 1.0}]}
        with pytest.raises(ParseError, match="bad mapping"):
            from_json_dict(data)


class TestElementJsonErrors:
    """The first refused term, in file order, gets the message the
    term-by-term parser gave it, whatever refuses it."""

    good = [{"elem": "1->2;2->1", "re": 0.5, "im": -1.0}] * 4

    @pytest.mark.parametrize("bad", [
        {"elem": "1->3;2->3", "re": 1.0},  # not injective
        {"elem": "1->9", "re": 1.0},
        {"elem": "1->1;", "re": 1.0},
        {"elem": "9" * 5000 + "->1", "re": 1.0},
        {"elem": 12, "re": 1.0},
        {"re": 1.0},
        {"elem": "1->1", "re": "1.5"},
        {"elem": "1->1", "im": True},
        {"elem": "1->1", "re": float("nan")},
        {"elem": "1->1", "im": float("-inf")},
        {"elem": "1->1", "re": 10**400},
        {"elem": "1->1", "re": None},
        "1->1",
        [],
        None,
    ])
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_first_refused_term_is_reported(self, bad, at):
        other = {"elem": "2->2;2->1", "re": 1.0}  # refused too, but later
        terms = [bad, *self.good, other] if at == "first" else [*self.good, bad]
        data = {"n": 3, "basis": SEMIGROUP, "terms": terms}
        with pytest.raises(ValueError) as want:
            reference_from_json_dict(data)
        with pytest.raises(ValueError) as got:
            from_json_dict(data)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
