"""The batched flat-form parser (``read_flat``, ``flat_positions``)
against the oracles in ``conftest.py``: the grammar regex, and the
term-by-term parser; the one-term reader ``flat_image`` against the batch;
the ASCII-digit rule; and the parse's memory."""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    flat_images,
    image_rows,
    rand_elem,
    reference_flat_image,
    reference_from_json_dict,
    reference_read_flat,
)
from rookfft.algebra import GROUPOID, SEMIGROUP, from_dense, from_json_dict, to_json_dict
from rookfft.core import (
    _SLICE,
    MAX_N,
    DimensionMismatch,
    ParseError,
    PartialPermutation,
    flat_image,
    parse_cycle_link,
    read_flat,
    size,
)
from rookfft.indexing import _TERMS, flat_positions
from rookfft.transforms import _json_block

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
    at, refused = flat_positions(n, read_flat(texts))
    assert refused.tolist() == [isinstance(w, ValueError) for w in want]
    first = next((w for w in want if isinstance(w, ValueError)), None)
    if first is None:
        got = flat_images(n, texts)
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(len(want), n))
        assert np.array_equal(image_rows(n, at), got)
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
        at, refused = flat_positions(n, read_flat(texts))
        assert refused.tolist() == [isinstance(w, ValueError) for w in want]
        for i in np.flatnonzero(refused)[::40]:  # the message, on a sample of the refused
            with pytest.raises(ParseError) as got:
                PartialPermutation.from_flat(n, texts[i])
            assert str(got.value) == str(want[i])
        read = [w for w in want if not isinstance(w, ValueError)]
        read = np.array(read, dtype=np.int64).reshape(len(read), n)
        assert np.array_equal(image_rows(n, at[~refused]), read)


def _assert_reads_as_the_regex(texts):
    got = read_flat(texts)
    grammatical, pairs, points = reference_read_flat(texts)
    assert got.grammatical.dtype == bool and got.grammatical.tolist() == grammatical
    assert got.pairs.dtype == np.int32 and got.pairs.tolist() == pairs
    assert got.points.dtype == np.uint8 and got.points.tolist() == points


_LONG = ["9" * 5000 + "->1", "0" * 4999 + "1->2", "0" * 4299 + "2->1", "1->" + "0" * 4300 + "3",
         "1->" + "0" * 4299 + "3", "12->" + "0" * 5000, "1 ->" + "7" * 5000 + " ;2->2"]
_CORPORA = {
    "blank next to refused": ["", " ", "x", "\t\n", "1->1;", "", ";", " ", "1->1", "\u3000", "->", ""],
    "nul or bar inside": ["1->1\x00", "\x001->1", "1\x00->1", "1->1|2->2", "|", "\x00", "1->2",
                          "\x00\x00", "2->1", "1->2\x00;2->1", "|1->1|"],
    "not strings": [None, "1->1", 5, [], "", b"1->1", 1.5, "2->2", {"elem": "1->1"}, " "],
    "non-ascii digits": ["٣->1", "1->１", "²->1", "1->1", "߁->2", "1->٣;2->2", "3->3"],
    "unicode whitespace": ["\x851->1\x85", "1\u2028->\u20282", "1->1;\x85 2->2", "\u2029", "\x85",
                           "1\x85 2->1", "1-\u2028>2", "1->2\u2028;\u20282->1", "\u2028\x85"],
    "surrogates and other text": ["\ud8001->1", "1->1\udfff", "é", "1->1", "1→1", "1\u200b->1"],
    "5000-digit points": _LONG,
    "no terms": [],
    "one term": ["3->1;1->3"],
    "two terms": ["1 -> 2", "2->0"],
    "whitespace inside a point or an arrow": ["1 2->3", "1- >2", "1->2 3", "1-\t>2", "12 ->3",
                                              "1 ->2 ; 3-> 4", " 1->2 ", "1->2;;3->4"],
}


@pytest.mark.parametrize("name", list(_CORPORA))
def test_grammar_pass_reads_as_the_regex(name):
    _assert_reads_as_the_regex(_CORPORA[name])


def test_grammar_pass_reads_as_the_regex_across_slices():
    """Batches that cross the pass's slice boundaries, with refused, blank,
    long, non-ASCII and non-str terms on both sides of each boundary."""
    rng = random.Random(14)
    odd = [t for corpus in _CORPORA.values() for t in corpus]
    for count in (_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 3):
        texts = [f"{rng.randint(1, 9)}->{rng.randint(0, 12)};{rng.randint(1, 9)}->{rng.randint(1, 9)}"
                 for _ in range(count)]
        for at in (0, _SLICE - 2, _SLICE - 1, _SLICE, count - 1):
            texts[min(at, count - 1)] = rng.choice(odd)
        _assert_reads_as_the_regex(texts)


def test_grammar_pass_reads_every_short_token_string_as_the_regex():
    """Every string of up to five pieces, from the grammar's tokens, whole
    pairs and a few near misses, in one batch: each (prev, token, next)
    triple the pass can meet is in it, in otherwise grammatical terms too."""
    pieces = ["1", "23", "->", "-", ">", ";", " ", "x", "1->2", ";3->4"]
    texts = ["".join(p) for k in range(6) for p in itertools.product(pieces, repeat=k)]
    _assert_reads_as_the_regex(texts)


def test_grammar_pass_reads_seeded_strings_as_the_regex():
    """Seeded strings over the grammar's bytes and the ones that must not
    pass for them: NUL, "|", Unicode whitespace, non-ASCII digits, a lone
    surrogate."""
    rng = random.Random(7)
    alphabet = [*"0123456789 ->;\t", "\x00", "|", "\x85", "\u2028", "\xa0", "\x1c", "٣", "\ud800",
                "é", "00", "->", " -> ", ";"]
    for _ in range(25):
        texts = ["".join(rng.choices(alphabet, k=rng.randint(0, 10))) for _ in range(rng.randint(0, 600))]
        texts += [f" {rng.randint(0, 12)} -> {rng.randint(0, 9)} ;{rng.randint(0, 9)}->0{rng.randint(0, 9)}"
                  for _ in range(rng.randint(0, 60))]
        rng.shuffle(texts)
        _assert_reads_as_the_regex(texts)


@given(texts=st.lists(_flat_term, max_size=6))
@settings(max_examples=150, deadline=None)
def test_grammar_pass_reads_drawn_terms_as_the_regex(texts):
    _assert_reads_as_the_regex(texts)


def _one_term(reader, n, text):
    try:
        return tuple(reader(n, text))
    except ValueError as exc:  # ParseError, DimensionMismatch, or int()'s refusal of a long point
        return type(exc), str(exc)


def _batch_of_one(n, text):
    return flat_images(n, [text])[0].tolist()


def _from_flat(n, text):
    return PartialPermutation.from_flat(n, text).image


def test_one_term_reader_agrees_with_the_batch():
    """``flat_image`` (which ``from_flat`` reads through) gives each term
    the row, or the error type and message, of ``flat_images(n, [t])``."""
    rng = random.Random(3)
    alphabet = [*"0123456789 ->;", "\x85", "٣", "00", "->", ";", "10"]
    texts = ["".join(rng.choices(alphabet, k=rng.randint(0, 9))) for _ in range(1500)]
    texts += [";".join(f"{rng.randint(0, 6)}->{rng.randint(0, 6)}" for _ in range(rng.randint(0, 4)))
              for _ in range(1500)]
    texts += _CORPORA["5000-digit points"] + _CORPORA["unicode whitespace"]
    for n in (0, 3, 5):
        for text in texts:
            want = _one_term(_batch_of_one, n, text)
            assert _one_term(flat_image, n, text) == want
            assert _one_term(_from_flat, n, text) == want
    for n in (-1, MAX_N + 1):  # from_flat checks n as a batch does; flat_image leaves n to its caller
        for text in ("", "1->1"):
            want = _one_term(_batch_of_one, n, text)
            assert _one_term(_from_flat, n, text) == want
            assert want[0] is DimensionMismatch


@given(n=st.integers(0, 5), text=_flat_term)
@settings(max_examples=200, deadline=None)
def test_one_term_reader_agrees_with_the_batch_on_drawn_terms(n, text):
    want = _one_term(_batch_of_one, n, text)
    assert _one_term(flat_image, n, text) == want


def test_full_support_r7_parse_peak_stays_at_the_sliced_pass():
    """The tracemalloc peak of ``from_json_dict`` on a full-support R_7
    element stays within 10% of the 18.7 MB it read before the grammar pass
    (``BENCH_13.json`` ``parse_peak_mb``): a per-byte int64 array, or a
    slice that grows with the input, would pass it."""
    rng = np.random.default_rng(107)
    values = rng.uniform(-1, 1, size(7)) + 1j * rng.uniform(-1, 1, size(7))
    data = to_json_dict(from_dense(7, GROUPOID, values))
    tracemalloc.start()
    try:
        f = from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(f.values, from_dense(7, GROUPOID, values).values)
    assert peak <= 1.1 * 18.7 * 2**20, f"peak {peak / 2**20:.2f} MB"


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

    def _assert_refused_as_the_reference(self, terms):
        data = {"n": 3, "basis": SEMIGROUP, "terms": terms}
        with pytest.raises(ValueError) as want:
            reference_from_json_dict(data)
        with pytest.raises(ValueError) as got:
            from_json_dict(data)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [
        {"elem": "1->3;2->3", "re": 1.0},
        {"elem": "1->1", "re": "1.5"},
        {"elem": "1->1", "im": float("nan")},
        {"re": 1.0},
    ])
    @pytest.mark.parametrize("later", ["1->1", None, [], 7])
    def test_refused_term_before_a_non_object_term_is_reported(self, bad, later):
        """A term that is no object makes the fields come out of the
        objects again; the refused dict term before it is still the one
        reported."""
        self._assert_refused_as_the_reference([*self.good, bad, *self.good, later])

    @pytest.mark.parametrize("terms", [
        [{"elem": "1->2;2->1"}],
        [{"elem": "1->2;2->1", "re": 0.5, "im": -1.0}, {"elem": "3->3", "re": 2.0}],
        [{"elem": "1->2;2->1", "re": 0.5, "im": -1.0}, {"elem": "3->3", "im": 2.0}],
        [{"elem": "3->3", "im": 2.0}, {"elem": ""}, {"elem": "1->1", "re": -1.5, "im": 0.25}],
    ])
    def test_terms_without_re_or_im_read_as_zero(self, terms):
        data = {"n": 3, "basis": SEMIGROUP, "terms": terms}
        assert np.array_equal(from_json_dict(data).values,
                              from_dense(3, SEMIGROUP, reference_from_json_dict(data)).values)

    def test_entries_without_re_or_im_read_as_zero_in_the_block_reader(self):
        rows = [[{"re": 0.5, "im": -1.0}, {"re": 2.0}], [{"im": 3.0}, {}]]
        assert _json_block(rows).tolist() == [[0.5 - 1j, 2 + 0j], [3j, 0j]]

    def test_extra_keys_are_ignored(self):
        extra = {"note": "x", "rank": 2, "elem2": "1->1", "re ": "no number"}
        terms = [{"elem": "1->2;2->1", "re": 0.5, "im": -1.0}, {"elem": "3->3", "re": 2.0},
                 {"elem": "", "im": 1.0}]
        data = {"n": 3, "basis": SEMIGROUP, "terms": terms}
        loud = {**data, "terms": [{**extra, **t} for t in terms]}
        assert np.array_equal(from_json_dict(loud).values, from_json_dict(data).values)
        rows = [[{"re": 0.5, "im": -1.0}, {"re": 2.0}], [{"im": 3.0}, {}]]
        loud_rows = [[{**extra, **e} for e in row] for row in rows]
        assert _json_block(loud_rows).tobytes() == _json_block(rows).tobytes()


def test_positions_across_term_slices():
    """``flat_positions`` runs _TERMS terms at a time: refused, blank and
    zero-map terms on both sides of each boundary keep their mask and the
    others their rows."""
    rng = random.Random(24)
    n = 4
    count = 2 * _TERMS + 3
    points = range(1, n + 1)
    texts = [";".join(f"{a}->{b}" for a, b in zip(rng.sample(points, k), rng.sample(points, k)))
             for k in (rng.randint(0, n) for _ in range(count))]
    odd = ["", " ", "1->1;1->2", "1->5", "x", "2->1;3->1", None, "1->1;2->2;3->3;4->4", "01->04"]
    for at in (0, _TERMS - 1, _TERMS, _TERMS + 1, 2 * _TERMS - 1, 2 * _TERMS, count - 1):
        texts[at] = rng.choice(odd)
    want = [_reference_or_error(n, t) if isinstance(t, str) else ParseError() for t in texts]
    at, refused = flat_positions(n, read_flat(texts))
    assert refused.tolist() == [isinstance(w, ValueError) for w in want]
    read = [w for w in want if not isinstance(w, ValueError)]
    assert np.array_equal(image_rows(n, at[~refused]), np.array(read, dtype=np.int64).reshape(len(read), n))
