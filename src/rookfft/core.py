"""Elements of the rook monoid R_n and their combinatorics.

R_n is the set of all injective partial maps on {1..n} under partial-function
composition (equivalently, 0/1 matrices with at most one 1 per row and
column).  This module provides the elements themselves, composition and
semigroup inverses, the natural partial order with its Möbius function,
enumeration and counting formulas, Munn's cycle-link notation, the flat
form "a->b;c->d" (read in batches: ``read_flat``, then
``indexing.flat_positions``), and the canonical factorization of an
element through the symmetric group on its rank.

Elements are immutable and hashable so they can key sparse coefficient maps.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from itertools import combinations, repeat
from math import comb, factorial, isfinite, nan
from operator import countOf, itemgetter
from typing import Iterable, Iterator, NamedTuple, NoReturn

import numpy as np


MAX_N = 8  # largest ambient size accepted from outside the program


class DimensionMismatch(ValueError):
    """Operands belong to rook monoids of different ambient size, or an
    ambient size is refused."""


class ParseError(ValueError):
    """Malformed textual form of an element."""


class PartialPermutation:
    """An element of R_n: an injective partial map on {1..n}.

    The map is stored as a length-n image tuple with 0 marking points
    outside the domain, giving O(1) application and O(n) composition.
    """

    __slots__ = ("n", "image", "_hash")

    def __init__(self, n: int, image: Iterable[int | None]):
        img = tuple(0 if v is None else int(v) for v in image)
        if n < 0:
            raise ValueError("ambient size must be nonnegative")
        if len(img) != n:
            raise ValueError(f"image must have length n={n}, got {len(img)}")
        _check_image(n, img)
        self.n = n
        self.image = img
        self._hash = hash((n, img))

    @classmethod
    def _unchecked(cls, n: int, images: Iterable[tuple[int, ...]]) -> list["PartialPermutation"]:
        """Elements from image tuples the caller guarantees are valid
        (generated, never parsed), without the checks of __init__."""
        out = []
        for image in images:
            s = object.__new__(cls)
            s.n, s.image, s._hash = n, image, hash((n, image))
            out.append(s)
        return out

    @classmethod
    def identity(cls, n: int) -> "PartialPermutation":
        return cls(n, range(1, n + 1))

    @classmethod
    def zero(cls, n: int) -> "PartialPermutation":
        """The empty map (the zero of the monoid)."""
        return cls(n, (0,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PartialPermutation":
        return cls(n, _pairs_image(n, pairs))

    def __call__(self, i: int) -> int | None:
        v = self.image[i - 1]
        return v if v != 0 else None

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i + 1, v) for i, v in enumerate(self.image) if v != 0)

    def dom(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.image) if v != 0)

    def ran(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.image if v != 0))

    @property
    def rank(self) -> int:
        return sum(1 for v in self.image if v != 0)

    def inverse(self) -> "PartialPermutation":
        """The unique y with xyx = x and yxy = y; dom(y) = ran(x)."""
        img = [0] * self.n
        for i, v in enumerate(self.image):
            if v != 0:
                img[v - 1] = i + 1
        return PartialPermutation(self.n, img)

    def restrict(self, points: Iterable[int]) -> "PartialPermutation":
        """Restriction of the map to dom ∩ points."""
        keep = set(points)
        img = [v if (i + 1) in keep else 0 for i, v in enumerate(self.image)]
        return PartialPermutation(self.n, img)

    # -- text forms ------------------------------------------------------------

    def to_flat(self) -> str:
        """Flat mapping form "a->b;c->d" (ascending domain, "" = zero map)."""
        return ";".join(f"{a}->{b}" for a, b in self.pairs())

    @classmethod
    def from_flat(cls, n: int, text: str) -> "PartialPermutation":
        """The element of one flat form, read by ``flat_image``; n is
        checked as by ``check_n``, as a batch of flat forms checks it."""
        check_n(n)
        return cls(n, flat_image(n, text))

    # -- dunder plumbing -------------------------------------------------------

    def __mul__(self, other: "PartialPermutation") -> "PartialPermutation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialPermutation)
            and self.n == other.n
            and self.image == other.image
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PartialPermutation({self.n}, {self.to_flat()!r})"


def _pairs_image(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The image list of the map a ↦ b; each domain point a is in 1..n, once,
    and each image point b in 1..n (0 would mark a as unmapped)."""
    img = [0] * n
    for a, b in pairs:
        if not 1 <= a <= n:
            raise ValueError(f"domain point {a} out of range 1..{n}")
        if not 1 <= b <= n:
            raise ValueError(f"image point {b} out of range 1..{n}")
        if img[a - 1] != 0:
            raise ValueError(f"domain point {a} mapped twice")
        img[a - 1] = b
    return img


def _check_image(n: int, img: tuple[int, ...]) -> None:
    """Refuse image values outside 1..n and repeated ones (0 is unmapped)."""
    defined = [v for v in img if v != 0]
    for v in defined:
        if not 1 <= v <= n:
            raise ValueError(f"image value {v} out of range 1..{n}")
    if len(set(defined)) != len(defined):
        raise ValueError("not injective")


def flat_image(n: int, text: str) -> tuple[int, ...]:
    """The image tuple of the flat form "a->b;c->d" on {1..n} ("" is the
    zero map), checked as by ``from_pairs``; any fault is a ParseError.
    The reader of one term: ``from_flat`` goes through it, and it words the
    refusal of the first term a batch refuses (``refuse_flat``), so that
    both read every term as the batch pass does."""
    text = text.strip()
    pairs = []
    for part in text.split(";") if text else ():
        m = _PAIR_RE.fullmatch(part)
        if m is None:
            raise ParseError(f"bad mapping {part!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    try:
        img = tuple(_pairs_image(n, pairs))
        _check_image(n, img)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return img


# Points are ASCII digits; whitespace is whatever str.strip() removes.
_PAIR_RE = re.compile(r"\s*([0-9]+)\s*->\s*([0-9]+)\s*")

# The grammar pass of ``read_flat`` sorts every byte into a class.  Once
# whitespace is dropped and each digit run is one token, a term is "" or
# "a->b(;a->b)*" exactly when each of its tokens fits its two neighbours:
# _FITS holds 1 at prev·36 + token·6 + next for the triples that fit.  A
# term end never is at fault; the tokens beside it are.  Both tables are
# for bytes.translate, which looks bytes up about three times faster than
# numpy's indexing.
_DIGIT, _DASH, _GT, _SEMI, _END, _OTHER, _SPACE = range(7)
_CLASS = bytearray([_OTHER] * 256)
_CLASS[0] = _END  # "\0" separates the terms
for _c in range(128):
    if chr(_c).isspace():
        _CLASS[_c] = _SPACE
_CLASS[48:58] = [_DIGIT] * 10
_CLASS[ord("-")], _CLASS[ord(">")], _CLASS[ord(";")] = _DASH, _GT, _SEMI
_CLASS = bytes(_CLASS)
_FITS = bytearray(256)
for _prev in range(6):
    for _next in range(6):
        _FITS[_prev * 36 + _END * 6 + _next] = 1
for _prev, _token, _next in [
    (_END, _DIGIT, _DASH), (_SEMI, _DIGIT, _DASH),  # a domain point
    (_GT, _DIGIT, _SEMI), (_GT, _DIGIT, _END),  # an image point
    (_DIGIT, _DASH, _GT), (_DASH, _GT, _DIGIT), (_DIGIT, _SEMI, _DIGIT),
]:
    _FITS[_prev * 36 + _token * 6 + _next] = 1
_FITS = bytes(_FITS)
# the arguments of bytes.translate that keep only the digits, each as its value
_POINT = (bytes(range(256)).replace(b"0123456789", bytes(range(10))),
          bytes(range(48)) + bytes(range(58, 256)))
_SLICE = 1 << 13  # terms per grammar pass, so that its per-byte arrays stay small


class FlatTerms(NamedTuple):
    """Flat-form terms read in one pass, before n is known."""

    texts: list  # the terms as given
    grammatical: np.ndarray  # (T,) bool: the term matches the flat-form grammar
    pairs: np.ndarray  # (T,) int32: pairs in each grammatical term, 0 in the others
    points: np.ndarray  # (2P,) uint8: a, b of every pair in order; 10 stands for any number above 9


def read_flat(texts: list) -> FlatTerms:
    """Check the grammar of every term and pull out the points of the
    grammatical ones, in one numpy pass over the joined text of _SLICE
    terms at a time (``_read_slice``).  Anything but a str is
    ungrammatical.  A point is a digit run, leading zeros allowed.  A run
    with a nonzero digit before its last one is above 9, whatever its
    length, and a run longer than ``int`` reads
    (``sys.get_int_max_str_digits``) is refused as ``int`` refuses it;
    both read as 10.  Each slice is placed in the output as it is read, its
    points appended to one buffer, so that the output is held once."""
    grammatical = np.empty(len(texts), dtype=bool)
    pairs = np.empty(len(texts), dtype=np.int32)
    points = bytearray()
    for i in range(0, len(texts), _SLICE):
        part = slice(i, i + _SLICE)
        grammatical[part], pairs[part], slice_points = _read_slice(texts[part])
        points.extend(slice_points)
    return FlatTerms(texts, grammatical, pairs, np.frombuffer(points, np.uint8))


def _read_slice(texts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``read_flat``'s grammatical, pairs and points of a few terms.  When
    the text holds no whitespace and every byte fits as a token, which no
    point of two digits or more does, each digit is a point and the bytes
    give the points as they are (``_POINT``); otherwise ``_tokens`` reads
    the tokens and points."""
    grammatical = np.ones(len(texts), dtype=bool)
    try:
        joined = "\0".join(["", *texts, ""])  # a term end before and after each term
    except TypeError:  # an entry that is no str: ungrammatical, read as ""
        grammatical = np.array([isinstance(t, str) for t in texts], dtype=bool)
        texts = [t if ok else "" for t, ok in zip(texts, grammatical)]
        joined = "\0".join(["", *texts, ""])
    data = joined.encode() if joined.isascii() else _one_byte_per_char(joined)
    classes = data.translate(_CLASS)
    kind = np.frombuffer(classes, np.uint8)
    ends = np.flatnonzero(kind == _END)
    if len(ends) > len(texts) + 1:  # a term holds a "\0": place the term ends by length
        kind = kind.copy()
        kind[ends] = _OTHER
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
        ends = np.cumsum(np.concatenate([[0], lengths + 1]))
        kind[ends] = _END
    points, tokens = None, kind
    if _SPACE not in classes:  # each byte a token: a point of two digits or more does not fit
        fits = _fits(tokens)
        if 0 not in fits:
            points = np.frombuffer(data.translate(*_POINT), np.uint8)
    if points is None:
        points, tokens = _tokens(np.frombuffer(data, np.uint8), kind)
        ends = np.flatnonzero(tokens == _END)
        fits = _fits(tokens)
    if 0 in fits:
        faults = np.flatnonzero(np.frombuffer(fits, np.uint8) == 0) + 1
        grammatical[np.searchsorted(ends, faults) - 1] = False
    # a grammatical term of p pairs has 5p - 1 tokens, so its ends are 5p apart ("": 1)
    pairs = np.where(grammatical, np.diff(ends) // 5, 0).astype(np.int32)
    if not grammatical.all():
        points = points[np.repeat(grammatical, np.add.reduceat(tokens == _DIGIT, ends[:-1]))]
    return grammatical, pairs, points


def _fits(tokens: np.ndarray) -> bytes:
    """1 for each token that fits its two neighbours (``_FITS``), 0 for
    each that does not; the first and last token have none."""
    return (tokens[:-2] * 36 + tokens[1:-1] * 6 + tokens[2:]).tobytes().translate(_FITS)


def _tokens(text: np.ndarray, kind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points and the token classes of a slice's bytes that hold
    whitespace or a point of more than one digit: the whitespace is
    dropped and each digit run is one token."""
    space = kind == _SPACE
    if space.any():
        after_space = np.concatenate([[False], space[:-1]])
        text, kind, after_space = (np.compress(~space, a) for a in (text, kind, after_space))
        # whitespace inside a point or inside "->" is refused: the pair would read without it
        joins = (kind[:-1] == _DIGIT) & (kind[1:] == _DIGIT)
        joins |= (kind[:-1] == _DASH) & (kind[1:] == _GT)
        kind[1:][joins & after_space[1:]] = _OTHER
    digit = kind == _DIGIT
    inner = digit[:-1] & digit[1:]  # a digit with more of its run after it
    last = digit.copy()
    last[:-1] &= ~inner
    points = np.compress(last, text) - 48
    if not inner.any():
        return points, kind
    at = np.flatnonzero(inner)
    run = np.searchsorted(np.flatnonzero(last), at)
    points[run[text[at] != 48]] = 10
    runs, inner_digits = np.unique(run, return_counts=True)
    limit = sys.get_int_max_str_digits()
    if limit:
        points[runs[inner_digits >= limit]] = 10
    return points, np.compress(np.append(~inner, True), kind)  # a digit run is one token


def _one_byte_per_char(text: str) -> bytes:
    """The text as one byte per character for ``_read_slice``: ASCII as it
    is, Unicode whitespace as a space, anything else as 0x80, a byte of no
    class the grammar admits."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    wide = np.unique(codes[codes > 127])
    out = np.minimum(codes, 128).astype(np.uint8)
    out[np.isin(codes, wide[[chr(c).isspace() for c in wide]])] = 32
    return out.tobytes()


def refuse_flat(n: int, text) -> NoReturn:
    """Raise the ParseError of a term that a batch refused."""
    flat_image(n, text)
    raise AssertionError(f"flat form {text!r} refused in a batch but not alone")


def compose(g: PartialPermutation, f: PartialPermutation) -> PartialPermutation:
    """g∘f: defined where x ∈ dom(f) and f(x) ∈ dom(g)."""
    if g.n != f.n:
        raise DimensionMismatch(f"cannot compose R_{g.n} with R_{f.n}")
    img = [0] * f.n
    for x0, v in enumerate(f.image):
        if v != 0:
            img[x0] = g.image[v - 1]
    return PartialPermutation(f.n, img)


def idempotent_on(n: int, points: Iterable[int]) -> PartialPermutation:
    """The identity map restricted to the given points."""
    pts = set(points)
    return PartialPermutation(n, (i if i in pts else 0 for i in range(1, n + 1)))


def leq(s: PartialPermutation, t: PartialPermutation) -> bool:
    """The natural partial order: s ≤ t iff s is a restriction of t.

    Equivalent to the existence of an idempotent e with s = e∘t.
    """
    if s.n != t.n:
        raise DimensionMismatch("cannot compare elements of different R_n")
    return all(v == 0 or v == t.image[i] for i, v in enumerate(s.image))


def mobius(s: PartialPermutation, t: PartialPermutation) -> int:
    """Möbius function of the natural order: (-1)^(rank difference) on s ≤ t."""
    if not leq(s, t):
        return 0
    return -1 if (t.rank - s.rank) % 2 else 1


def restrictions(s: PartialPermutation) -> Iterator[PartialPermutation]:
    """All t ≤ s, i.e. the 2^rank restrictions of s (including s itself)."""
    d = s.dom()
    for r in range(len(d) + 1):
        for sub in combinations(d, r):
            yield s.restrict(sub)


def json_int(value, what: str) -> int:
    """A JSON integer field: refuses floats, strings and booleans (bool is
    an int subclass in Python) instead of truncating or coercing them."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_complex(entry: dict) -> complex:
    """The finite number {"re": …, "im": …} (0 where left out), never from text or bool."""
    real, imag = entry.get("re", 0.0), entry.get("im", 0.0)
    if type(real) is bool or type(imag) is bool or not (
        isinstance(real, (int, float)) and isinstance(imag, (int, float))
    ):
        raise ParseError(f"re and im must be JSON numbers, got {real!r} and {imag!r}")
    if not (isfinite(real) and isfinite(imag)):
        raise ParseError(f"non-finite coefficient {real!r} + {imag!r}i")
    return complex(real, imag)


def json_fields(objects: list, fields: dict) -> list[list]:
    """The values of each field over a list of JSON objects (dicts, as the
    JSON reader gives them), the field's default in ``fields`` where an
    object leaves it out, in one C-level pass per field (``itemgetter``, or
    ``dict.get`` once a field is left out).  Raises TypeError when an entry
    is no object."""
    try:
        return [list(map(itemgetter(key), objects)) for key in fields]
    except KeyError:
        return [list(map(dict.get, objects, repeat(key), repeat(default))) for key, default in fields.items()]


def json_numbers(values: list) -> tuple[np.ndarray, np.ndarray]:
    """The JSON numbers as float64, and a mask of the entries refused: no
    JSON number (a string, a bool, null, …), non-finite, or an integer too
    large for a float.  Refused entries read as nan.  It accepts exactly
    the values ``json_complex`` accepts, a whole list at a time: a list of
    exact ``int`` and ``float`` entries alone is read in one pass, and any
    other list, or one with an integer too large for a float, entry by
    entry."""
    out = None
    floats = countOf(map(type, values), float)
    if floats == len(values) or floats + countOf(map(type, values), int) == len(values):
        try:
            out = np.fromiter(values, float, len(values))
        except OverflowError:
            pass
    if out is None:
        out = np.array([_json_float(v) for v in values], dtype=float)
    return out, ~np.isfinite(out)


def _json_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return nan
    try:
        return float(value)
    except OverflowError:
        return nan


def check_n(n: int) -> None:
    """Refuse n outside 0..MAX_N, before anything n-long or |R_n|-long is built."""
    if not 0 <= n <= MAX_N:
        why = "n is negative" if n < 0 else "|R_n| is too large"
        raise DimensionMismatch(f"n = {n} refused: {why} (limit: 0 <= n <= {MAX_N})")


@cache
def size(n: int) -> int:
    """|R_n| = sum_k C(n,k)^2 k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def size_recursive(n: int) -> int:
    """|R_n| via |R_n| = 2n|R_{n-1}| - (n-1)^2 |R_{n-2}|, n >= 3."""
    table = [1, 2, 7]
    if n < len(table):
        return table[n]
    for m in range(3, n + 1):
        table.append(2 * m * table[m - 1] - (m - 1) ** 2 * table[m - 2])
    return table[n]


@cache
def enumerate_rn(n: int) -> tuple[PartialPermutation, ...]:
    """All elements of R_n, sorted by image tuple (the canonical order):
    every layout row decoded from its image code (``indexing.elements_at``)."""
    from .indexing import canonical_order, elements_at  # indexing imports this module

    return tuple(elements_at(n, canonical_order(n, np.arange(size(n)))))


# ---------------------------------------------------------------------------
# k-subsets in colexicographic order (so {1..k} always comes first)
# ---------------------------------------------------------------------------


@cache
def ksubsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of {1..n} in colex order; stable as n grows."""
    subs = sorted(combinations(range(1, n + 1), k), key=lambda t: tuple(reversed(t)))
    return tuple(subs)


def ksubset_index(subset: tuple[int, ...]) -> int:
    """Colex rank of a strictly increasing subset (independent of n)."""
    return sum(comb(a - 1, i + 1) for i, a in enumerate(subset))


def order_preserving(n: int, a: Iterable[int], b: Iterable[int]) -> PartialPermutation:
    """p_(A->B): the unique order preserving bijection from A to B."""
    at, bt = tuple(sorted(a)), tuple(sorted(b))
    if len(at) != len(bt):
        raise ValueError(f"|A|={len(at)} and |B|={len(bt)} differ")
    return PartialPermutation.from_pairs(n, zip(at, bt))


class CanonicalFactorization(NamedTuple):
    """x = p_({1..k}->ran) ∘ y ∘ p_(dom->{1..k}) with y a full permutation of {1..k}."""

    ran: tuple[int, ...]
    y: PartialPermutation
    dom: tuple[int, ...]


def factorize(s: PartialPermutation) -> CanonicalFactorization:
    """Factor s through the symmetric group on its rank."""
    d, r = s.dom(), s.ran()
    k = len(d)
    pos_in_ran = {v: i + 1 for i, v in enumerate(r)}
    y = PartialPermutation(k, (pos_in_ran[s.image[a - 1]] for a in d))
    return CanonicalFactorization(r, y, d)


# ---------------------------------------------------------------------------
# Cycle-link notation (Munn)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(([^()\[\]]*)\)|\[([^()\[\]]*)\]|\s+")


def parse_cycle_link(text: str, n: int) -> PartialPermutation:
    """Parse cycle-link notation: cycles "(a,b,...)" and links "[a,b,...]".

    A cycle (a1,...,ak) maps each ai to its successor and ak back to a1; a
    link [b1,...,bk] maps each bi to its successor and bk to nothing.
    Symbols may appear at most once; unmentioned symbols are unmapped.
    """
    text = text.strip()
    if not text:
        if n == 0:
            return PartialPermutation.zero(0)
        raise ParseError("empty cycle-link string")
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character at position {pos}: {text[pos]!r}")
        pos = m.end()
        body = m.group(1) if m.group(1) is not None else m.group(2)
        if body is None:
            continue
        parts = body.split(",")
        try:
            if not all(p.strip().isascii() for p in parts):  # int() reads "٣" as 3
                raise ValueError
            syms = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad symbol list {body!r}") from None
        if not syms:
            raise ParseError("empty cycle or link")
        for a in syms:
            if not 1 <= a <= n:
                raise ParseError(f"symbol {a} out of range 1..{n}")
            if a in seen:
                raise ParseError(f"symbol {a} repeated")
            seen.add(a)
        for a, b in zip(syms, syms[1:]):
            pairs.append((a, b))
        if m.group(1) is not None:
            pairs.append((syms[-1], syms[0]))
    try:
        return PartialPermutation.from_pairs(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def print_cycle_link(s: PartialPermutation) -> str:
    """Canonical cycle-link form.

    Cycles (rotated to start at their minimal element) come first, then
    links; each group is sorted by minimal element, and every point of
    {1..n} appears (fixed points as "(p)", isolated points as "[p]").
    """
    n = s.n
    in_ran = set(s.ran())
    visited = [False] * (n + 1)
    links: list[list[int]] = []
    for start in range(1, n + 1):
        if start in in_ran:
            continue
        chain = [start]
        visited[start] = True
        while s(chain[-1]) is not None:
            chain.append(s(chain[-1]))
            visited[chain[-1]] = True
        links.append(chain)
    cycles: list[list[int]] = []
    for start in range(1, n + 1):
        if visited[start]:
            continue
        cyc = [start]
        visited[start] = True
        nxt = s(start)
        while nxt != start:
            cyc.append(nxt)
            visited[nxt] = True
            nxt = s(nxt)
        cycles.append(cyc)
    cycles.sort(key=min)
    links.sort(key=min)
    out = ["(" + ",".join(map(str, c)) + ")" for c in cycles]
    out += ["[" + ",".join(map(str, c)) + "]" for c in links]
    return "".join(out)


# ---------------------------------------------------------------------------
# Factorization into generators {t_2..t_n, [m]}
# ---------------------------------------------------------------------------

GeneratorToken = tuple[str, int]  # ("t", j) for (j-1,j); ("link", m) for (1)..(m-1)[m]


def generator_word(s: PartialPermutation) -> list[GeneratorToken]:
    """Express s as a product of adjacent transpositions and rank-dropping links.

    Working down the chain R_n > R_{n-1} > ... the element is peeled one
    level at a time: if m ∈ dom(s) a left factor t_{i+1}..t_m moves m into
    place; if m ∈ ran(s) only, a right factor t_m..t_{i+1} does; otherwise
    the link [m] = (1)(2)..(m-1)[m] removes m from the domain.  The product
    of the returned tokens, in order, equals s.
    """
    img = list(s.image)  # the element still to peel, 0 outside its domain
    word: list[GeneratorToken] = []
    suffix: list[GeneratorToken] = []
    for m in range(s.n, 0, -1):
        v = img[m - 1]
        if v:  # peel T_v⁻¹ on the left: v → m, j → j-1 for v < j ≤ m
            word.extend(("t", j) for j in range(v + 1, m + 1))
            img = [m if x == v else x - (v < x <= m) for x in img]
        elif m in img:  # peel T_i on the right, where i maps to m
            i = img.index(m) + 1
            suffix[:0] = (("t", j) for j in range(m, i, -1))
            img.insert(m - 1, img.pop(i - 1))
        else:  # fix m, outside domain and range
            word.append(("link", m))
            img[m - 1] = m
    return word + suffix
