"""Elements of the semigroup algebra CR_n in its two natural bases.

A function on R_n can sit on the semigroup basis {s} or on the groupoid
basis {⌊s⌋}, where ⌊s⌋ = Σ_{t≤s} μ(t,s)·t.  The two carry different
multiplications (ordinary convolution vs. domain/range-aligned
composition), different inner products, and are exchanged by the zeta and
Möbius transforms of the natural partial order.  The basis tag is data:
mixing bases is an error, never a silent coercion.

An element stores one read-only complex vector of length |R_n| in the
rank-major cell layout of ``indexing``, each rank one slice.  The terms as
``PartialPermutation`` keys (``coeffs``, ``items()``) are decoded from the
nonzero rows on demand, in canonical order (``canonical_order``).

The element JSON parser goes through the term dicts once per field:
``elem``, ``re`` and ``im`` each come out in one C-level pass
(``core.json_fields``).  The flat forms are then read as one batch
(``core.read_flat``: one numpy pass over the joined text checks the
grammar and pulls out the points, ASCII digits only), and
``indexing.flat_positions`` computes each term's image code straight from
its points, so no image row is built.  ``re`` and ``im`` are checked as
whole lists, and the coefficients placed with one ``np.add.at``.  The
checks of one term only word the error of the first term refused.

Both convolutions run through the convolution theorem (``stein_fft``, a
product per block, ``fourier_invert``), so they cost the transforms' time
whatever the support: on a 2-CPU Xeon, 0.27–0.30 s (groupoid) and
0.43–0.49 s (semigroup) warm for two deltas at n=8 (``BENCH_29.json``),
against 0.05 s for a loop over pairs of terms.  Terms of modulus ≤ DROP_EPS·‖f‖₁·‖g‖₁, the
rounding floor of the direct sum, are zeroed.
"""

from __future__ import annotations

import random
from itertools import pairwise
from typing import Iterator, Mapping

import numpy as np

from .core import (
    DimensionMismatch,
    ParseError,
    PartialPermutation,
    check_n,
    flat_image,
    json_complex,
    json_fields,
    json_int,
    json_numbers,
    read_flat,
    size,
)
from .counting import OpCounter
from .indexing import (canonical_order, element_index, elements_at, flat_forms, flat_positions,
                       rank_starts, zeta_steps)

SEMIGROUP = "semigroup"
GROUPOID = "groupoid"
BASES = (SEMIGROUP, GROUPOID)

DROP_EPS = 1e-14
STEP_SLICE = 1 << 18  # sources per scratch copy in a zeta step: 4 MB of complex


class BasisMismatch(ValueError):
    """Operation applied to elements on the wrong basis."""


class AlgebraElement:
    """A function on R_n tagged with its basis: ``values[i]`` is the
    coefficient of the element in layout row i (``indexing``)."""

    __slots__ = ("n", "basis", "values")

    def __init__(self, n: int, basis: str, coeffs: Mapping[PartialPermutation, complex]):
        images = [s.image for s in coeffs]
        f = from_dense(n, basis, terms_vector(n, images, [complex(c) for c in coeffs.values()]))
        self.n, self.basis, self.values = f.n, f.basis, f.values

    @classmethod
    def delta(cls, n: int, s: PartialPermutation, basis: str = SEMIGROUP) -> "AlgebraElement":
        return cls(n, basis, {s: 1.0})

    @classmethod
    def zero(cls, n: int, basis: str = SEMIGROUP) -> "AlgebraElement":
        return cls(n, basis, {})

    @property
    def coeffs(self) -> dict[PartialPermutation, complex]:
        """The nonzero terms as {element: coefficient}, decoded anew on each
        access; writing to the dict leaves the element as it is."""
        return dict(self.items())

    def __getitem__(self, s: PartialPermutation) -> complex:
        if s.n != self.n:
            raise DimensionMismatch(f"R_{s.n} element looked up in an element of R_{self.n}")
        return complex(self.values[element_index(self.n, np.array(s.image, dtype=np.int64))])

    def items(self) -> Iterator[tuple[PartialPermutation, complex]]:
        """Terms in canonical element order (sorted image tuples)."""
        at = canonical_order(self.n, np.flatnonzero(self.values))
        return zip(elements_at(self.n, at), self.values[at].tolist())

    def support(self) -> int:
        return int(np.count_nonzero(self.values))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return from_dense(self.n, self.basis, self.values + other.values)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return from_dense(self.n, self.basis, complex(scalar) * self.values)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-9) -> bool:
        if self.n != other.n or self.basis != other.basis:
            return False
        return bool(np.all(np.abs(self.values - other.values) <= tol))

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"R_{self.n} vs R_{other.n}")
        if self.basis != other.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, basis={self.basis!r}, terms={self.support()})"


def terms_vector(n: int, images, coeffs) -> np.ndarray:
    """A vector of R_n (layout order) holding coeffs[i] at the
    element with image row images[i] (tuples, or a (T, n) array of checked
    rows); terms naming one element add up."""
    check_n(n)
    if not isinstance(images, np.ndarray):
        for image in images:
            if len(image) != n:
                raise DimensionMismatch(f"coefficient key lives in R_{len(image)}, element in R_{n}")
        images = np.array(images, dtype=np.int64).reshape(len(images), n)
    values = np.zeros(size(n), dtype=complex)
    at = element_index(n, images)
    np.add.at(values, at, coeffs)
    return values


def from_dense(n: int, basis: str, values: np.ndarray) -> AlgebraElement:
    """The element with coefficient vector ``values``, in layout order (see
    ``AlgebraElement``).  A writable vector is taken over, not copied:
    entries below DROP_EPS in modulus are zeroed in place, as by the
    constructor, and it is made read-only."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    values = np.asarray(values, dtype=complex)
    if values.shape != (size(n),):
        raise DimensionMismatch(f"R_{n} needs {size(n)} coefficients, got shape {values.shape}")
    if not values.flags.writeable:
        values = values.copy()
    values[np.abs(values) < DROP_EPS] = 0
    values.flags.writeable = False
    f = object.__new__(AlgebraElement)
    f.n, f.basis, f.values = n, basis, values
    return f


def convolve_semigroup(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f∗g)(s) = Σ_{rt=s} f(r)g(t), the product in the {s} basis."""
    _require(f, SEMIGROUP)
    _require(g, SEMIGROUP)
    f._check_compatible(g)
    return _drop_rounding(to_semigroup(convolve_groupoid(to_groupoid(f), to_groupoid(g))), f, g)


def convolve_groupoid(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Product in the {⌊s⌋} basis: ⌊r⌋⌊t⌋ = ⌊rt⌋ if dom(r) = ran(t), else 0."""
    _require(f, GROUPOID)
    _require(g, GROUPOID)
    f._check_compatible(g)
    # transforms imports this module, so it can only be imported at call time
    from .transforms import blockwise_product, fourier_invert, stein_fft
    return _drop_rounding(fourier_invert(blockwise_product(stein_fft(f), stein_fft(g))), f, g)


def _drop_rounding(h: AlgebraElement, f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """The product h = f∗g without its terms of modulus ≤ DROP_EPS·‖f‖₁·‖g‖₁.
    A term that overflowed stays as it is, also when the floor overflowed
    too, so that the result shows the overflow."""
    floor = DROP_EPS * np.abs(f.values).sum() * np.abs(g.values).sum()
    drop = (np.abs(h.values) <= floor) & np.isfinite(h.values)
    return from_dense(h.n, h.basis, np.where(drop, 0, h.values))


def _spread(f: AlgebraElement, signed: bool) -> np.ndarray:
    """Σ_{x ≥ t} f(x) into slot t of a new vector, times μ(t,x) =
    (−1)^(rk x − rk t) when signed.

    Runs as a Yates pass of n table-driven steps (``zeta_steps``), j = n,
    …, 1: step j adds the value at every x of rank ≥ j into x without its
    j-th smallest domain point (subtracts it, when signed).  Dropping the
    j-th point leaves points 1..j−1 where they were, so each t ≤ x is
    reached from x by one path of steps, and μ is −1 per pair removed.
    Each step is an ``ufunc.at`` from the same dense tail whatever the
    support, a copied chunk of 2^18 contiguous sources at a time: sources
    are read, lowest rows first, before any step writes to them, as a
    target's row lies below its source's.  The work is Σ_k k·|R_{n,k}| ≤ n·|R_n|
    additions, the tables hold as many int32 rows, and no table over
    the pairs t ≤ x is built.
    """
    out = f.values.copy()
    add = np.subtract if signed else np.add
    for first, targets in zeta_steps(f.n):
        for at in range(0, len(targets), STEP_SLICE):
            add.at(out, targets[at : at + STEP_SLICE], out[first + at : first + at + STEP_SLICE].copy())
    return out


def to_groupoid(f: AlgebraElement, counter: OpCounter | None = None) -> AlgebraElement:
    """Zeta transform: the ⌊s⌋-coefficient is Σ_{x≥s} f(x).

    Each support element of rank k spreads over its 2^k restrictions, so a
    full-support input costs Σ_k C(n,k)² k! 2^k ≤ 2^n |R_n| additions.  Runs
    as the n steps of ``_spread``, at the same cost for any support.  The
    counter, when given, is charged the terms the direct sum adds,
    Σ_{x ∈ support} 2^rk(x), counted from the nonzeros of each rank's slice.
    """
    _require(f, SEMIGROUP)
    if counter is not None:
        ranks = pairwise(rank_starts(f.n))
        counter.add(sum(int(np.count_nonzero(f.values[a:b])) << k for k, (a, b) in enumerate(ranks)))
    return from_dense(f.n, GROUPOID, _spread(f, signed=False))


def to_semigroup(g: AlgebraElement) -> AlgebraElement:
    """Möbius inversion of the zeta transform: coefficient of t is Σ_{s≥t} μ(t,s)g(s)."""
    _require(g, GROUPOID)
    return from_dense(g.n, SEMIGROUP, _spread(g, signed=True))


def inner1(f: AlgebraElement, g: AlgebraElement) -> complex:
    """⟨f,g⟩₁ = Σ f(s)·conj(g(s)) over semigroup-basis coefficients."""
    return _inner(f, g, SEMIGROUP)


def inner2(f: AlgebraElement, g: AlgebraElement) -> complex:
    """⟨f,g⟩₂ = Σ f(s)·conj(g(s)) over groupoid-basis coefficients."""
    return _inner(f, g, GROUPOID)


def _inner(f: AlgebraElement, g: AlgebraElement, basis: str) -> complex:
    _require(f, basis)
    _require(g, basis)
    f._check_compatible(g)
    return complex(np.vdot(g.values, f.values))


def _require(f: AlgebraElement, basis: str) -> None:
    if f.basis != basis:
        raise BasisMismatch(f"expected {basis} basis, got {f.basis}")


def random_element(
    n: int, basis: str, rng: random.Random, support: str = "full"
) -> AlgebraElement:
    """Seeded random element drawn in canonical order; "full" support or "sparse" (about half)."""
    values = np.zeros(size(n), dtype=complex)
    for i in canonical_order(n, np.arange(size(n))).tolist():
        if support == "sparse" and rng.random() < 0.5:
            continue
        values[i] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return from_dense(n, basis, values)


# ---------------------------------------------------------------------------
# JSON form: {"n":…, "basis":…, "terms":[{"elem":"2->1;4->4","re":…,"im":…}]}
# ---------------------------------------------------------------------------


def to_json_dict(f: AlgebraElement) -> dict:
    """The JSON form, terms in canonical element order.  The flat forms are
    spelled from the image digits of the support (``flat_forms``), so no
    term is decoded to a ``PartialPermutation``."""
    at = canonical_order(f.n, np.flatnonzero(f.values))
    c = f.values[at]
    terms = zip(flat_forms(f.n, at), c.real.tolist(), c.imag.tolist())
    return {
        "n": f.n,
        "basis": f.basis,
        "terms": [{"elem": s, "re": re, "im": im} for s, re, im in terms],
    }


def from_json_dict(data: dict) -> AlgebraElement:
    """The element of the JSON form.  Each field of the terms is taken out
    in one C-level pass (``json_fields``), and every term is checked in
    bulk: the flat forms in one batch (``read_flat``, ``flat_positions``),
    ``re`` and ``im`` for type and finiteness as whole lists.  The first
    refused term, in file order, is then worded by the checks of one term
    (``_term``)."""
    try:
        n = json_int(data["n"], "n")
        basis = data["basis"]
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad algebra element JSON: {exc}") from None
    if not isinstance(terms, list):
        raise ParseError(f"bad algebra element JSON: terms must be a list, not {type(terms).__name__}")
    check_n(n)
    fields = {"elem": None, "re": 0.0, "im": 0.0}
    try:
        elems, real, imag = json_fields(terms, fields)
    except TypeError:  # a term that is no object reads as {}, which has no "elem": refused
        elems, real, imag = json_fields([t if isinstance(t, dict) else {} for t in terms], fields)
    at, refused = flat_positions(n, read_flat(elems))
    real, refused_re = json_numbers(real)
    imag, refused_im = json_numbers(imag)
    refused |= refused_re | refused_im
    if refused.any():
        first = int(refused.argmax())
        _term(n, terms[first])
        raise AssertionError(f"term {first} refused in bulk but not alone")
    coeffs = np.empty(len(terms), dtype=complex)
    coeffs.real, coeffs.imag = real, imag
    values = np.zeros(size(n), dtype=complex)
    np.add.at(values, at, coeffs)
    return from_dense(n, basis, values)


def _term(n: int, term) -> None:
    """The checks of one term, in order: ``elem`` present, ``re`` and ``im``
    numbers, ``elem`` a string, its flat form.  Raises the ParseError (or the
    ValueError of ``int``) of a term the bulk checks refused."""
    try:
        flat = term["elem"]
        json_complex(term)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"bad algebra element term {term!r}: {exc}") from None
    if not isinstance(flat, str):
        raise ParseError(f"bad algebra element term {term!r}: elem must be a string")
    flat_image(n, flat)
