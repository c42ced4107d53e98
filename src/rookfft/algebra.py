"""Elements of the semigroup algebra CR_n in its two natural bases.

A function on R_n can sit on the semigroup basis {s} or on the groupoid
basis {⌊s⌋}, where ⌊s⌋ = Σ_{t≤s} μ(t,s)·t.  The two carry different
multiplications (ordinary convolution vs. domain/range-aligned
composition), different inner products, and are exchanged by the zeta and
Möbius transforms of the natural partial order.  The basis tag is data:
mixing bases is an error, never a silent coercion.
"""

from __future__ import annotations

import cmath
import random
from itertools import chain
from typing import Iterator, Mapping

import numpy as np

from .core import (
    DimensionMismatch,
    ParseError,
    PartialPermutation,
    check_n,
    enumerate_rn,
    json_int,
    size,
)
from .counting import OpCounter
from .indexing import element_index, elements_at, without_point

SEMIGROUP = "semigroup"
GROUPOID = "groupoid"
BASES = (SEMIGROUP, GROUPOID)

DROP_EPS = 1e-14


class BasisMismatch(ValueError):
    """Operation applied to elements on the wrong basis."""


class AlgebraElement:
    """A sparse coefficient map over R_n tagged with its basis."""

    __slots__ = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: Mapping[PartialPermutation, complex]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[PartialPermutation, complex] = {}
        for s, c in coeffs.items():
            if s.n != n:
                raise DimensionMismatch(f"coefficient key lives in R_{s.n}, element in R_{n}")
            c = complex(c)
            if abs(c) >= DROP_EPS:
                clean[s] = c
        self.n = n
        self.basis = basis
        self.coeffs = clean

    @classmethod
    def delta(cls, n: int, s: PartialPermutation, basis: str = SEMIGROUP) -> "AlgebraElement":
        return cls(n, basis, {s: 1.0})

    @classmethod
    def zero(cls, n: int, basis: str = SEMIGROUP) -> "AlgebraElement":
        return cls(n, basis, {})

    def __getitem__(self, s: PartialPermutation) -> complex:
        return self.coeffs.get(s, 0j)

    def items(self) -> Iterator[tuple[PartialPermutation, complex]]:
        """Terms in canonical element order (sorted image tuples)."""
        return iter(sorted(self.coeffs.items(), key=lambda kv: kv[0].image))

    def support(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for s, c in other.coeffs.items():
            merged[s] = merged.get(s, 0j) + c
        return AlgebraElement(self.n, self.basis, merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.n, self.basis, {s: scalar * c for s, c in self.coeffs.items()})

    def allclose(self, other: "AlgebraElement", tol: float = 1e-9) -> bool:
        if self.n != other.n or self.basis != other.basis:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self[s] - other[s]) <= tol for s in keys)

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"R_{self.n} vs R_{other.n}")
        if self.basis != other.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, basis={self.basis!r}, terms={len(self.coeffs)})"


def convolve_semigroup(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f∗g)(s) = Σ_{rt=s} f(r)g(t), the product in the {s} basis."""
    _require(f, SEMIGROUP)
    _require(g, SEMIGROUP)
    f._check_compatible(g)
    out: dict[PartialPermutation, complex] = {}
    g_terms = list(g.items())
    for r, fr in f.items():
        for t, gt in g_terms:
            s = r * t
            out[s] = out.get(s, 0j) + fr * gt
    return AlgebraElement(f.n, SEMIGROUP, out)


def convolve_groupoid(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Product in the {⌊s⌋} basis: ⌊r⌋⌊t⌋ = ⌊rt⌋ if dom(r) = ran(t), else 0."""
    _require(f, GROUPOID)
    _require(g, GROUPOID)
    f._check_compatible(g)
    out: dict[PartialPermutation, complex] = {}
    g_terms = [(t, t.ran(), gt) for t, gt in g.items()]
    for r, fr in f.items():
        rdom = r.dom()
        for t, tran, gt in g_terms:
            if rdom == tran:
                s = r * t
                out[s] = out.get(s, 0j) + fr * gt
    return AlgebraElement(f.n, GROUPOID, out)


def _support(f: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """(terms, n) int64 image rows and the complex coefficients of f's support."""
    terms = len(f.coeffs)
    images = chain.from_iterable(s.image for s in f.coeffs)
    images = np.fromiter(images, dtype=np.int64, count=terms * f.n).reshape(terms, f.n)
    return images, np.fromiter(f.coeffs.values(), dtype=complex, count=terms)


def to_dense(f: AlgebraElement) -> np.ndarray:
    """The coefficients of f as a complex vector indexed like enumerate_rn(f.n)."""
    images, values = _support(f)
    out = np.zeros(size(f.n), dtype=complex)
    out[element_index(f.n, images)] = values
    return out


def from_dense(n: int, basis: str, values: np.ndarray) -> AlgebraElement:
    """The element with coefficient vector ``values`` (enumerate_rn(n) order);
    entries below DROP_EPS in modulus are dropped, as by the constructor."""
    keep = np.flatnonzero(np.abs(values) >= DROP_EPS)
    return AlgebraElement(n, basis, dict(zip(elements_at(n, keep), values[keep].tolist())))


def _spread(f: AlgebraElement, signed: bool) -> tuple[np.ndarray, int]:
    """Σ_{x ≥ t} f(x) into slot t, times μ(t,x) = (−1)^(rk x − rk t) when
    signed; also returns Σ_{x ∈ support} 2^rk(x), the terms the direct sum
    adds.  Runs as a Yates pass over the domain points: t ≤ x exactly when t
    is x with some of its pairs removed, and μ is −1 per pair removed, so
    pushing every nonzero value at an x with p in its domain onto x without
    p, for p = 1..n in turn, sums each f(x) into each t ≤ x once.  Each step
    touches only nonzero slots; the work is at most n·|R_n| lookups and
    needs no table over the pairs t ≤ x."""
    images, values = _support(f)
    out = np.zeros(size(f.n), dtype=complex)
    out[element_index(f.n, images)] = values
    sign = -1.0 if signed else 1.0
    for p in range(f.n):
        sources, targets = without_point(f.n, np.flatnonzero(out), p)
        np.add.at(out, targets, sign * out[sources])
    return out, int((1 << np.count_nonzero(images, axis=1)).sum())


def to_groupoid(f: AlgebraElement, counter: OpCounter | None = None) -> AlgebraElement:
    """Zeta transform: the ⌊s⌋-coefficient is Σ_{x≥s} f(x).

    Each support element of rank k spreads over its 2^k restrictions, so a
    full-support input costs Σ_k C(n,k)² k! 2^k ≤ 2^n |R_n| additions.  Runs
    as a Yates pass that removes one domain point at a time.
    """
    _require(f, SEMIGROUP)
    out, terms = _spread(f, signed=False)
    if counter is not None:
        counter.add(terms)
    return from_dense(f.n, GROUPOID, out)


def to_semigroup(g: AlgebraElement) -> AlgebraElement:
    """Möbius inversion of the zeta transform: coefficient of t is Σ_{s≥t} μ(t,s)g(s)."""
    _require(g, GROUPOID)
    return from_dense(g.n, SEMIGROUP, _spread(g, signed=True)[0])


def inner1(f: AlgebraElement, g: AlgebraElement) -> complex:
    """⟨f,g⟩₁ = Σ f(s)·conj(g(s)) over semigroup-basis coefficients."""
    _require(f, SEMIGROUP)
    _require(g, SEMIGROUP)
    f._check_compatible(g)
    return sum(c * g[s].conjugate() for s, c in f.items())


def inner2(f: AlgebraElement, g: AlgebraElement) -> complex:
    """⟨f,g⟩₂ = Σ f(s)·conj(g(s)) over groupoid-basis coefficients."""
    _require(f, GROUPOID)
    _require(g, GROUPOID)
    f._check_compatible(g)
    return sum(c * g[s].conjugate() for s, c in f.items())


def _require(f: AlgebraElement, basis: str) -> None:
    if f.basis != basis:
        raise BasisMismatch(f"expected {basis} basis, got {f.basis}")


def random_element(
    n: int, basis: str, rng: random.Random, support: str = "full"
) -> AlgebraElement:
    """Seeded random element; "full" support or "sparse" (about half)."""
    coeffs = {}
    for s in enumerate_rn(n):
        if support == "sparse" and rng.random() < 0.5:
            continue
        coeffs[s] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return AlgebraElement(n, basis, coeffs)


# ---------------------------------------------------------------------------
# JSON form: {"n":…, "basis":…, "terms":[{"elem":"2->1;4->4","re":…,"im":…}]}
# ---------------------------------------------------------------------------


def to_json_dict(f: AlgebraElement) -> dict:
    return {
        "n": f.n,
        "basis": f.basis,
        "terms": [
            {"elem": s.to_flat(), "re": c.real, "im": c.imag} for s, c in f.items()
        ],
    }


def from_json_dict(data: dict) -> AlgebraElement:
    try:
        n = json_int(data["n"], "n")
        basis = data["basis"]
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad algebra element JSON: {exc}") from None
    if not isinstance(terms, list):
        raise ParseError(f"bad algebra element JSON: terms must be a list, not {type(terms).__name__}")
    check_n(n)
    coeffs: dict[PartialPermutation, complex] = {}
    for term in terms:
        try:
            flat = term["elem"]
            c = complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad algebra element term {term!r}: {exc}") from None
        if not isinstance(flat, str):
            raise ParseError(f"bad algebra element term {term!r}: elem must be a string")
        if not cmath.isfinite(c):
            raise ParseError(f"non-finite coefficient {c} for {flat!r}")
        s = PartialPermutation.from_flat(n, flat)
        coeffs[s] = coeffs.get(s, 0j) + c
    return AlgebraElement(n, basis, coeffs)
