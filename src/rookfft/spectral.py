"""Spectral analysis of partially ranked data over the rook monoid.

A ballot that ranks some candidates and skips others is an injective
partial map candidate → position, i.e. an element of R_n, and a dataset is
a nonnegative function on R_n.  Under an association model (semigroup or
groupoid basis) the dataset becomes an algebra element, which decomposes
into isotypic components, one per label λ ⊢ k ≤ n.  Energies are reported
under ⟨·,·⟩₂, the inner product that makes distinct isotypic components
orthogonal, and come from a Plancherel formula on the stein blocks: one
forward FFT plus O(|R_n|), with no inversion, since the blocks are in
Young's orthogonal form, where ρ(w)⁻¹ = ρ(w)ᵀ.  The projections themselves
(``isotypic_project``) still go transform → keep one block → invert, the
inversion over the block's rank alone.

A dataset (``Dataset``) holds one read-only float vector of counts in
``enumerate_rn(n)`` order, which ``to_function`` takes as the coefficients
of an element.  A ballot CSV is read as one batch of flat forms
(``core.read_flat``, one numpy pass over the joined ballots for grammar and
points, and ``indexing.flat_positions``, which computes each ballot's image
code from its points; points are ASCII digits only), its counts as one
float array: n is inferred from the parsed points, and the counts go to
the ballots' positions in
``enumerate_rn(n)`` with one ``np.add.at`` in file order, so repeated
ballots merge.  No ballot is decoded to a ``PartialPermutation`` unless
``Dataset.records`` is read.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BASES,
    GROUPOID,
    AlgebraElement,
    BasisMismatch,
    from_dense,
    terms_vector,
    to_groupoid,
)
from .core import (
    FlatTerms,
    ParseError,
    PartialPermutation,
    check_n,
    read_flat,
    refuse_flat,
    size,
)
from .indexing import cell_index, elements_at, flat_positions
from .rook_reps import labels
from .tableaux import Shape, num_standard, partitions
from .transforms import FourierCoefficients, invert_rank, stein_fft


class Dataset:
    """Ballots with multiplicities over R_n: ``counts[i]`` is the total count
    of ballot ``enumerate_rn(n)[i]``, one read-only float vector.  Built from
    (ballot, count) records, whose counts add up per ballot."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, records: list[tuple[PartialPermutation, float]]):
        images = [ballot.image for ballot, _ in records]
        counts = terms_vector(n, images, [float(c) for _, c in records]).real.copy()
        counts.flags.writeable = False
        self.n, self.counts = n, counts

    @property
    def records(self) -> list[tuple[PartialPermutation, float]]:
        """The ballots counted a nonzero number of times with their totals, in
        ``enumerate_rn(n)`` order, decoded anew on each access."""
        at = np.flatnonzero(self.counts)
        return list(zip(elements_at(self.n, at), self.counts[at].tolist()))

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, ballots={np.count_nonzero(self.counts)})"


def ingest(path, n: int | None = None) -> Dataset:
    """Read a ballot CSV (header "ballot,count"); duplicate ballots merge.

    The file is UTF-8, with or without a byte-order mark.  The ballot field
    is the flat mapping form "a->b;c->d" ("" for the all-blank ballot).
    When n is not given it is inferred from the largest point mentioned.  An
    n above MAX_N is refused (``DimensionMismatch``) before any ballot is
    built; otherwise the first refused row raises a ParseError that names
    its line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return _ingest_lines(fh, n)


def _ingest_lines(fh, n: int | None) -> Dataset:
    """The rows are checked in bulk, all counts before any ballot, and the
    first refused row is worded by the checks of one row (``_check_row``,
    ``refuse_flat``).  Each ballot is placed by its image code, and the counts
    go into the vector with one ``np.add.at`` in file order."""
    rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["ballot", "count"]:
        raise ParseError('line 1: expected header "ballot,count"')
    data = [i for i in range(1, len(rows)) if len(rows[i]) > 1 or (rows[i] and rows[i][0].strip())]
    linenos, fields = [i + 1 for i in data], [rows[i] for i in data]  # blank rows are skipped
    try:
        counts = np.array([float(count) for _, count in fields])
    except ValueError:  # a row without two fields, or a count float() refuses
        counts = None
    if counts is None or not (np.isfinite(counts) & (counts >= 0)).all():
        for lineno, row in zip(linenos, fields):
            _check_row(lineno, row)
        raise AssertionError("a count refused in bulk but not row by row")
    texts = [ballot.strip() for ballot, _ in fields]
    ballots = read_flat(texts)
    largest = _largest_point(ballots)  # read even when n is given, as int() may refuse a point
    if n is None:
        n = largest
    check_n(n)
    at, refused = flat_positions(n, ballots)
    if refused.any():
        i = int(refused.argmax())
        try:
            refuse_flat(n, texts[i])
        except ParseError as exc:
            raise ParseError(f"line {linenos[i]}: {exc}") from None
    totals = np.zeros(size(n))
    np.add.at(totals, at, counts)
    totals.flags.writeable = False
    d = object.__new__(Dataset)
    d.n, d.counts = n, totals
    return d


def _check_row(lineno: int, row: list[str]) -> None:
    """The checks of one data row, in order: two fields, a count that
    ``float`` reads, finite, not negative."""
    if len(row) != 2:
        raise ParseError(f"line {lineno}: expected 2 fields, got {len(row)}")
    try:
        count = float(row[1])
    except ValueError:
        raise ParseError(f"line {lineno}: bad count {row[1]!r}") from None
    if not math.isfinite(count):
        raise ParseError(f"line {lineno}: non-finite count {row[1].strip()!r}")
    if count < 0:
        raise ParseError(f"line {lineno}: negative count {count}")


def _largest_point(ballots: FlatTerms) -> int:
    """The largest point of a ballot file, its n when none is given.  When a
    ballot is ungrammatical or has a point above 9, the file is refused
    either way, and the texts are scanned instead, each ASCII digit string
    between "->" and ";" read by ``int``, so that the refusal stays the one
    it always was: a point too long for ``int``, then n too large, before
    any bad ballot."""
    if ballots.grammatical.all() and (ballots.points < 10).all():
        return int(ballots.points.max(initial=0))
    tokens = (t.strip() for text in ballots.texts for t in text.replace("->", ";").split(";"))
    return max((int(t) for t in tokens if t.isascii() and t.isdigit()), default=0)


def to_function(d: Dataset, association: str) -> AlgebraElement:
    """Attach the count vector to the chosen natural basis; no ballot is
    decoded."""
    if association not in BASES:
        raise ValueError(f"unknown association model {association!r}")
    return from_dense(d.n, association, d.counts)


def _as_groupoid(f: AlgebraElement) -> AlgebraElement:
    return f if f.basis == GROUPOID else to_groupoid(f)


def isotypic_project(f: AlgebraElement, shape: Shape) -> AlgebraElement:
    """Projection onto the isotypic component of one label λ ⊢ k.

    Computed by transform → keep the one block → invert; the projection
    lives on the rank-k elements, so only rank k is inverted
    (``invert_rank``).  The projections over all labels sum back to the
    groupoid image of f.
    """
    shape = tuple(shape)
    if shape not in labels(f.n):
        raise ValueError(f"unknown label {shape} for R_{f.n}")
    k = sum(shape)
    F = stein_fft(_as_groupoid(f))
    kept = {sh: np.zeros_like(F.blocks[sh]) for sh in partitions(k)}
    kept[shape] = F.blocks[shape]
    values = np.zeros(size(f.n), dtype=complex)
    values[cell_index(f.n, k)] = invert_rank(FourierCoefficients(f.n, kept), k)
    return from_dense(f.n, GROUPOID, values)


@dataclass
class SpectrumReport:
    """Per-label ⟨p,p⟩₂ energies of the isotypic projections.

    ``total`` is Σ energies and ``parseval_residual`` is |total − ⟨g,g⟩₂|
    for the groupoid image g; Parseval makes it zero up to rounding.
    """

    n: int
    association: str
    energies: dict[Shape, float]
    total: float
    parseval_residual: float

    def fractions(self) -> dict[Shape, float]:
        if self.total == 0:
            return {sh: 0.0 for sh in self.energies}
        return {sh: e / self.total for sh, e in self.energies.items()}


def spectrum(f: AlgebraElement, association: str | None = None) -> SpectrumReport:
    """Energy decomposition of f across the isotypic components.

    With g the groupoid image of f and F̂ = stein_fft(g), the projection onto
    λ ⊢ k has energy

        ⟨p_λ,p_λ⟩₂ = (f^λ/k!) · ‖F̂_λ‖²_F,

    the S_k Plancherel formula summed over the C(n,k)² subset cells, which
    needs no weights as every ρ_λ(w) is orthogonal.  That is one forward
    FFT plus O(|R_n|); no inversion runs.

    The association model is the basis carrying the raw values; passing a
    different one is an error (convert explicitly instead).
    """
    if association is not None and association != f.basis:
        raise BasisMismatch(
            f"element carries the {f.basis} association, asked for {association}"
        )
    g = _as_groupoid(f)
    F = stein_fft(g)
    energies: dict[Shape, float] = {}
    for shape in labels(f.n):
        M = F.blocks[shape]
        factor = num_standard(shape) / math.factorial(sum(shape))
        energies[shape] = factor * float(np.vdot(M, M).real)
    total = sum(energies.values())
    residual = abs(total - float(np.vdot(g.values, g.values).real))
    return SpectrumReport(f.n, f.basis, energies, total, residual)


def analyze(d: Dataset, association: str) -> SpectrumReport:
    return spectrum(to_function(d, association))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_json_dict(r: SpectrumReport) -> dict:
    fracs = r.fractions()
    return {
        "n": r.n,
        "association": r.association,
        "total": r.total,
        "parseval_residual": r.parseval_residual,
        "labels": [
            {"lambda": list(sh), "k": sum(sh), "energy": e, "fraction": fracs[sh]}
            for sh, e in r.energies.items()
        ],
    }


def report_to_csv(r: SpectrumReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lambda", "k", "energy", "fraction"])
    fracs = r.fractions()
    for sh, e in r.energies.items():
        writer.writerow([" ".join(map(str, sh)), sum(sh), repr(e), repr(fracs[sh])])
    return out.getvalue()
