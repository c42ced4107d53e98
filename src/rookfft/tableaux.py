"""Partitions and n-standard Young tableaux.

A partition is a weakly decreasing tuple of positive integers (trailing
zeros stripped, so () is the unique partition of 0).  An n-standard tableau
of shape λ ⊢ k fills the k boxes with distinct entries from {1..n},
increasing along rows and down columns.  These index the irreducible
representations used throughout: standard tableaux (n = k) for the
symmetric group, n-standard tableaux for the rook monoid.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


@cache
def partitions(k: int) -> tuple[Shape, ...]:
    """All partitions of k, in descending lexicographic order."""

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first, *tail)

    return tuple(gen(k, k))


def corners(shape: Shape) -> tuple[tuple[int, int], ...]:
    """Removable boxes (r, c), 0-indexed, listed top to bottom."""
    out = []
    for r, width in enumerate(shape):
        below = shape[r + 1] if r + 1 < len(shape) else 0
        if width > below:
            out.append((r, width - 1))
    return tuple(out)


def remove_corner(shape: Shape, row: int) -> Shape:
    new = list(shape)
    new[row] -= 1
    if new and new[-1] == 0:
        new.pop()
    return tuple(new)


def content(r: int, c: int) -> int:
    """Content of the box at (row r, column c), 0-indexed: c - r."""
    return c - r


def find_entry(tab: Tableau, v: int) -> tuple[int, int] | None:
    for r, row in enumerate(tab):
        for c, e in enumerate(row):
            if e == v:
                return (r, c)
    return None


def entries(tab: Tableau) -> frozenset[int]:
    return frozenset(e for row in tab for e in row)


def swap_adjacent(tab: Tableau, i: int) -> Tableau:
    """Exchange the entries i-1 and i (whichever of them are present)."""
    sub = {i - 1: i, i: i - 1}
    return tuple(tuple(sub.get(e, e) for e in row) for row in tab)


def is_standard(tab: Tableau) -> bool:
    for r, row in enumerate(tab):
        for c, e in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= e:
                return False
            if r + 1 < len(tab) and c < len(tab[r + 1]) and tab[r + 1][c] <= e:
                return False
    return True


@cache
def standard_tableaux(shape: Shape) -> tuple[Tableau, ...]:
    """Standard fillings with entries exactly {1..k} (unordered basis)."""
    if not shape:
        return ((),)
    k = sum(shape)
    out = []
    for r, c in corners(shape):
        for sub in standard_tableaux(remove_corner(shape, r)):
            rows = [list(row) for row in sub]
            while len(rows) <= r:
                rows.append([])
            rows[r].append(k)
            out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


@cache
def num_standard(shape: Shape) -> int:
    """f^λ, by the hook length formula."""
    k = sum(shape)
    if k == 0:
        return 1
    hooks = 1
    for r, width in enumerate(shape):
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for w in shape[r + 1 :] if w > c)
            hooks *= arm + leg + 1
    return factorial(k) // hooks


def last_letter_key(tab: Tableau, n: int) -> tuple[int, ...]:
    """Sort key realizing the generalized last-letter order.

    Working down from n: tableaux not containing m sort before those with m
    in the top corner, which sort before those with m in the next corner
    down, and so on; ties recurse on the tableau with m's box removed.
    For full tableaux (λ ⊢ n) this is the usual last-letter order.
    """
    rows = [list(row) for row in tab]
    key = []
    for m in range(n, 0, -1):
        hit = None
        for r, row in enumerate(rows):
            if row and row[-1] == m:
                hit = r
                break
        if hit is None:
            key.append(0)
            continue
        corner_rows = [
            r
            for r, row in enumerate(rows)
            if row and (r + 1 >= len(rows) or len(rows[r + 1]) < len(row))
        ]
        key.append(1 + corner_rows.index(hit))
        rows[hit].pop()
        while rows and not rows[-1]:
            rows.pop()
    return tuple(key)


@cache
def nstandard_tableaux(shape: Shape, n: int) -> tuple[Tableau, ...]:
    """All n-standard tableaux of the shape, in generalized last-letter order."""
    k = sum(shape)
    if k > n:
        raise ValueError(f"shape {shape} has weight {k} > n = {n}")
    base = standard_tableaux(shape)
    tabs = []
    for chosen in combinations(range(1, n + 1), k):
        for t in base:
            tabs.append(tuple(tuple(chosen[e - 1] for e in row) for row in t))
    tabs.sort(key=lambda t: last_letter_key(t, n))
    return tuple(tabs)
