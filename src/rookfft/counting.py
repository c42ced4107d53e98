"""Multiply-add accounting for the transform algorithms.

One operation is a single complex multiplication followed by a complex
addition; a plain addition also counts as one.  Multiplication by a
structurally-known identity matrix is free.  A product with a sparse
matrix costs nnz × columns: one operation per stored nonzero per column of
the other factor, whatever dense kernel carries it out.  Summing t
matrices of size s costs (t - 1)·s, the first term being an assignment.
These rules are what make the divide-and-conquer bounds hold with their
stated constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    multiply_adds: int = 0

    def add(self, k: int) -> None:
        self.multiply_adds += k

