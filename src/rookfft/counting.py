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

import numpy as np


@dataclass
class OpCounter:
    multiply_adds: int = 0

    def add(self, k: int) -> None:
        self.multiply_adds += k


def scaled_accumulate(acc: np.ndarray, c: complex, M: np.ndarray, counter: OpCounter) -> None:
    """acc += c·M, the inner step of a naive transform; costs size(M)."""
    counter.add(M.size)
    acc += c * M

