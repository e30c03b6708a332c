"""Linear algebra over GF(2) on rows packed into Python ints.

Bit i of a row is ``(row >> i) & 1``. Elimination takes and returns plain
ints; BitVector pairs a value with its width where a vector leaves the
package, as the solver's sampled j and recovered shift.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class BitVector:
    """Fixed-width vector over GF(2), packed into a Python int."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")


def dot(u: BitVector, v: BitVector) -> int:
    """Inner product over GF(2): parity of the shared support."""
    if u.width != v.width:
        raise ValueError(f"width mismatch: {u.width} != {v.width}")
    return (u.value & v.value).bit_count() & 1


def _reduced_rows(matrix: Sequence[int]) -> list[tuple[int, int]]:
    # Reduced row echelon form as (pivot column, packed row) pairs, pivot =
    # lowest-index set bit so the elimination order is deterministic.
    pivots: list[tuple[int, int]] = []
    for row in matrix:
        for col, prow in pivots:
            if (row >> col) & 1:
                row ^= prow
        if row == 0:
            continue
        col = (row & -row).bit_length() - 1
        pivots = [(c, p ^ row if (p >> col) & 1 else p) for c, p in pivots]
        pivots.append((col, row))
    pivots.sort()
    return pivots


def null_space_basis(matrix: Sequence[int], n: int) -> list[int]:
    """Deterministic basis of {v : Mv = 0} over n-bit v for the int rows of M,
    which must lie in [0, 2^n) (ValueError otherwise), ordered by free column:
    vector k has bit 1 at its free column and the matching pivot-row
    coefficients elsewhere."""
    for row in matrix:
        if not 0 <= row < 1 << n:
            raise ValueError(f"row {row} out of range for width {n}")
    pivots = _reduced_rows(matrix)
    pivot_cols = {col for col, _ in pivots}
    basis: list[int] = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = 1 << free
        for col, row in pivots:
            if (row >> free) & 1:
                v |= 1 << col
        basis.append(v)
    return basis
