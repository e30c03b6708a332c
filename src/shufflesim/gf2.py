"""Linear algebra over GF(2) on bit-packed vectors.

Bit i of a vector is ``(value >> i) & 1``; string forms put bit 0 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable


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

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        bits = list(bits)
        value = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit {i} is {b}, expected 0 or 1")
            value |= b << i
        return cls(value, len(bits))

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        return cls.from_bits(int(c) for c in text)

    def to01(self) -> str:
        return "".join(str(self.bit(i)) for i in range(self.width))

    def bit(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise IndexError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> i) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} != {other.width}")
        return BitVector(self.value ^ other.value, self.width)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


@dataclass(frozen=True)
class BitMatrix:
    """Row-major matrix over GF(2); all rows share one width."""

    rows: tuple[BitVector, ...]
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        for r in self.rows:
            if r.width != self.width:
                raise ValueError(f"row width {r.width} != matrix width {self.width}")

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector], width: int | None = None) -> "BitMatrix":
        rows = tuple(rows)
        if width is None:
            if not rows:
                raise ValueError("width required for an empty matrix")
            width = rows[0].width
        return cls(rows, width)

    def __len__(self) -> int:
        return len(self.rows)


def dot(u: BitVector, v: BitVector) -> int:
    """Inner product over GF(2): parity of the shared support."""
    if u.width != v.width:
        raise ValueError(f"width mismatch: {u.width} != {v.width}")
    return (u.value & v.value).bit_count() & 1


def _reduced_rows(matrix: BitMatrix) -> list[tuple[int, int]]:
    # Reduced row echelon form as (pivot column, packed row) pairs, pivot =
    # lowest-index set bit so the elimination order is deterministic.
    pivots: list[tuple[int, int]] = []
    for bv in matrix.rows:
        row = bv.value
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


def null_space_basis(matrix: BitMatrix) -> list[BitVector]:
    """Deterministic basis of {v : Mv = 0}, one vector per free column.

    Basis vectors are ordered by free-column index; vector k has bit 1 at its
    free column and the matching pivot-row coefficients elsewhere.
    """
    n = matrix.width
    pivots = _reduced_rows(matrix)
    pivot_cols = {col for col, _ in pivots}
    basis: list[BitVector] = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = 1 << free
        for col, row in pivots:
            if (row >> free) & 1:
                v |= 1 << col
        basis.append(BitVector(v, n))
    return basis

