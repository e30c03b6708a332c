"""Simon instances: two-to-one functions with a hidden shift, and their
one-to-one decision counterparts."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class InstanceKind(str, enum.Enum):
    SIMON = "simon"
    ONE_TO_ONE = "one_to_one"


@dataclass(frozen=True)
class SimonInstance:
    """A function f: Z_2^n -> Z_2^n stored as a dense table.

    Simon instances satisfy f(x) = f(x ^ s) for the nonzero hidden shift s and
    take exactly 2^(n-1) distinct values; one-to-one instances are injective
    and carry s = None.
    """

    n: int
    kind: InstanceKind
    s: int | None
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.table.shape != (1 << self.n,):
            raise ValueError(f"table must have 2^{self.n} entries, got {self.table.shape}")
        size = 1 << self.n
        if not np.issubdtype(self.table.dtype, np.integer):
            raise ValueError(f"table must hold integers, got dtype {self.table.dtype}")
        if self.table.min() < 0 or self.table.max() >= size:
            raise ValueError(f"table values must lie in [0, 2^{self.n})")
        # in range, so bincount counts the distinct values in O(2^n); it refuses uint64
        counts = np.bincount(self.table.astype(np.intp, copy=False), minlength=size)
        distinct = np.count_nonzero(counts)
        if self.kind is InstanceKind.SIMON:
            if self.s is None or not 0 < self.s < size:
                raise ValueError(f"simon instance needs a nonzero shift, got {self.s}")
            if not _collides_along(self.table, self.s):
                raise ValueError("table does not collide along the declared shift")
            if distinct != 1 << (self.n - 1):
                raise ValueError(f"two-to-one table must take {1 << (self.n - 1)} values")
        else:
            if self.s is not None:
                raise ValueError("one-to-one instance must not carry a shift")
            if distinct != 1 << self.n:
                raise ValueError("one-to-one table must be injective")

    def value(self, x: int) -> int:
        return int(self.table[x])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind.value,
            "s": self.s,
            "table": [int(v) for v in self.table],
        }


def sample_simon(n: int, rng: np.random.Generator) -> SimonInstance:
    """Uniform Simon instance: uniform nonzero s, then a uniform injection
    from the 2^(n-1) cosets {x, x^s} into Z_2^n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    s = int(rng.integers(1, 1 << n))
    size = 1 << n
    images = rng.permutation(size)[: size // 2]
    # coset representatives {x : x < x ^ s}, ascending, take images in order
    x = np.arange(size)
    reps = x[x < (x ^ s)]
    table = np.empty(size, dtype=np.int64)
    table[reps] = images
    table[reps ^ s] = images
    return SimonInstance(n=n, kind=InstanceKind.SIMON, s=s, table=table)


def sample_one_to_one(n: int, rng: np.random.Generator) -> SimonInstance:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    table = rng.permutation(1 << n).astype(np.int64)
    return SimonInstance(n=n, kind=InstanceKind.ONE_TO_ONE, s=None, table=table)


def sample_decision_instance(n: int, rng: np.random.Generator) -> SimonInstance:
    """Fair coin between the two instance kinds."""
    if rng.integers(2) == 0:
        return sample_simon(n, rng)
    return sample_one_to_one(n, rng)


def verify_shift(instance: SimonInstance, s: int) -> bool:
    """True iff s is a genuine hidden shift of the table (s = 0 rejected)."""
    return 0 < s < (1 << instance.n) and _collides_along(instance.table, s)


def _collides_along(table: np.ndarray, s: int) -> bool:
    return bool(np.array_equal(table, table[np.arange(len(table)) ^ s]))
