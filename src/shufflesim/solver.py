"""Shallow quantum solver for the shuffled Simon problem.

One round chases the shuffle forward through d+1 oracle layers, measures the
core answer register, uncomputes the d intermediate registers in reverse, and
Fourier-samples the input register. Every sampled j is orthogonal to the
hidden shift on Simon instances and uniform on one-to-one instances, so GF(2)
elimination over collected rounds recovers the shift or certifies full rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .gf2 import BitVector, null_space_basis
from .ledger import DepthLedger
from .oracle import BOT, ShufflingOracle
from .simon import InstanceKind

CANDIDATE_CAP = 4096


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class RoundResult:
    """One Fourier sample: the measured j, the core value observed mid-round,
    and the oracle layers the round's circuit used."""

    j: BitVector
    core_value: int | None
    oracle_layers: int


def solver_layout(n: int, d: int) -> qsim.RegisterLayout:
    """Q holds the n-bit input; N0..Nd hold the per-level answers (with their
    bot flag bits), the last being the n+1-bit core answer."""
    names = ["Q"] + [f"N{i}" for i in range(d + 1)]
    widths = [n] + [(d + 2) * n + 1] * d + [n + 1]
    return qsim.RegisterLayout(tuple(names), tuple(widths))


@functools.cache
def round_program(n: int, d: int) -> qsim.CircuitProgram:
    """One solver round: chase N0..Nd, measure the core answer Nd, uncompute
    N{d-1}..N0 in reverse, then Fourier-sample Q; 2d+1 oracle layers."""

    def layer(i: int) -> tuple:
        return ("oracle", ((i, "Q" if i == 0 else f"N{i - 1}", f"N{i}"),))

    ops = [("uniform", "Q"), *map(layer, range(d + 1)), ("measure", f"N{d}")]
    ops += [*map(layer, reversed(range(d))), ("hadamard", "Q"), ("measure", "Q")]
    return qsim.CircuitProgram(solver_layout(n, d), tuple(ops))


def run_simon_round(
    oracle: ShufflingOracle,
    rng: np.random.Generator,
    ledger: DepthLedger | None = None,
) -> RoundResult:
    """One solver round; exactly 2d+1 oracle layers."""
    n, d = oracle.n, oracle.d
    ledger = ledger if ledger is not None else DepthLedger()
    machine = qsim.run_program(round_program(n, d), oracle, rng, ledger)
    for i in range(d):
        leftover = machine.register_values(f"N{i}")
        if leftover != {0}:
            raise SolverError(f"uncompute left N{i} holding {sorted(leftover)}")
    core = oracle.decode_answer(d, machine.outcomes[f"N{d}"])
    return RoundResult(
        j=BitVector(machine.outcomes["Q"], n),
        core_value=None if core is BOT else int(core),
        oracle_layers=ledger.oracle_layers_current_circuit,
    )


def decide_from_samples(rows: list[int], n: int, path_final) -> InstanceKind:
    """Decide Simon versus one-to-one from n-bit Fourier samples. Full rank
    certifies one-to-one; otherwise each nonzero null-space vector v, cheapest
    first, is checked for path_final(v) == path_final(0), which is conclusive
    for Simon since injective instances admit no such pair. Raises SolverError
    when the null space holds more than CANDIDATE_CAP nonzero vectors."""
    basis = null_space_basis(rows, n)
    if basis and _colliding_shift(basis, path_final) is not None:
        return InstanceKind.SIMON
    return InstanceKind.ONE_TO_ONE


def _colliding_shift(basis: list[int], path_final) -> int | None:
    """The cheapest nonzero v in the span of `basis` with path_final(v) ==
    path_final(0) (queried first), or None. Raises SolverError when the span
    holds more than CANDIDATE_CAP nonzero vectors."""
    if (1 << len(basis)) - 1 > CANDIDATE_CAP:
        raise SolverError(
            f"{(1 << len(basis)) - 1} null-space candidates exceed the cap of "
            f"{CANDIDATE_CAP}; collect more rounds"
        )
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    base = path_final(0)
    return next((v for v in sorted(span - {0}) if path_final(v) == base), None)


def solve_search(
    oracle: ShufflingOracle,
    max_rounds: int | None,
    rng: np.random.Generator,
    ledger: DepthLedger | None = None,
) -> BitVector:
    """Recover the hidden shift of a Simon instance.

    Rounds accumulate until the sample matrix has rank n-1; the unique
    nonzero null vector is then confirmed against two classical path queries,
    and sampling resumes on a failed confirmation.
    """
    n = oracle.n
    if max_rounds is None:
        max_rounds = 4 * n + 16
    rows: list[int] = []
    while True:
        basis = null_space_basis(rows, n)
        if not basis:
            raise SolverError("sample matrix reached full rank; instance violates the promise")
        if len(basis) == 1 and _colliding_shift(basis, lambda x: oracle.query_path(x, ledger).final) is not None:
            return BitVector(basis[0], n)
        if len(rows) >= max_rounds:
            raise SolverError(f"rank deficiency persists after {max_rounds} rounds")
        rows.append(run_simon_round(oracle, rng, ledger).j.value)


def solve_decision(
    oracle: ShufflingOracle,
    rounds: int,
    rng: np.random.Generator,
    ledger: DepthLedger | None = None,
) -> InstanceKind:
    """Decide Simon versus one-to-one from `rounds` solver rounds."""
    rows = [run_simon_round(oracle, rng, ledger).j.value for _ in range(rounds)]
    return decide_from_samples(rows, oracle.n, lambda x: oracle.query_path(x, ledger).final)
