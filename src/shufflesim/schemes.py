"""Depth-budgeted computation schemes and reference adversaries.

Two harnesses own the state, the rng, and the depth ledger, which enforces
their SchemeBudget; adversaries only see capability objects. The
circuit-per-invocation harness (classical control between full measurements)
caps layers per circuit and circuit invocations. The persistent-state harness
is one circuit with partial measurement after every layer, so its depth cap
bounds total oracle layers; its declared program fixes which registers may
interact. Circuits are restricted to uniform initialization, Hadamard layers,
parallel oracle layers, and measurement, which covers every strategy simulated
here while keeping states sparse. Both run on qsim's circuit Interpreter.
"""

from __future__ import annotations

import numpy as np

from . import qsim
from .ledger import DepthLedger, SchemeBudget
from .oracle import OracleError, ShufflingOracle, _draw_uniform
from .qsim import CircuitProgram
from .simon import InstanceKind
from .solver import SolverError, decide_from_samples, round_program, solve_decision, solver_layout

TRUNCATED_PROBES = 8
# the typed refusals: a strategy that cannot answer exactly raises one of these;
# a broken internal invariant raises AssertionError instead and ends the run
REFUSALS = (SolverError, OracleError, qsim.SimulatorError)


class _CapsBase:
    def __init__(self, oracle: ShufflingOracle, budget: SchemeBudget, rng: np.random.Generator):
        self._oracle = oracle
        self._rng = rng
        self.ledger = DepthLedger(budget=budget)
        self.n, self.d = oracle.n, oracle.d

    def query(self, level: int, x: int):
        return self._oracle.query_point(level, x, self.ledger)

    def path(self, x0: int):
        return self._oracle.query_path(x0, self.ledger)


class CircuitSchemeCaps(_CapsBase):
    """Capabilities handed to a circuit-per-invocation adversary."""

    def run_circuit(self, program: CircuitProgram) -> dict[str, int]:
        """Run one circuit, then measure in layout order each register it left
        unmeasured since its last write (CircuitProgram.measure_all); the
        solver round's N_d, measured mid-circuit, keeps that outcome."""
        return qsim.run_program(program.measure_all(), self._oracle, self._rng, self.ledger).outcomes


class PersistentSchemeCaps(_CapsBase):
    """Capabilities for the persistent-state scheme: one quantum computation,
    partial measurement allowed after every layer, total depth capped."""

    def __init__(self, oracle, budget, rng):
        super().__init__(oracle, budget, rng)
        self._machine: qsim.Interpreter | None = None
        self.ledger.record_circuit()

    def declare(self, program: CircuitProgram) -> None:
        """Fix the computation's registers: the program's layout, grouped by
        the registers its oracle ops link. Its ops are not run; an oracle op
        run later may only couple registers the program links."""
        if self._machine is not None:
            raise qsim.SimulatorError("program already declared")
        self._machine = qsim.Interpreter(program, self._oracle, self._rng, self.ledger)

    def run(self, ops) -> dict[str, int]:
        """Run program ops on the declared state; returns a copy of every
        outcome so far. Call it again for adaptive control between steps."""
        if self._machine is None:
            raise qsim.SimulatorError("declare a program before quantum ops")
        return dict(self._machine.run(ops))


def run_d_cq(adversary, oracle: ShufflingOracle, budget: SchemeBudget, rng: np.random.Generator):
    """Run a circuit-per-invocation adversary; returns (output, ledger).
    Budget violations abort with DepthViolation carrying the ledger."""
    return _play(adversary, CircuitSchemeCaps(oracle, budget, rng), rng)


def run_d_qc(adversary, oracle: ShufflingOracle, budget: SchemeBudget, rng: np.random.Generator):
    """Run a persistent-state adversary; returns (output, ledger)."""
    return _play(adversary, PersistentSchemeCaps(oracle, budget, rng), rng)


def _play(adversary, caps: _CapsBase, rng: np.random.Generator):
    """(output, ledger); a typed refusal (REFUSALS) leaves carrying the ledger
    it was charged to as `ledger`, as a DepthViolation does."""
    try:
        return adversary(caps, rng), caps.ledger
    except REFUSALS as exc:
        exc.ledger = caps.ledger
        raise


# -- reference adversaries -------------------------------------------------


def _collision_probe(path_final, n: int, q: int, rng: np.random.Generator, seen: dict[int, int]) -> int | None:
    """Path-probe min(q, 2^n) distinct random inputs; the xor of the first two
    inputs with equal finals, counting `seen` (final -> input), else None."""
    for x in map(int, rng.choice(1 << n, size=min(q, 1 << n), replace=False)):
        final = path_final(x)
        if seen.get(final, x) != x:
            return seen[final] ^ x
        seen[final] = x
    return None


def classical_collision_adversary(
    oracle: ShufflingOracle,
    q: int,
    rng: np.random.Generator,
    ledger: DepthLedger | None = None,
) -> int | None:
    """Search adversary with classical path queries only: probes q distinct
    inputs and returns the xor of any colliding pair, else None."""
    return _collision_probe(lambda x: oracle.query_path(x, ledger).final, oracle.n, q, rng, {})


def truncated_quantum_adversary(
    oracle: ShufflingOracle, budget_depth: int, rng: np.random.Generator
) -> tuple[InstanceKind, DepthLedger]:
    """Decision adversary limited to budget_depth oracle layers.

    Truncated to the oracle depth or less, its chase stops at the last
    injection layer: every observed value sits above an injective level, no
    collision can exist, the TRUNCATED_PROBES classical point probes stay
    below the core, and the guess degrades to a fair coin. One extra layer
    lets the chase read the core once at a measured input Q; TRUNCATED_PROBES
    path probes then decide Simon on any collision with each other or with Q.
    A 2d+1 budget runs the full decision procedure. Every budget runs in
    the d-CQ harness, whose ledger refuses a layer, circuit or probe past it.
    """
    n, d = oracle.n, oracle.d
    if budget_depth >= 2 * d + 1:
        solve = lambda caps, rng: solve_decision(oracle, n + 10, rng, caps.ledger)
        return run_d_cq(solve, oracle, SchemeBudget(depth=2 * d + 1, circuits=n + 10), rng)
    prefix = CircuitProgram(solver_layout(n, d), round_program(n, d).ops[: 1 + min(budget_depth, d + 1)])

    def adversary(caps: CircuitSchemeCaps, rng: np.random.Generator) -> InstanceKind:
        observed = caps.run_circuit(prefix)
        if budget_depth <= d:
            for k in range(TRUNCATED_PROBES if d else 0):
                caps.query(k % d, _draw_uniform(rng, oracle.domain_size))
            return InstanceKind.SIMON if rng.integers(2) == 0 else InstanceKind.ONE_TO_ONE
        seen = {oracle.decode_answer(d, observed[f"N{d}"]): observed["Q"]}
        hit = _collision_probe(lambda x: caps.path(x).final, n, TRUNCATED_PROBES, rng, seen)
        return InstanceKind.ONE_TO_ONE if hit is None else InstanceKind.SIMON

    return run_d_cq(adversary, oracle, SchemeBudget(budget_depth, 1, TRUNCATED_PROBES), rng)


def _banked(program: CircuitProgram, banks: int) -> CircuitProgram:
    """`banks` copies of a program on disjoint registers (suffix _b) run in
    lockstep: each oracle op becomes one parallel layer over every copy."""
    layout = program.layout
    names = tuple(f"{name}_{b}" for b in range(banks) for name in layout.names)
    ops: list[tuple] = []
    for kind, arg in program.ops:
        if kind == "oracle":
            spec = tuple((lvl, f"{i}_{b}", f"{t}_{b}") for b in range(banks) for lvl, i, t in arg)
            ops.append((kind, spec))
        else:
            ops.extend((kind, f"{arg}_{b}") for b in range(banks))
    return CircuitProgram(qsim.RegisterLayout(names, layout.widths * banks), tuple(ops))


def solver_cq_decision_adversary(n: int, d: int, rounds: int):
    """The solver phrased as a circuit-scheme adversary: `rounds` runs of the
    solver's round program, each one circuit of depth 2d+1 that measures the
    core register mid-circuit, then classical elimination and path
    confirmation."""

    program = round_program(n, d)

    def adversary(caps: CircuitSchemeCaps, rng: np.random.Generator) -> InstanceKind:
        rows = [caps.run_circuit(program)["Q"] for _ in range(rounds)]
        return decide_from_samples(rows, n, lambda x: caps.path(x).final)

    return adversary


def solver_qc_decision_adversary(n: int, d: int, rounds: int):
    """The solver phrased as a persistent-scheme adversary: `rounds` banks
    advance through the same 2d+1 oracle layers in parallel, each layer one
    parallel query over all banks, with the core registers measured mid-run."""

    program = _banked(round_program(n, d), rounds)

    def adversary(caps: PersistentSchemeCaps, rng: np.random.Generator) -> InstanceKind:
        caps.declare(program)
        outcomes = caps.run(program.ops)
        rows = [outcomes[f"Q_{b}"] for b in range(rounds)]
        return decide_from_samples(rows, n, lambda x: caps.path(x).final)

    return adversary


# -- success estimation ----------------------------------------------------


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96  # 95% two-sided
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
