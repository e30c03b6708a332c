"""Depth and query accounting shared by the solver and the scheme harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class DepthViolation(Exception):
    """Raised when an adversary exceeds its depth or invocation budget; the
    violation is recorded on the ledger before this is raised."""

    def __init__(self, message: str, ledger: "DepthLedger") -> None:
        super().__init__(message)
        self.ledger = ledger

    def __reduce__(self):
        return type(self), (str(self), self.ledger)


@dataclass
class DepthLedger:
    """Counters for oracle layers, circuit invocations, and classical queries.

    One call that queries many levels in parallel counts as a single oracle
    layer; its entries may share inputs but write no register any entry
    reads. core_evaluations counts answers served from the core function on
    its defined domain, classically or from superposition support.
    """

    oracle_layers_current_circuit: int = 0
    oracle_layers_total: int = 0
    circuits_invoked: int = 0
    classical_queries: int = 0
    core_evaluations: int = 0
    violations: list[str] = field(default_factory=list)

    def record_oracle_layer(self) -> None:
        self.oracle_layers_current_circuit += 1
        self.oracle_layers_total += 1

    def record_circuit(self) -> None:
        self.circuits_invoked += 1
        self.oracle_layers_current_circuit = 0

    def record_classical(self, count: int = 1) -> None:
        self.classical_queries += count

    def record_core(self, count: int = 1) -> None:
        self.core_evaluations += count

    def record_violation(self, message: str) -> None:
        self.violations.append(message)

    def snapshot(self) -> "DepthLedger":
        return replace(self, violations=list(self.violations))
