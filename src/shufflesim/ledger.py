"""Depth and query accounting shared by the solver and the scheme harnesses,
and the one place where a run's budget is enforced."""

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


@dataclass(frozen=True)
class SchemeBudget:
    """A run's caps, None = unlimited. depth: oracle layers per circuit; the
    circuit scheme (d-CQ) starts a circuit per invocation, while the
    persistent scheme (d-QC) is one circuit, so there it caps the whole
    computation. circuits: circuit invocations. classical_queries: the summed
    cost of classical point and path queries."""

    depth: int | None = None
    circuits: int | None = None
    classical_queries: int | None = None


@dataclass
class DepthLedger:
    """Counters for oracle layers, circuit invocations, and classical queries,
    charged against `budget`.

    One call that queries many levels in parallel counts as a single oracle
    layer; its entries may share inputs but write no register any entry
    reads. core_evaluations counts the distinct points of a classical query
    or superposed layer the core function answers on its domain. A layer,
    circuit or classical charge past its cap is recorded as a violation and
    raises DepthViolation, leaving the counter as it was; callers charge
    before the oracle answers, so a refused charge reveals nothing.
    """

    oracle_layers_current_circuit: int = 0
    oracle_layers_total: int = 0
    circuits_invoked: int = 0
    classical_queries: int = 0
    core_evaluations: int = 0
    violations: list[str] = field(default_factory=list)
    budget: SchemeBudget = SchemeBudget()

    def _charge(self, cap: int | None, total: int, message: str) -> None:
        if cap is not None and total > cap:
            self.record_violation(message.format(cap))
            raise DepthViolation(self.violations[-1], self)

    def record_oracle_layer(self) -> None:
        self._charge(
            self.budget.depth, self.oracle_layers_current_circuit + 1,
            "depth budget of {} layers per circuit exceeded",
        )
        self.oracle_layers_current_circuit += 1
        self.oracle_layers_total += 1

    def record_circuit(self) -> None:
        self._charge(self.budget.circuits, self.circuits_invoked + 1, "circuit budget of {} exceeded")
        self.circuits_invoked += 1
        self.oracle_layers_current_circuit = 0

    def record_classical(self, count: int = 1) -> None:
        self._charge(
            self.budget.classical_queries, self.classical_queries + count,
            "classical query budget of {} exceeded",
        )
        self.classical_queries += count

    def record_core(self, count: int = 1) -> None:
        self.core_evaluations += count

    def record_violation(self, message: str) -> None:
        self.violations.append(message)

    def snapshot(self) -> "DepthLedger":
        return replace(self, violations=list(self.violations))
