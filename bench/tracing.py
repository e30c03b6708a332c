"""Span tracer that wraps shufflesim's public API from outside the package.

Every public function of every shufflesim module is replaced, in every module
namespace that binds it (``from .x import f`` makes a second binding), by a
wrapper that only times and counts: it does not touch arguments, results or
any random generator. A few methods are wrapped on their class. Spans stay in
memory as (name, start_ns, end_ns, parent, item, ok) and are written out by
the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from shufflesim.ledger import DepthLedger
from shufflesim.oracle import LazyShufflingOracle

MODULES = ("gf2", "hiding", "ledger", "oracle", "qsim", "schemes", "simon", "solver", "runner")

# bures_distance is sqrt(2 - 2F) around fidelity; wrapping fidelity as well
# would leave the Bures solve in fidelity's self time and none in
# bures_distance's, which is the layer the benchmark reports.
UNWRAPPED = {"qsim.fidelity"}

METHODS = {
    ("oracle", "ShufflingOracle", "values_at"): "oracle.values_at",
    ("oracle", "ShufflingOracle", "query_path"): "oracle.query_path",
    ("oracle", "ShufflingOracle", "query_point"): "oracle.query_point",
    ("ledger", "DepthLedger", "snapshot"): "ledger.DepthLedger.snapshot",
}

# Calls that own a whole strategy run; the ledger they fill is counted once,
# at the outermost such call, so nested strategies are not counted twice.
STRATEGIES = {
    "solver.solve_search",
    "solver.solve_decision",
    "schemes.classical_collision_adversary",
    "schemes.truncated_quantum_adversary",
    "schemes.run_d_cq",
    "schemes.run_d_qc",
}

LEDGER_FIELDS = {
    "oracle_layers": "oracle_layers_total",
    "circuits": "circuits_invoked",
    "classical_queries": "classical_queries",
    "core_evaluations": "core_evaluations",
}

NAME, START, END, PARENT, ITEM, OK = range(6)


def _ledger_counts(led) -> Counter:
    if not isinstance(led, DepthLedger):
        return Counter()
    return Counter({k: getattr(led, f) for k, f in LEDGER_FIELDS.items()})


class Tracer:
    """Installs the wrappers, records spans and counts, and aggregates them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ledger: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._strategy_depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def _hooks(self):
        """Counters recorded at a layer boundary, from its arguments or result."""
        c = self.counts
        return {
            "oracle.values_at": lambda b, r: c.update(
                {"oracle.values_at.points": len(b.arguments["xs"])}
            ),
            "qsim.apply_oracle_xor": lambda b, r: c.update(
                {"qsim.apply_oracle_xor.support_in": b.arguments["state"].support_size}
            ),
            "qsim.hadamard_register": lambda b, r: c.update(
                {"qsim.hadamard_register.support_out": r.support_size}
            ),
            "gf2.null_space_basis": lambda b, r: c.update(
                {"gf2.null_space_basis.rows": len(b.arguments["matrix"])}
            ),
        }

    def install(self) -> None:
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"shufflesim.{mod_name}")
            for attr, obj in vars(module).items():
                name = f"{mod_name}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
                self._originals[id(obj)] = obj
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and self._is_original(obj):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for (mod_name, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"shufflesim.{mod_name}"), cls_name)
            original = vars(cls)[meth]
            self._originals[id(original)] = original
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _is_original(self, obj) -> bool:
        return self._originals.get(id(obj), self) is obj

    def unwrapped_aliases(self) -> list[str]:
        """Names in any shufflesim module or class that still bind an
        original (unwrapped) function after install()."""
        found = []
        for module in self._modules():
            for attr, obj in vars(module).items():
                if self._is_original(obj):
                    found.append(f"{module.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__.startswith("shufflesim"):
                    for meth, fn in vars(obj).items():
                        if self._is_original(fn):
                            found.append(f"{module.__name__}.{attr}.{meth}")
        return sorted(set(found))

    @staticmethod
    def _modules():
        """Every loaded shufflesim module, the package itself included."""
        return [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "shufflesim"]

    def _wrap(self, name: str, fn, hook):
        tracer = self
        sig = inspect.signature(fn)
        strategy = name in STRATEGIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if (hook or strategy) else None
            outermost = strategy and tracer._strategy_depth == 0
            if outermost:
                led_arg = bound.arguments.get("ledger")
                before = _ledger_counts(led_arg)
            tracer._strategy_depth += strategy
            span = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1, tracer.item, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._strategy_depth -= strategy
                if outermost:
                    returned = result[1] if isinstance(result, tuple) and len(result) == 2 else None
                    if isinstance(returned, DepthLedger):
                        tracer.ledger.update(_ledger_counts(returned))
                    else:
                        after = _ledger_counts(led_arg)
                        after.subtract(before)
                        tracer.ledger.update(after)
                if span[OK]:
                    if name == "oracle.sample_shuffling":
                        lazy = isinstance(result, LazyShufflingOracle)
                        span[NAME] = f"{name}.{'lazy' if lazy else 'materialized'}"
                    elif hook is not None:
                        hook(bound, result)

        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Per span name: (calls, self seconds). Self time is the span's
        duration minus the durations of the wrapped spans nested directly in
        it."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        calls, self_s = Counter(), Counter()
        for s, child in zip(self.spans, child_ns):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += (s[END] - s[START] - child) / 1e9
        return calls, self_s

    def rounds_per_solve(self) -> float:
        """Solver rounds run inside solve_search per successful solve_search."""
        rounds = 0
        for s in self.spans:
            if s[NAME] != "solver.run_simon_round":
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != "solver.solve_search":
                p = self.spans[p][PARENT]
            rounds += p >= 0
        solves = sum(1 for s in self.spans if s[NAME] == "solver.solve_search" and s[OK])
        return rounds / solves if solves else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                         "parent": s[PARENT], "item": s[ITEM], "ok": s[OK]}
                    )
                    + "\n"
                )
