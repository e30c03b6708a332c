"""Every function, class and method in src/ is used by src/ or bench/, so
code that only tests call lives in tests/; no src statement assigns another
object's private attribute; no src statement rewinds a generator or replaces
the lazy oracle's links; the dense test reference reads no private qsim
name; and the names bench/ binds to by string still exist."""

import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

from conftest import make_rng
from shufflesim import oracle, runner, simon, solver
from shufflesim.ledger import DepthLedger

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "shufflesim").glob("*.py"))

ALLOWED = {
    "gf2.dot": "tests/test_acceptance.py checks sampled j against the shift with it",
    "RegisterLayout.total_width": "tests/test_acceptance.py reads the solver layout's width",
}


def _definitions():
    for path in SRC:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references() -> set[str]:
    # identifier strings count: the interpreter dispatches ops by name
    names = set()
    for path in SRC + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def test_no_src_name_is_called_only_by_tests():
    used = _references()
    unused = {key for key, name in _definitions() if name not in used}
    assert unused == set(ALLOWED)


def test_no_src_statement_assigns_another_objects_private_attribute():
    # an object's private state is set only through its own methods
    found = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a stored attribute is the target of an assignment
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and re.match(r"_(?!_\w+__$)", node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_lazy_record_only_grows():
    # a refused layer draws nothing, so no src statement rewinds a generator,
    # and only IncrementalInjection writes its links, adding them one by one
    rewinds, relinks = [], []
    for path in SRC:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                # an attribute, or an item of one, that a statement stores or deletes
                if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                    continue
                target = node.value if isinstance(node, ast.Subscript) else node
                if not isinstance(target, ast.Attribute):
                    continue
                owner = getattr(target.value, "attr", None)
                if target.attr == "state" and owner == "bit_generator":
                    rewinds.append(f"{path.name}:{node.lineno}")
                if target.attr in ("fwd", "rev") and getattr(top, "name", None) != "IncrementalInjection":
                    relinks.append(f"{path.name}:{node.lineno}")
    assert rewinds == []
    assert relinks == []


def test_dense_reference_reads_no_private_qsim_name():
    # a reference built from the code it checks cannot catch that code's faults
    tree = ast.parse((ROOT / "tests" / "dense_reference.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "qsim"
            and node.attr.startswith("_"))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qsim")
            and any(alias.name.startswith("_") for alias in node.names))
    ]
    assert found == []


def test_bench_tracer_still_binds(monkeypatch):
    # the tracer reads null_space_basis's `matrix` argument by name and
    # looks DepthLedger.snapshot up in the class dict
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_aliases() == []
        rng = make_rng("tracer", 3, 1)
        solver.solve_decision(oracle.sample_shuffling(simon.sample_simon(3, rng), 1, rng), 5, rng)
        DepthLedger().snapshot()
    finally:
        tracer.uninstall()
    assert tracer.counts["gf2.null_space_basis.rows"] == 5
    assert tracer.layer_totals()[0]["ledger.DepthLedger.snapshot"] == 1


def test_bench_tracer_sees_the_strategies_grid_rows_run(monkeypatch):
    # rows look strategies up when they run, so the tracer's rebinding reaches
    # them; a row that bound its strategy at import would record no span
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    kinds = ("solver", "decision", "classical")
    cells = [
        runner._Cell("sweep", 3, 1, kind, "materialized", runner._ADVERSARIES[kind].default(3, 1)) for kind in kinds
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_cells(cells, trials=3, seed=0)
    finally:
        tracer.uninstall()
    calls = tracer.layer_totals()[0]
    for name in ("solver.solve_search", "solver.solve_decision", "schemes.classical_collision_adversary"):
        assert calls[name] == 3, name


def _calls_by_scope(callee: str) -> list[str]:
    """'module.Class.function' of the innermost definition around each src call of `callee`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if callee in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append(scope)
            visit(child, f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope)

    for path in SRC:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_harness_and_the_bare_round_build_a_ledger():
    # a strategy's budget is enforced by the ledger its harness builds; a
    # lone run_simon_round, called without one, counts its layers in its own
    assert sorted(_calls_by_scope("DepthLedger")) == ["schemes._CapsBase.__init__", "solver.run_simon_round"]


# per-layer metrics the bench computes from spans rather than reads from one
DERIVED = {"solver.rounds_per_solve", "runner.parallel_speedup", "trace.overhead_frac"}


def test_bench_per_layer_names_resolve(monkeypatch):
    # a renamed function or ledger field would silently read 0 in the bench
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    fields = {f.name for f in dataclasses.fields(DepthLedger)}
    rows = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for name in (row["name"] for row in rows if row["name"] not in DERIVED):
        module, _, rest = name.partition(".")
        if module == "ledger" and "." not in rest:
            assert tracing.LEDGER_FIELDS.get(rest) in fields, name
            continue
        span = name.rpartition(".")[0]  # drop .calls, .self_s or the counter
        span = span.removesuffix(".materialized").removesuffix(".lazy")
        if span in tracing.METHODS.values():
            continue
        attr = span.partition(".")[2]
        fn = getattr(importlib.import_module(f"shufflesim.{module}"), attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"shufflesim.{module}", name
        assert not attr.startswith("_"), name
