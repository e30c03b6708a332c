"""Benchmark harness for shufflesim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the working tree's ``src/shufflesim``, never an installed copy. With
``--trace 0`` it times the workload closed loop for S seconds (and at least
100 items, so the 90th percentile has ten samples beyond it) and reports the
end-to-end metrics. With ``--trace 1`` it runs a fixed, seed-determined set of
items untraced and then traced, checks that both give identical results, and
reports per-layer metrics from the spans. Either way every output is checked,
the last stdout line is one JSON object, and the exit code is non-zero if any
check failed. Full results, provenance and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
# A run keeps going past --seconds until it has this many items, and stops
# taking new batches after HARD_CAP_S whatever the count, to end within 180 s.
MIN_ITEMS = 100
HARD_CAP_S = 150.0
RATE_WINDOWS = 5

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simon.sample_simon.calls": "count",
    "simon.sample_simon.self_s": "s",
    "simon.sample_one_to_one.self_s": "s",
    "simon.verify_shift.self_s": "s",
    "oracle.sample_shuffling.materialized.self_s": "s",
    "oracle.sample_shuffling.lazy.self_s": "s",
    "oracle.values_at.calls": "count",
    "oracle.values_at.points": "count",
    "oracle.values_at.self_s": "s",
    "oracle.query_path.calls": "count",
    "oracle.query_path.self_s": "s",
    "oracle.query_point.calls": "count",
    "qsim.apply_oracle_xor.calls": "count",
    "qsim.apply_oracle_xor.support_in": "count",
    "qsim.apply_oracle_xor.self_s": "s",
    "qsim.hadamard_register.support_out": "count",
    "qsim.hadamard_register.self_s": "s",
    "qsim.measure_register.calls": "count",
    "qsim.measure_register.self_s": "s",
    "qsim.init_uniform.self_s": "s",
    "qsim.bures_distance.calls": "count",
    "qsim.bures_distance.self_s": "s",
    "gf2.null_space_basis.calls": "count",
    "gf2.null_space_basis.rows": "count",
    "gf2.null_space_basis.self_s": "s",
    "solver.run_simon_round.calls": "count",
    "solver.run_simon_round.self_s": "s",
    "solver.solve_search.self_s": "s",
    "solver.solve_decision.self_s": "s",
    "solver.rounds_per_solve": "rounds/solve",
    "schemes.run_d_cq.self_s": "s",
    "schemes.run_d_qc.self_s": "s",
    "schemes.classical_collision_adversary.self_s": "s",
    "schemes.truncated_quantum_adversary.self_s": "s",
    "ledger.oracle_layers": "count",
    "ledger.circuits": "count",
    "ledger.classical_queries": "count",
    "ledger.core_evaluations": "count",
    "ledger.DepthLedger.snapshot.self_s": "s",
    "hiding.sample_hidden_sets.calls": "count",
    "hiding.sample_hidden_sets.self_s": "s",
    "hiding.find_probability.self_s": "s",
    "hiding.check_hiding_bound.self_s": "s",
    "runner.run_cells.self_s": "s",
    "runner.parallel_speedup": "ratio",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke check")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def use_working_tree() -> None:
    """Put this checkout's src/ first on the path, for this process and for
    any worker it starts, and refuse to run without it."""
    if not (SRC / "shufflesim" / "__init__.py").is_file():
        sys.exit(f"no shufflesim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, shufflesim_module) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "shufflesim_file": shufflesim_module.__file__,
    }


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that start, import and set the workload
    up, then exit: setup_s is the median of these."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_batches(wl, batches, min_items=0, seconds=0.0, tracer=None):
    """Closed loop over batches 0, 1, ...: a fixed count if `batches` is an
    int, else until `seconds` have passed and `min_items` are done. An item
    that raises is counted as failed. Returns (items, wall seconds, marks),
    with one (end offset in seconds, item count) mark per batch."""
    from workloads import Item

    items, marks = [], []
    k = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if batches is not None:
            if k >= batches:
                break
        elif (elapsed >= seconds and len(items) >= min_items) or elapsed >= HARD_CAP_S:
            break
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            batch = wl.run_batch(k)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            batch = [Item(time.perf_counter() - t0, False, ("error", repr(exc)), [f"batch {k}: {exc!r}"])]
        items.extend(batch)
        marks.append((time.perf_counter() - start, len(batch)))
        k += 1
    return items, time.perf_counter() - start, marks


def windowed_rate(marks, windows: int = RATE_WINDOWS) -> float:
    """Median over consecutive windows of batches of items per second, so a
    burst of load from outside the process moves one window, not the rate."""
    rates = []
    prev = 0.0
    for group in np.array_split(np.arange(len(marks)), min(windows, len(marks))):
        end = marks[group[-1]][0]
        rates.append(sum(marks[i][1] for i in group) / (end - prev))
        prev = end
    return statistics.median(rates)


def end_to_end(args, wl, min_items: int):
    setup = time_setup(args)
    items, wall, marks = run_batches(wl, None, min_items=min_items, seconds=args.seconds)
    latencies_ms = [it.latency_s * 1e3 for it in items]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": windowed_rate(marks),
        "item_p50_ms": float(np.percentile(latencies_ms, 50)),
        "item_p90_ms": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": rss_kb / 1024,
    }
    samples = {"setup_s": len(setup), "items_per_s": len(items), "item_p50_ms": len(items),
               "item_p90_ms": len(items), "peak_rss_mb": 1}
    extra = {"wall_s": wall, "setup_samples_s": setup, "batch_marks": marks,
             "latencies_ms": latencies_ms}
    return items, values, END_TO_END, samples, extra, wl.check_run(items)


def traced(args, wl):
    from tracing import Tracer

    notes = []
    baseline = None
    jobs2_wall = None
    if wl.name == "adversary-grid":
        # spans recorded in forked workers are lost, so the traced grid runs
        # serially; the jobs=2 pass gives the parallel speed-up
        baseline, jobs2_wall, _ = run_batches(wl, wl.trace_batches)
        wl.jobs = 1
    else:
        # one untimed batch first, so first-call costs land in neither pass
        run_batches(wl, 1)
    untraced, untraced_wall, _ = run_batches(wl, wl.trace_batches)
    tracer = Tracer()
    tracer.install()
    try:
        aliases = tracer.unwrapped_aliases()
        traced_items, traced_wall, _ = run_batches(wl, wl.trace_batches, tracer=tracer)
    finally:
        tracer.uninstall()
    if aliases:
        notes.append(f"names still bound to unwrapped functions: {aliases}")
    prints = [it.fingerprint for it in untraced]
    if [it.fingerprint for it in traced_items] != prints:
        notes.append("traced results or ledger counts differ from the untraced pass")
    if baseline is not None and [it.fingerprint for it in baseline] != prints:
        notes.append("jobs=2 results differ from jobs=1 results")

    calls, self_s = tracer.layer_totals()
    values = {}
    for name in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "calls":
            values[name] = calls[base]
        elif leaf == "self_s":
            values[name] = self_s[base]
        elif base == "ledger":
            values[name] = tracer.ledger[leaf]
        else:
            values[name] = tracer.counts[name]
    values["solver.rounds_per_solve"] = tracer.rounds_per_solve()
    values["runner.parallel_speedup"] = untraced_wall / jobs2_wall if jobs2_wall else 0.0
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    items = untraced + traced_items + (baseline or [])
    samples = {"items_per_pass": len(untraced), "spans": len(tracer.spans)}
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "jobs2_wall_s": jobs2_wall, "spans_file": str(spans_path.relative_to(ROOT))}
    return items, values, PER_LAYER, samples, extra, notes + wl.check_run(untraced)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_working_tree()
    import shufflesim

    if Path(shufflesim.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported shufflesim from {shufflesim.__file__}, not from {SRC}")
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, args.seed, args.tiny, OUT)
    if args.setup_only:
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    prov = provenance(args, shufflesim)
    print(json.dumps({"provenance": prov}), flush=True)
    min_items = 2 if args.tiny else MIN_ITEMS
    if args.trace:
        items, values, units, samples, extra, notes = traced(args, wl)
    else:
        items, values, units, samples, extra, notes = end_to_end(args, wl, min_items)
    notes = [n for it in items for n in it.notes] + notes
    failed = sum(1 for it in items if not it.ok)
    correct = not failed and not notes
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for note in notes[:20]:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    for name, m in metrics.items():
        n = samples.get(name)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    print(f"{'failed_frac':48s} {failed / max(len(items), 1):.6g} fraction  (n={len(items)})")
    result = {"correct": correct, "attempted": len(items), "failed": failed, "metrics": metrics}
    record = dict(result, provenance=prov, samples=samples, extra=extra, check_failures=notes)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
