"""Command line experiment runner.

Subcommands sample fresh problem instances per trial, run a strategy against
them, and emit aggregate rows as JSON (canonical: sorted keys) or CSV with a
fixed header. Reruns with the same seed produce byte-identical files, serial
or parallel: every trial draws from its own seed stream keyed by
(seed, cell index, trial index), results aggregate in trial order, and the
seconds column stays 0.0 unless timing is requested.

Defaults can be overridden by environment variables SHUFFLESIM_SEED,
SHUFFLESIM_TRIALS, SHUFFLESIM_BACKEND, SHUFFLESIM_JOBS; command line flags
win over the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np

from .hiding import (
    check_find_bound,
    check_hiding_bound,
    estimate_membership,
    sample_hidden_sets,
)
from .ledger import DepthLedger, DepthViolation
from .oracle import BOT, OracleError, _draw_uniform, check_materialized_cap, sample_shuffling
from .qsim import init_uniform
from .schemes import (
    SchemeBudget,
    classical_collision_adversary,
    run_d_cq,
    run_d_qc,
    solver_cq_decision_adversary,
    solver_qc_decision_adversary,
    truncated_quantum_adversary,
    wilson_interval,
)
from .simon import sample_decision_instance, sample_one_to_one, sample_simon, verify_shift
from .solver import SolverError, solve_decision, solve_search, solver_layout


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    n: int
    d: int
    adversary: str
    trials: int
    success: float
    ci_lo: float
    ci_hi: float
    oracle_layers_mean: float
    classical_queries_mean: float
    seconds: float


CSV_HEADER = [f.name for f in fields(ResultRecord)]
BACKENDS = ("materialized", "lazy")


@dataclass(frozen=True)
class _Cell:
    experiment: str
    n: int
    d: int
    adversary: str
    backend: str
    value: int | None


# -- the adversary table; module level so worker processes can import it -----


@dataclass(frozen=True)
class _Adversary:
    """One adversary kind: instance sampler (n, rng), strategy (oracle, value,
    rng) -> (answer, ledger), success test (instance, answer), and its one
    parameter's name, default for (n, d), lower bound and grid-flag help.
    Rows look module-level names up when run, so rebinding one takes effect."""

    sample: Callable
    play: Callable
    wins: Callable
    param: str | None = None
    default: Callable = lambda n, d: None
    minimum: int = 0
    help: str | None = None


def _layers_per_circuit(ledger: DepthLedger) -> float:
    return ledger.oracle_layers_total / ledger.circuits_invoked if ledger.circuits_invoked else 0.0


def _in_d_cq(strategy, oracle, value, budget, rng):
    """(answer, ledger) of strategy(oracle, value, rng, ledger) run in the d-CQ harness under `budget`."""
    return run_d_cq(lambda caps, rng: strategy(oracle, value, rng, caps.ledger), oracle, budget, rng)


def _search(oracle, max_rounds, rng, ledger):
    try:
        return solve_search(oracle, max_rounds, rng, ledger).value
    except (SolverError, OracleError):
        return None


def _violate(oracle, value, rng):
    # deliberately requests 2d+1 layers against a 2d budget; never returns
    d = oracle.d
    budget = SchemeBudget(depth=2 * d, circuits=1)
    run_d_cq(solver_cq_decision_adversary(oracle.n, d, 1), oracle, budget, rng)
    raise RuntimeError("depth violation was not raised")


def _simon(n, rng):
    return sample_simon(n, rng)


def _decision(n, rng):
    return sample_decision_instance(n, rng)


def _shift_found(instance, shift) -> bool:
    return shift is not None and verify_shift(instance, shift)


def _kind_found(instance, guess) -> bool:
    return guess is instance.kind


_ROUNDS = dict(
    param="rounds", default=lambda n, d: n + 10, minimum=1, help="sample rounds (decision strategies)"
)

_ADVERSARIES = {
    # the solver's round cap is solve's --max-rounds; grids run it uncapped
    "solver": _Adversary(
        _simon, lambda o, cap, rng: _in_d_cq(_search, o, cap, SchemeBudget(2 * o.d + 1, cap), rng), _shift_found,
        param="max_rounds",
    ),
    "decision": _Adversary(
        _decision, lambda o, rounds, rng: _in_d_cq(solve_decision, o, rounds, SchemeBudget(2 * o.d + 1, rounds), rng),
        _kind_found, **_ROUNDS,
    ),
    "classical": _Adversary(
        _simon, lambda o, q, rng: _in_d_cq(classical_collision_adversary, o, q, SchemeBudget(0, 0, q), rng),
        _shift_found, param="q", default=lambda n, d: 16, help="classical path-query budget",
    ),
    "truncated": _Adversary(
        _decision, lambda o, budget, rng: truncated_quantum_adversary(o, budget, rng), _kind_found,
        param="budget", default=lambda n, d: d, help="oracle-layer budget (truncated)",
    ),
    "cq-solver": _Adversary(
        _decision,
        lambda o, rounds, rng: run_d_cq(
            solver_cq_decision_adversary(o.n, o.d, rounds), o, SchemeBudget(2 * o.d + 1, rounds), rng
        ),
        _kind_found, **_ROUNDS,
    ),
    "qc-solver": _Adversary(
        _decision,
        lambda o, rounds, rng: run_d_qc(
            solver_qc_decision_adversary(o.n, o.d, rounds), o, SchemeBudget(depth=2 * o.d + 1), rng
        ),
        _kind_found, **_ROUNDS,
    ),
    "violating": _Adversary(_decision, _violate, _kind_found),
}


def _run_trial(packed):
    kind, n, d, backend, value, entropy = packed
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    row = _ADVERSARIES[kind]
    instance = row.sample(n, rng)
    oracle = sample_shuffling(instance, d, rng, backend=backend)
    answer, ledger = row.play(oracle, value, rng)
    return row.wins(instance, answer), _layers_per_circuit(ledger), ledger.classical_queries


def run_cells(cells, trials: int, seed: int, jobs: int = 1, timing: bool = False) -> list[ResultRecord]:
    records = []
    # one pool for the whole run, but mapped cell by cell, so a row's seconds
    # times that cell alone; a forked pool starts all its workers at once, so
    # it gets no more than one per trial
    jobs = min(jobs, trials)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for cell_idx, cell in enumerate(cells):
            start = time.perf_counter()
            packed = [
                (cell.adversary, cell.n, cell.d, cell.backend, cell.value, (seed, cell_idx, t))
                for t in range(trials)
            ]
            if pool is not None:
                chunk = max(1, trials // (jobs * 4))
                results = list(pool.map(_run_trial, packed, chunksize=chunk))
            else:
                results = [_run_trial(p) for p in packed]
            successes = sum(1 for ok, _, _ in results if ok)
            lo, hi = wilson_interval(successes, trials)
            records.append(
                ResultRecord(
                    experiment=cell.experiment,
                    n=cell.n,
                    d=cell.d,
                    adversary=cell.adversary,
                    trials=trials,
                    success=successes / trials,
                    ci_lo=lo,
                    ci_hi=hi,
                    oracle_layers_mean=float(np.mean([r[1] for r in results])),
                    classical_queries_mean=float(np.mean([r[2] for r in results])),
                    seconds=round(time.perf_counter() - start, 3) if timing else 0.0,
                )
            )
    return records


# -- output ------------------------------------------------------------------


def records_to_json(records: list[ResultRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2, sort_keys=True) + "\n"


def records_to_csv(records: list[ResultRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([getattr(r, field) for field in CSV_HEADER])
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_records(records, args) -> None:
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(text, args.out)


# -- argument plumbing -------------------------------------------------------


def _env(name: str, cast, default):
    raw = os.environ.get(f"SHUFFLESIM_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise SystemExit(f"SHUFFLESIM_{name}={raw!r}: {exc}")


def parse_range(text: str) -> list[int]:
    """Grid axis syntax: '3', '2,5,7', or '2..6' (inclusive)."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, ranged: bool, flags=("trials", "jobs", "timing", "format")) -> None:
    kind = parse_range if ranged else int
    hint = "single value or range like 2..6 or 2,4" if ranged else "single value"
    p.add_argument("--n", type=kind, default=None, help=f"problem size ({hint})")
    p.add_argument("--d", type=kind, default=None, help=f"shuffling depth ({hint})")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--backend", choices=BACKENDS, default=None)
    p.add_argument("--out", default=None, help="output path, '-' or omitted for stdout")
    optional = dict(
        trials=dict(type=int, default=None, help="trials per grid cell"),
        jobs=dict(type=int, default=None, help="worker processes (1 = serial)"),
        timing=dict(action="store_true", help="record wall time (breaks byte-identical reruns)"),
        format=dict(choices=["json", "csv"], default="json"),
    )
    for flag in flags:  # only the flags the command reads, so argparse refuses the rest
        p.add_argument(f"--{flag}", **optional[flag])


def _resolve_common(args, default_trials: int | None, n: int, d: int) -> None:
    """Fill in defaults (environment first) and make --n and --d lists, then refuse
    any grid with a cell no trial can run."""
    args.seed = args.seed if args.seed is not None else _env("SEED", int, 0)
    args.backend = args.backend if args.backend is not None else _env("BACKEND", str, "materialized")
    if args.backend not in BACKENDS:
        raise SystemExit(f"SHUFFLESIM_BACKEND={args.backend!r}: choose from {', '.join(BACKENDS)}")
    if args.seed < 0:
        raise SystemExit("--seed must be at least 0")
    for name, default in (("trials", default_trials), ("jobs", 1)):
        if name in vars(args):
            if getattr(args, name) is None:
                setattr(args, name, _env(name.upper(), int, default))
            if getattr(args, name) < 1:
                raise SystemExit(f"--{name} must be at least 1")
    args.n, args.d = _as_list(args.n, n), _as_list(args.d, d)
    if min(args.n) < 1:
        raise SystemExit("--n must be at least 1")
    if min(args.d) < 0:
        raise SystemExit("--d must be at least 0")
    if args.backend == "materialized":
        try:
            check_materialized_cap((max(args.d) + 2) * max(args.n))
        except OracleError as exc:
            raise SystemExit(f"--n {max(args.n)} --d {max(args.d)}: {exc}") from None


def _as_list(value, fallback: int) -> list[int]:
    if value is None:
        return [fallback]
    return value if isinstance(value, list) else [value]


# -- subcommands -------------------------------------------------------------


def _cell(experiment: str, kind: str, n: int, d: int, args) -> _Cell:
    row = _ADVERSARIES.get(kind)
    if row is None:
        raise SystemExit(f"unknown adversary kind {kind!r}")
    value = getattr(args, row.param, None) if row.param else None
    if value is None:
        value = row.default(n, d)
    elif value < row.minimum:
        raise SystemExit(f"--{row.param.replace('_', '-')} must be at least {row.minimum}")
    return _Cell(experiment, n, d, kind, args.backend, value)


def _cmd_grid(args) -> None:
    """solve, sweep and adversary: every listed kind on every (n, d) cell."""
    _resolve_common(args, default_trials=args.default_trials, n=3, d=1)
    kinds = [k.strip() for k in args.adversaries.split(",") if k.strip()]
    if not kinds:
        raise SystemExit("--adversaries names no adversary kind")
    cells = [_cell(args.experiment, kind, n, d, args) for n in args.n for d in args.d for kind in kinds]
    _emit_records(run_cells(cells, args.trials, args.seed, args.jobs, args.timing), args)


def _cmd_o2h(args) -> None:
    if args.backend == "lazy":
        raise SystemExit("o2h samples hidden sets, which needs the materialized backend; drop --backend lazy")
    args.backend = "materialized"
    _resolve_common(args, default_trials=2000, n=2, d=2)
    n, d = args.n[0], args.d[0]
    l = args.l
    if d < 1:  # depth 0 has no hidden round
        raise SystemExit("o2h needs --d at least 1")
    if not 1 <= l <= d:
        raise SystemExit(f"--l must be in 1..{d}")
    for flag in ("samples", "resamples"):
        if getattr(args, flag) < 1:
            raise SystemExit(f"--{flag} must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))

    def sampler(r):
        return sample_shuffling(sample_simon(n, r), d, r, backend="materialized")

    try:
        membership = [asdict(estimate_membership(sampler, j, l, args.trials, rng)) for j in range(l, d + 1)]
    except ValueError as exc:  # no draw met the membership conditioning event
        raise SystemExit(f"aborted: {exc}") from None

    layout = solver_layout(n, d)
    state = init_uniform(layout, "Q")
    spec = ((l, "Q", f"N{l}"),)
    # drawn as the check reaches them, so one oracle is held at a time
    oracles = (sampler(rng) for _ in range(args.samples))
    hiding = check_hiding_bound(state, ((o, sample_hidden_sets(o, rng)) for o in oracles), l, spec)
    find = check_find_bound(state, sampler(rng), spec, l, rng, resamples=args.resamples)

    report = {
        "n": n,
        "d": d,
        "l": l,
        "membership": membership,
        "hiding": {
            "lhs": hiding.lhs_bures,
            "rhs": hiding.rhs,
            "per_sample_pass": hiding.per_sample_holds,
            "samples": hiding.samples,
            "max_per_sample_slack": hiding.max_per_sample_slack,
            "mean_p_find": hiding.mean_p_find,
            "pooled_holds": hiding.pooled_holds,
        },
        "find_bound": asdict(find),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def _cmd_sample_oracle(args) -> None:
    _resolve_common(args, default_trials=None, n=3, d=1)
    if args.paths < 0:
        raise SystemExit("--paths must be at least 0")
    n, d = args.n[0], args.d[0]
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))
    if args.kind == "simon":
        instance = sample_simon(n, rng)
    elif args.kind == "one-to-one":
        instance = sample_one_to_one(n, rng)
    else:
        instance = sample_decision_instance(n, rng)
    oracle = sample_shuffling(instance, d, rng, backend=args.backend)
    paths = [list(oracle.query_path(x).points) for x in range(min(args.paths, 1 << n))]
    probe_x = _draw_uniform(rng, oracle.domain_size)
    probe = oracle.query_point(d, probe_x)
    core_probe = {"x": probe_x, "answer": "bot" if probe is BOT else int(probe)}
    # the classical queries in order: each path's d+1 steps, then the probe
    transcript = [{"level": l, "input": p[l], "answer": p[l + 1]} for p in paths for l in range(d + 1)]
    transcript.append({"level": d, "input": probe_x, "answer": core_probe["answer"]})
    report = {
        "instance": instance.to_json_dict(),
        "d": d,
        "backend": args.backend,
        "paths": paths,
        "core_probe": core_probe,
        "transcript": transcript,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflesim",
        description="Experiments on depth-d shufflings of Simon instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="search-success statistics for the full solver")
    _add_common(p, ranged=False)
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(fn=_cmd_grid, experiment="solve", adversaries="solver", default_trials=200)

    grid_flags = {row.param: row.help for row in _ADVERSARIES.values() if row.help}
    for name, help_text, trials in (
        ("sweep", "separation table over an n x d grid", 100),
        ("adversary", "one adversary kind over an n x d grid", 200),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, ranged=True)
        if name == "sweep":
            p.add_argument(
                "--adversaries", default="solver,truncated", help=f"comma list of {','.join(_ADVERSARIES)}"
            )
        else:
            p.add_argument("--kind", dest="adversaries", required=True, choices=list(_ADVERSARIES))
        for param, flag_help in grid_flags.items():
            p.add_argument(f"--{param}", type=int, default=None, help=flag_help)
        p.set_defaults(fn=_cmd_grid, experiment=name, default_trials=trials)

    p = sub.add_parser("o2h", help="hiding, find-probability, and membership reports")
    _add_common(p, ranged=False, flags=("trials",))
    p.add_argument("--l", type=int, default=1, help="hiding round index")
    p.add_argument("--samples", type=int, default=40, help="oracle draws for the pooled bound")
    p.add_argument("--resamples", type=int, default=200, help="hidden-set redraws for the find bound")
    p.set_defaults(fn=_cmd_o2h)

    p = sub.add_parser("sample-oracle", help="dump one sampled oracle and its classical queries, in order, as JSON")
    _add_common(p, ranged=False, flags=())
    p.add_argument("--kind", choices=["simon", "one-to-one", "random"], default="simon")
    p.add_argument("--paths", type=int, default=4, help="path queries to include")
    p.set_defaults(fn=_cmd_sample_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except DepthViolation as exc:
        print(
            f"aborted: {exc} ({len(exc.ledger.violations)} violation(s) recorded)",
            file=sys.stderr,
        )
        return 3
    except SolverError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
