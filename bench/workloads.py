"""The benchmark's four seeded workloads.

Each workload builds its inputs from the benchmark seed, drives shufflesim
only through module attributes (``simon.sample_simon(...)``, so a traced run
sees the wrappers), and returns one ``Item`` per unit of work: its latency,
whether its output checked out, and a fingerprint of everything the program
computed, which a traced pass must reproduce exactly.

Why each workload exists, which layers it loads and which it should leave
alone is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shufflesim import hiding, ledger, oracle, qsim, runner, schemes, simon, solver

NAMES = ("solve-lazy", "classical-n16", "adversary-grid", "hiding-lab")


@dataclass
class Item:
    latency_s: float
    ok: bool
    fingerprint: object
    notes: list[str] = field(default_factory=list)


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(workload), index]))


def _ledger_fingerprint(led) -> tuple[int, int, int, int]:
    return (led.oracle_layers_total, led.circuits_invoked, led.classical_queries, led.core_evaluations)


class Workload:
    name = ""
    trace_batches = 1

    def check_run(self, items: list[Item]) -> list[str]:
        """Checks over the whole run, beyond each item's own."""
        return []


class SolveLazy(Workload):
    """The 2d+1-layer solver end to end: sample, shuffle lazily, solve, verify."""

    name = "solve-lazy"
    trace_batches = 20

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n, self.d = (4, 1) if tiny else (10, 2)
        if tiny:
            self.trace_batches = 2

    def run_batch(self, k: int) -> list[Item]:
        rng = _rng(self.seed, self.name, k)
        start = time.perf_counter()
        inst = simon.sample_simon(self.n, rng)
        orc = oracle.sample_shuffling(inst, self.d, rng, backend="lazy")
        led = ledger.DepthLedger()
        found = solver.solve_search(orc, None, rng, led)
        verified = simon.verify_shift(inst, found.value)
        latency = time.perf_counter() - start
        notes = [] if verified else [f"item {k}: shift {found.value} does not verify"]
        if led.oracle_layers_total != (2 * self.d + 1) * led.circuits_invoked:
            notes.append(
                f"item {k}: {led.oracle_layers_total} layers over {led.circuits_invoked} "
                f"circuits, expected {2 * self.d + 1} each"
            )
        return [Item(latency, not notes, (inst.s, found.value, _ledger_fingerprint(led)), notes)]


class ClassicalN16(Workload):
    """Criterion 5's shape: q classical path queries against a lazy d=0 oracle."""

    name = "classical-n16"
    # enough trials that the rate check below has no false alarms: at the
    # true rate of about 0.076, 300 trials exceed 0.134 with p < 1e-4
    trace_batches = 300
    # criterion 5's acceptance bound on the collision rate at n=16, q=100
    max_rate = 0.134

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n, self.q = (12, 4) if tiny else (16, 100)
        if tiny:
            self.trace_batches = 3

    def run_batch(self, k: int) -> list[Item]:
        rng = _rng(self.seed, self.name, k)
        start = time.perf_counter()
        inst = simon.sample_simon(self.n, rng)
        orc = oracle.sample_shuffling(inst, 0, rng, backend="lazy")
        led = ledger.DepthLedger()
        guess = schemes.classical_collision_adversary(orc, self.q, rng, led)
        verified = guess is None or simon.verify_shift(inst, guess)
        latency = time.perf_counter() - start
        notes = [] if verified else [f"item {k}: collision guess {guess} does not verify"]
        return [Item(latency, verified, (guess, _ledger_fingerprint(led)), notes)]

    def check_run(self, items: list[Item]) -> list[str]:
        hits = sum(1 for it in items if it.fingerprint[0] is not None)
        rate = hits / len(items)
        if rate > self.max_rate:
            return [f"collision rate {rate:.3f} over {len(items)} trials exceeds {self.max_rate}"]
        return []


class AdversaryGrid(Workload):
    """The separation table: one `shufflesim sweep` per batch, one item per row."""

    name = "adversary-grid"
    trace_batches = 1
    solver_family = ("solver", "decision", "cq-solver", "qc-solver")

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.jobs = 2
        self.out = workdir / f"sweep-seed{seed}.json"
        n, d, trials = ("3", "0..1", "4") if tiny else ("3..5", "0..2", "20")
        self.argv = [
            "sweep", "--n", n, "--d", d,
            "--adversaries", "solver,decision,truncated,cq-solver,qc-solver,classical",
            "--backend", "materialized", "--trials", trials, "--timing", "--out", str(self.out),
        ]

    def run_batch(self, k: int) -> list[Item]:
        sweep_seed = int(np.random.SeedSequence([self.seed, NAMES.index(self.name), k]).generate_state(1)[0])
        argv = self.argv + ["--seed", str(sweep_seed), "--jobs", str(self.jobs)]
        code = runner.main(argv)
        if code != 0:
            raise RuntimeError(f"shufflesim {' '.join(argv)} exited with {code}")
        rows = json.loads(self.out.read_text(encoding="utf-8"))
        return [self._item(k, row) for row in rows]

    def _item(self, k: int, row: dict) -> Item:
        label = f"sweep {k} {row['adversary']} n={row['n']} d={row['d']}"
        d = row["d"]
        notes = []
        if row["adversary"] in self.solver_family:
            if row["success"] < 0.95:
                notes.append(f"{label}: success {row['success']} < 0.95")
            if row["oracle_layers_mean"] != 2 * d + 1:
                notes.append(f"{label}: {row['oracle_layers_mean']} layers, expected {2 * d + 1}")
        elif row["adversary"] == "truncated" and row["oracle_layers_mean"] != d:
            notes.append(f"{label}: truncated read {row['oracle_layers_mean']} layers, expected {d}")
        fingerprint = tuple(sorted((key, v) for key, v in row.items() if key != "seconds"))
        return Item(row["seconds"], not notes, fingerprint, notes)


class HidingLab(Workload):
    """One-way-to-hiding checks as in criteria 7/8, alternating two shapes."""

    name = "hiding-lab"
    trace_batches = 20
    l = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # (n, d, pairs, resamples). Pair counts differ so that both shapes
        # cost about the same per item; with equal counts the (3, 1) items
        # take twice as long and the median sits on the gap between them.
        shapes = [(2, 1, 3, 4), (2, 2, 3, 4)] if tiny else [(3, 1, 16, 40), (2, 2, 26, 40)]
        if tiny:
            self.trace_batches = 2
        self.shapes = []
        for n, d, pairs, resamples in shapes:
            bits = (d + 2) * n
            names = ["X"] + [f"A{i}" for i in range(d + 1)]
            widths = [bits] + [bits + 1] * d + [n + 1]
            layout = qsim.RegisterLayout(tuple(names), tuple(widths))
            state = qsim.init_uniform(layout, "X")
            spec = [(i, "X", f"A{i}") for i in range(d + 1)]
            self.shapes.append((n, d, pairs, resamples, state, spec))

    def run_batch(self, k: int) -> list[Item]:
        n, d, pairs, resamples, state, spec = self.shapes[k % len(self.shapes)]
        rng = _rng(self.seed, self.name, k)
        start = time.perf_counter()
        drawn = []
        for _ in range(pairs):
            orc = oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)
            drawn.append((orc, hiding.sample_hidden_sets(orc, rng)))
        hid = hiding.check_hiding_bound(state, drawn, self.l, spec)
        orc = oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)
        find = hiding.check_find_bound(state, orc, spec, self.l, rng, resamples=resamples)
        latency = time.perf_counter() - start
        notes = []
        if not hid.all_hold:
            notes.append(f"item {k} (n={n}, d={d}): hiding bound fails: {hid}")
        if not find.holds:
            notes.append(f"item {k} (n={n}, d={d}): find bound fails: {find}")
        return [Item(latency, not notes, (hid, find), notes)]


def make(name: str, seed: int, tiny: bool, workdir: Path):
    """One-time set-up of a workload; this is what setup_s times."""
    if name == "adversary-grid":
        return AdversaryGrid(seed, tiny, workdir)
    return {"solve-lazy": SolveLazy, "classical-n16": ClassicalN16, "hiding-lab": HidingLab}[name](seed, tiny)
