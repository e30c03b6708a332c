"""Acceptance sweep: every test prints one verdict line and pins the
tolerances the package commits to. Parameters here are contractual; loosening
them is an interface change, not a test fix."""

import json
import subprocess
import sys
import time

import numpy as np

from shufflesim import hiding, oracle, qsim, schemes, simon, solver
from shufflesim.gf2 import BitVector, dot
from shufflesim.ledger import DepthLedger

from conftest import cli_env, make_rng
from dense_reference import DenseSim, dense_statevector, trace_distance

GRID = [(n, d) for n in range(2, 7) for d in range(4)]


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lazy_grid_solver_correctness(capsys):
    rng = make_rng("acceptance", 1)
    start = time.perf_counter()
    worst = 1.0
    for n, d in GRID:
        hits = 0
        for _ in range(200):
            inst = simon.sample_simon(n, rng)
            orc = oracle.sample_shuffling(inst, d, rng, backend="lazy")
            try:
                found = solver.solve_search(orc, None, rng)
                hits += simon.verify_shift(inst, found.value)
            except (solver.SolverError, oracle.OracleError):
                pass
        worst = min(worst, hits / 200)
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 1,
        worst >= 0.99 and elapsed < 60.0,
        f"lazy {len(GRID)}-cell grid, 200 trials/cell, min rate {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_02_depth_exactness(capsys):
    rng = make_rng("acceptance", 2)
    rounds = 0
    exact = True
    for n, d in GRID:
        inst = simon.sample_simon(n, rng)
        orc = oracle.sample_shuffling(inst, d, rng, backend="lazy")
        for _ in range(25):
            res = solver.run_simon_round(orc, rng)
            exact = exact and res.oracle_layers == 2 * d + 1
            rounds += 1
    _verdict(capsys, 2, exact, f"{rounds} rounds across the grid, all exactly 2d+1 layers")


def test_criterion_03_orthogonality_is_exact(capsys):
    rng = make_rng("acceptance", 3)
    bad = 0
    for _ in range(100):
        inst = simon.sample_simon(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        s = BitVector(inst.s, 3)
        for _ in range(100):
            if dot(solver.run_simon_round(orc, rng).j, s) != 0:
                bad += 1
    _verdict(capsys, 3, bad == 0, f"10000 rounds at n=3 d=1, {bad} non-orthogonal samples")


def test_criterion_04_decision_quality(capsys):
    rng = make_rng("acceptance", 4)
    hits = 0
    for _ in range(500):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        hits += solver.solve_decision(orc, 3 + 10, rng) is inst.kind
    rate = hits / 500
    _verdict(capsys, 4, rate >= 0.95, f"rounds=n+10 decision accuracy {rate:.3f} on 500 mixed instances")


def test_criterion_05_classical_hardness_baseline(capsys):
    # lemma value (q+1)^2 / (2^(n+1) - (q+1)^2) = 0.0844 at n=16, q=100
    rng = make_rng("acceptance", 5)
    hits = 0
    for _ in range(500):
        inst = simon.sample_simon(16, rng)
        orc = oracle.sample_shuffling(inst, 0, rng, backend="lazy")
        got = schemes.classical_collision_adversary(orc, 100, rng)
        hits += got is not None and simon.verify_shift(inst, got)
    rate = hits / 500
    _verdict(capsys, 5, rate <= 0.134, f"n=16 q=100 collision rate {rate:.3f} <= 0.134")


def test_criterion_06_truncated_adversary_is_a_coin(capsys):
    rng = make_rng("acceptance", 6, "coin")
    hits = 0
    core_reads = 0
    for _ in range(500):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 2, rng)
        guess, led = schemes.truncated_quantum_adversary(orc, 2, rng)
        core_reads += led.core_evaluations
        hits += guess is inst.kind
    rate = hits / 500
    _verdict(
        capsys, 6,
        abs(rate - 0.5) <= 0.06 and core_reads == 0,
        f"budget=d success {rate:.3f} in 0.5 +/- 0.06, {core_reads} core evaluations",
    )


def test_criterion_07_hiding_bound(capsys):
    rng = make_rng("acceptance", 7)
    ok = True
    details = []
    for d in (1, 2):
        n = 2
        bits = (d + 2) * n
        names = ["X"] + [f"A{i}" for i in range(d + 1)]
        widths = [bits] + [bits + 1] * d + [n + 1]
        layout = qsim.RegisterLayout(tuple(names), tuple(widths))
        state = qsim.init_uniform(layout, "X")
        spec = [(i, "X", f"A{i}") for i in range(d + 1)]
        pairs = []
        for _ in range(100):
            orc = oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)
            pairs.append((orc, hiding.sample_hidden_sets(orc, rng)))
        rep = hiding.check_hiding_bound(state, pairs, 1, spec, tol=1e-9)
        ok = ok and rep.per_sample_holds == 100 and rep.pooled_holds
        details.append(
            f"d={d} per-sample {rep.per_sample_holds}/100, "
            f"bures {rep.lhs_bures:.4f} <= {rep.rhs:.4f}"
        )
    _verdict(capsys, 7, ok, "; ".join(details))


def test_criterion_08_find_bound(capsys):
    rng = make_rng("acceptance", 8)
    n, d = 2, 1
    orc = oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)
    bits = orc.domain_bits
    offsets = (21, 42, 63)
    ok = True
    details = []
    for q in (1, 2, 4):
        slots = ["X"] + [f"X{k}" for k in range(q - 1)]
        targets = [f"A{k}" for k in range(q)]
        layout = qsim.RegisterLayout(
            tuple(slots + targets), tuple([bits] * q + [n + 1] * q)
        )
        amp = 1 / np.sqrt(orc.domain_size)
        amps = {}
        for v in range(orc.domain_size):
            cfg = [v] + [v ^ offsets[k] for k in range(q - 1)] + [0] * q
            amps[tuple(cfg)] = amp
        state = qsim.SparseState(layout, amps)
        spec = [(1, slots[k], targets[k]) for k in range(q)]
        rep = hiding.check_find_bound(state, orc, spec, 1, rng, resamples=1000)
        ok = ok and rep.holds and rep.precondition_respected
        if q == 1:
            # a single uniform slot hits the hidden set with exactly 2^-n mass
            ok = ok and abs(rep.mean_p_find - 0.25) <= 1e-9
        details.append(f"q={q} mean {rep.mean_p_find:.4f} <= {rep.bound:.2f}+3s")
    _verdict(capsys, 8, ok, "; ".join(details))


def test_criterion_09_hidden_set_uniformity(capsys):
    rng = make_rng("acceptance", 9)
    sampler = lambda r: oracle.sample_shuffling(simon.sample_simon(2, r), 2, r)
    ok = True
    details = []
    for j in (1, 2):
        rep = hiding.estimate_membership(sampler, j, 1, trials=10_000, rng=rng)
        ok = ok and rep.within_3sigma and rep.parent_draws == 10_000
        details.append(f"j={j} estimate {rep.estimate:.4f} vs 0.25")
    _verdict(capsys, 9, ok, "; ".join(details) + " over 10000 draws each")


def _random_state(layout, rng, support=16):
    amps = {}
    for _ in range(support):
        cfg = tuple(int(rng.integers(1 << w)) for w in layout.widths)
        amps[cfg] = complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return qsim.SparseState(layout, {k: v / norm for k, v in amps.items()})


def test_criterion_10_sparse_dense_cross_validation(capsys):
    rng = make_rng("acceptance", 10)
    n, d = 2, 1
    layout = solver.solver_layout(n, d)
    assert layout.total_width == 12
    worst = 0.0
    for trial in range(25):
        inst = simon.sample_decision_instance(n, rng)
        orc = oracle.sample_shuffling(inst, d, rng)
        state = qsim.init_uniform(layout, "Q")
        dense = DenseSim(layout)
        dense.init_uniform("Q")

        def compare(state, dense):
            return float(np.max(np.abs(dense_statevector(state) - dense.vec)))

        worst = max(worst, compare(state, dense))
        for i in range(d + 1):
            spec = [(i, "Q" if i == 0 else f"N{i-1}", f"N{i}")]
            state = qsim.apply_oracle_xor(state, orc, spec)
            dense.oracle_layer(orc, spec)
            worst = max(worst, compare(state, dense))
        outcome, state = qsim.measure_register(state, f"N{d}", rng)
        dense.project(f"N{d}", outcome)
        worst = max(worst, compare(state, dense))
        for i in reversed(range(d)):
            spec = [(i, "Q" if i == 0 else f"N{i-1}", f"N{i}")]
            state = qsim.apply_oracle_xor(state, orc, spec)
            dense.oracle_layer(orc, spec)
            worst = max(worst, compare(state, dense))
        state = qsim.hadamard_register(state, "Q")
        dense.hadamard("Q")
        worst = max(worst, compare(state, dense))
        j, state = qsim.measure_register(state, "Q", rng)
        dense.project("Q", j)
        worst = max(worst, compare(state, dense))

    inv_layout = qsim.RegisterLayout(("X", "A", "B"), (6, 7, 3))
    inst = simon.sample_simon(2, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    spec = [(0, "X", "A"), (1, "X", "B")]
    inv_ok = True
    for _ in range(1000):
        original = _random_state(inv_layout, rng)
        once = qsim.apply_oracle_xor(original, orc, spec)
        inv_ok = inv_ok and abs(once.norm() - 1.0) <= 1e-9
        back = qsim.apply_oracle_xor(once, orc, spec)
        if set(back.amps) != set(original.amps):
            inv_ok = False
            continue
        drift = max(abs(back.amps[k] - original.amps[k]) for k in original.amps)
        inv_ok = inv_ok and drift <= 1e-9
    _verdict(
        capsys, 10,
        worst <= 1e-9 and inv_ok,
        f"25 solver runs at 12 bits, max amplitude gap {worst:.2e}; "
        "involution and norm held on 1000 random states",
    )


def test_criterion_11_distance_identities(capsys):
    rng = make_rng("acceptance", 11)
    layout = qsim.RegisterLayout(("r",), (3,))
    ensembles = []
    for _ in range(100):
        k = int(rng.integers(1, 5))
        ensembles.append(
            qsim.MixedEnsemble.uniform([_random_state(layout, rng, support=8) for _ in range(k)])
        )
    max_self = 0.0
    max_td_gap = 0.0
    max_asym = 0.0
    for i, ens in enumerate(ensembles):
        other = ensembles[(i + 37) % 100]
        max_self = max(max_self, qsim.bures_distance(ens, ens))
        td = trace_distance(ens, other)
        b = qsim.bures_distance(ens, other)
        max_td_gap = max(max_td_gap, td - b)
        max_asym = max(max_asym, abs(qsim.fidelity(ens, other) - qsim.fidelity(other, ens)))
    max_pure_gap = 0.0
    for _ in range(100):
        a = _random_state(layout, rng, support=8)
        b = _random_state(layout, rng, support=8)
        overlap = abs(sum(np.conj(amp) * b.amps.get(cfg, 0j) for cfg, amp in a.amps.items()))
        max_pure_gap = max(max_pure_gap, abs(qsim.fidelity(a, b) - overlap))
    ok = (
        max_self <= 1e-9
        and max_td_gap <= 1e-9
        and max_asym <= 1e-9
        and max_pure_gap <= 1e-9
    )
    _verdict(
        capsys, 11, ok,
        f"B(rho,rho) max {max_self:.1e}, TD-B max {max_td_gap:.1e}, "
        f"F asymmetry max {max_asym:.1e}, pure overlap gap max {max_pure_gap:.1e}",
    )


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "shufflesim", *args],
        capture_output=True,
        env=cli_env(),
        cwd=cwd,
        timeout=300,
    )


def test_criterion_12_cli_reproducibility(capsys, tmp_path):
    commands = {
        "solve": ["solve", "--n", "2", "--d", "1", "--trials", "30", "--seed", "11"],
        "sweep": ["sweep", "--n", "2..3", "--d", "0..1", "--trials", "10", "--seed", "12",
                  "--adversaries", "solver,truncated,classical", "--format", "csv"],
        "adversary": ["adversary", "--kind", "truncated", "--n", "2", "--d", "1",
                      "--budget", "1", "--trials", "20", "--seed", "13"],
        "o2h": ["o2h", "--n", "2", "--d", "1", "--l", "1", "--trials", "100",
                "--samples", "5", "--resamples", "20", "--seed", "14"],
        "sample-oracle": ["sample-oracle", "--n", "2", "--d", "1", "--seed", "15"],
    }
    parallel = {"solve", "sweep", "adversary"}
    ok = True
    checked = []
    failures = []
    for name, args in commands.items():
        out = tmp_path / f"{name}.out"
        runs = [args + ["--out", str(out)]]
        runs.append(args + ["--out", str(out) + ".again"])
        if name in parallel:
            runs.append(args + ["--jobs", "4", "--out", str(out) + ".par"])
        blobs = []
        for cmd in runs:
            res = _cli(cmd, tmp_path)
            if res.returncode != 0:
                # no output file to compare; report the command and its stderr
                ok = False
                stderr = res.stderr.decode(errors="replace").strip()
                failures.append(f"`{' '.join(cmd)}` exited {res.returncode}: {stderr}")
                continue
            with open(cmd[-1], "rb") as fh:
                blobs.append(fh.read())
        ok = ok and all(b == blobs[0] for b in blobs[1:])
        checked.append(f"{name} x{len(runs)}")
    _verdict(capsys, 12, ok, "byte-identical: " + ", ".join(checked + failures))
