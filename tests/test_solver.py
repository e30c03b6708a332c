from dataclasses import replace

import numpy as np
import pytest

from shufflesim import gf2, oracle, qsim, simon, solver
from shufflesim.ledger import DepthLedger, DepthViolation, SchemeBudget
from shufflesim.oracle import BOT
from shufflesim.simon import InstanceKind

from conftest import make_rng


def _entry(i):
    return (i, "Q" if i == 0 else f"N{i - 1}", f"N{i}")


def _reference_round(orc, rng, ledger):
    """The joint-state round the interpreter replaced: direct qsim calls on
    one state over the whole solver layout. Returns (j, core_value)."""
    n, d = orc.n, orc.d
    ledger.record_circuit()
    state = qsim.init_uniform(solver.solver_layout(n, d), "Q")
    for i in range(d + 1):
        state = qsim.apply_oracle_xor(state, orc, [_entry(i)], ledger)
        ledger.record_oracle_layer()
    raw_core, state = qsim.measure_register(state, f"N{d}", rng)
    core = orc.decode_answer(d, raw_core)
    for i in reversed(range(d)):
        state = qsim.apply_oracle_xor(state, orc, [_entry(i)], ledger)
        ledger.record_oracle_layer()
    for i in range(d):
        assert state.register_values(f"N{i}") == {0}
    state = qsim.hadamard_register(state, "Q")
    j, _ = qsim.measure_register(state, "Q", rng)
    return j, None if core is BOT else int(core)


def _parallel_uncompute_program(n, d):
    """The round with its d uncompute layers folded into one layer whose
    entries read registers that other entries of the layer write."""
    ops = [("uniform", "Q"), *(("oracle", (_entry(i),)) for i in range(d + 1))]
    ops += [("measure", f"N{d}"), ("oracle", tuple(_entry(i) for i in reversed(range(d))))]
    ops += [("hadamard", "Q"), ("measure", "Q")]
    return qsim.CircuitProgram(solver.solver_layout(n, d), tuple(ops))


def _run_parallel_uncompute(orc, rng, ledger):
    machine = qsim.run_program(_parallel_uncompute_program(orc.n, orc.d), orc, rng, ledger)
    for i in range(orc.d):
        assert machine.register_values(f"N{i}") == {0}
    return gf2.BitVector(machine.outcomes["Q"], orc.n)


def test_round_layer_count_sequential():
    # one chase layer per level plus d uncompute layers: 2d+1 total
    for d in (0, 1, 2):
        rng = make_rng("layers", d)
        inst = simon.sample_simon(2, rng)
        orc = oracle.sample_shuffling(inst, d, rng)
        res = solver.run_simon_round(orc, rng)
        assert res.oracle_layers == 2 * d + 1


def test_round_layer_count_parallel_uncompute():
    # at d=1 the folded uncompute is one entry, the real round: d+2 = 2d+1
    rng = make_rng("parlayers", 1)
    inst = simon.sample_simon(2, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    led = DepthLedger()
    _run_parallel_uncompute(orc, rng, led)
    assert led.oracle_layers_current_circuit == 3
    # above d=1 one layer that uncomputes N{d-1}..N0 at once would read
    # N0..N{d-2} while writing them, doing d layers' work for one charge;
    # it is refused before it is charged
    for d in (2, 3):
        rng = make_rng("parlayers", d)
        inst = simon.sample_simon(2, rng)
        orc = oracle.sample_shuffling(inst, d, rng)
        led = DepthLedger()
        with pytest.raises(qsim.SimulatorError, match="both read and written in one layer"):
            qsim.run_program(_parallel_uncompute_program(orc.n, d), orc, rng, led)
        assert led.oracle_layers_current_circuit == d + 1


def test_round_j_orthogonal_to_shift():
    rng = make_rng("ortho")
    inst = simon.sample_simon(3, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    s = gf2.BitVector(inst.s, 3)
    for _ in range(50):
        res = solver.run_simon_round(orc, rng)
        assert gf2.dot(res.j, s) == 0


def test_round_j_orthogonal_with_parallel_uncompute():
    # d=1, the one depth at which the folded uncompute layer is legal
    rng = make_rng("ortho-par")
    inst = simon.sample_simon(2, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    s = gf2.BitVector(inst.s, 2)
    for _ in range(40):
        assert gf2.dot(_run_parallel_uncompute(orc, rng, DepthLedger()), s) == 0


@pytest.mark.parametrize("backend", ["lazy", "materialized"])
def test_round_matches_joint_state_reference(backend):
    # same j, core value and ledger as the joint-state round, draw for draw
    for n in range(1, 6):
        for d in range(4):
            if backend == "materialized" and (d + 2) * n > 20:
                continue
            for seed in range(3):
                runs = []
                for _ in range(2):
                    rng = make_rng("reference", backend, n, d, seed)
                    inst = simon.sample_decision_instance(n, rng)
                    runs.append((oracle.sample_shuffling(inst, d, rng, backend=backend), rng))
                (orc_a, rng_a), (orc_b, rng_b) = runs
                led_a, led_b = DepthLedger(), DepthLedger()
                for _ in range(3):
                    j, core = _reference_round(orc_a, rng_a, led_a)
                    res = solver.run_simon_round(orc_b, rng_b, led_b)
                    assert (res.j.value, res.core_value) == (j, core)
                    assert led_b == led_a


def test_round_core_value_comes_from_table():
    # chase inputs stay on the shuffle's chain, so the core read never
    # lands outside the level set and never reports bot
    for d in (0, 2):
        rng = make_rng("core", d)
        inst = simon.sample_simon(3, rng)
        orc = oracle.sample_shuffling(inst, d, rng)
        values = set(int(v) for v in inst.table)
        for _ in range(10):
            res = solver.run_simon_round(orc, rng)
            assert res.core_value is not None
            assert res.core_value in values


def test_round_j_uniform_on_one_to_one():
    # injective instances erase all structure; j is uniform over 2^n
    rng = make_rng("uniform-j")
    inst = simon.sample_one_to_one(3, rng)
    orc = oracle.sample_shuffling(inst, 0, rng)
    counts = np.zeros(8, dtype=int)
    trials = 10_000
    for _ in range(trials):
        counts[solver.run_simon_round(orc, rng).j.value] += 1
    expected = trials / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 7: mean 7, sd sqrt(14)
    assert chi2 < 7 + 4 * np.sqrt(14)


def test_search_n1_needs_no_rounds():
    # n=1 admits a single candidate shift; path confirmation settles it
    rng = make_rng("n1")
    inst = simon.sample_simon(1, rng)
    orc = oracle.sample_shuffling(inst, 0, rng)
    led = DepthLedger()
    s = solver.solve_search(orc, None, rng, led)
    assert s.value == 1
    assert led.circuits_invoked == 0


def test_search_recovers_shift():
    rng = make_rng("search")
    for trial in range(200):
        inst = simon.sample_simon(3, rng)
        orc = oracle.sample_shuffling(inst, 2, rng)
        s = solver.solve_search(orc, None, rng)
        assert simon.verify_shift(inst, s.value)


def test_search_round_budget_is_modest():
    rng = make_rng("budget")
    used = []
    for _ in range(100):
        inst = simon.sample_simon(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        led = DepthLedger()
        solver.solve_search(orc, None, rng, led)
        used.append(led.circuits_invoked)
    assert np.mean(used) <= 3 + 3


def test_search_rejects_one_to_one():
    rng = make_rng("promise")
    inst = simon.sample_one_to_one(2, rng)
    orc = oracle.sample_shuffling(inst, 0, rng)
    with pytest.raises(solver.SolverError):
        solver.solve_search(orc, None, rng)


def test_decision_correct_on_both_kinds():
    rng = make_rng("decide")
    for trial in range(40):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        got = solver.solve_decision(orc, 3 + 10, rng)
        assert got is inst.kind


def test_decision_zero_rounds_falls_back_to_exhaustion():
    # with no samples the null space is everything; path checks still decide
    rng = make_rng("zero-rounds")
    simon_inst = simon.sample_simon(3, rng)
    got = solver.solve_decision(oracle.sample_shuffling(simon_inst, 0, rng), 0, rng)
    assert got is InstanceKind.SIMON
    flat = simon.sample_one_to_one(3, rng)
    got = solver.solve_decision(oracle.sample_shuffling(flat, 0, rng), 0, rng)
    assert got is InstanceKind.ONE_TO_ONE


def test_decision_candidate_cap():
    # no rounds leave the whole null space at n=13: 2^13 - 1 candidates
    rng = make_rng("cap")
    orc = oracle.sample_shuffling(simon.sample_simon(13, rng), 0, rng, backend="lazy")
    with pytest.raises(solver.SolverError, match="8191 null-space candidates exceed the cap of 4096"):
        solver.solve_decision(orc, 0, rng)


def test_ledger_snapshot_is_independent():
    led = DepthLedger()
    led.record_oracle_layer()
    led.record_violation("first")
    snap = led.snapshot()
    assert snap == led
    snap.record_violation("second")
    snap.record_oracle_layer()
    snap.classical_queries = 7
    assert led.violations == ["first"]
    assert led.oracle_layers_total == 1 and led.oracle_layers_current_circuit == 1
    assert led.classical_queries == 0


def test_ledger_refuses_charges_past_its_budget():
    budget = SchemeBudget(depth=1, circuits=1, classical_queries=2)
    led = DepthLedger(budget=budget)
    led.record_circuit()
    led.record_oracle_layer()
    led.record_classical(1)
    counters = led.snapshot()
    for charge, message in (
        (led.record_oracle_layer, "depth budget of 1 layers per circuit exceeded"),
        (led.record_circuit, "circuit budget of 1 exceeded"),
        (lambda: led.record_classical(2), "classical query budget of 2 exceeded"),
    ):
        with pytest.raises(DepthViolation) as exc:
            charge()
        assert str(exc.value) == message and exc.value.ledger is led
        assert led.violations[-1] == message
        assert replace(led, violations=counters.violations) == counters
    assert len(led.violations) == 3

    free = DepthLedger()
    for _ in range(5):
        free.record_circuit()
        free.record_oracle_layer()
        free.record_oracle_layer()
        free.record_classical(1000)
    assert free.violations == [] and free.circuits_invoked == 5


def test_ledger_accumulates_across_rounds():
    rng = make_rng("acct")
    inst = simon.sample_simon(2, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    led = DepthLedger()
    for k in range(1, 4):
        solver.run_simon_round(orc, rng, led)
        assert led.circuits_invoked == k
        assert led.oracle_layers_total == k * 3


def test_steady_round_fourier_samples_q_without_the_hadamard_state(monkeypatch):
    # Q's Hadamard is next followed by Q's measurement, so every round, the
    # first and the steady ones, draws j straight from the Hadamard's array
    real, sampled = qsim.fourier_sample, []
    monkeypatch.setattr(qsim, "fourier_sample", lambda state, reg, rng: sampled.append(reg) or real(state, reg, rng))
    monkeypatch.setattr(qsim, "hadamard_register", None)  # never called
    rng = make_rng("steady-fourier")
    orc = oracle.sample_shuffling(simon.sample_simon(10, rng), 2, rng, backend="lazy")
    for _ in range(4):
        solver.run_simon_round(orc, rng)
    assert sampled == ["Q"] * 4
