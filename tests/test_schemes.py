import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from shufflesim import oracle, qsim, schemes, simon, solver
from shufflesim.ledger import DepthLedger, DepthViolation
from shufflesim.simon import InstanceKind

from conftest import make_rng, store_free


def cq_classical_adversary(q):
    """classical_collision_adversary phrased as a zero-circuit scheme
    adversary; byte-for-byte the same probe sequence given the same rng."""

    def adversary(caps, rng):
        return schemes._collision_probe(lambda x: caps.path(x).final, caps.n, q, rng, {})

    return adversary


@dataclass(frozen=True)
class SuccessReport:
    trials: int
    successes: int
    rate: float
    ci_lo: float
    ci_hi: float


def estimate_success(trial, trials, rng):
    """Run `trial(rng) -> bool` repeatedly; rate with a 95% Wilson interval."""
    successes = sum(1 for _ in range(trials) if trial(rng))
    lo, hi = schemes.wilson_interval(successes, trials)
    return SuccessReport(trials, successes, successes / trials, lo, hi)


def _mixed_oracle(n, d, rng):
    return oracle.sample_shuffling(simon.sample_decision_instance(n, rng), d, rng)


def test_cq_depth_violation_recorded_then_raised():
    rng = make_rng("cq-depth")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng)
    adversary = schemes.solver_cq_decision_adversary(2, 1, rounds=1)
    with pytest.raises(DepthViolation) as exc:
        schemes.run_d_cq(adversary, orc, schemes.SchemeBudget(depth=2), rng)
    led = exc.value.ledger
    assert led.violations
    assert "depth budget" in led.violations[0]
    # the third layer was refused, not executed
    assert led.oracle_layers_current_circuit == 2


def test_cq_circuit_budget():
    rng = make_rng("cq-circuits")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng)
    adversary = schemes.solver_cq_decision_adversary(2, 1, rounds=5)
    with pytest.raises(DepthViolation) as exc:
        schemes.run_d_cq(adversary, orc, schemes.SchemeBudget(depth=3, circuits=2), rng)
    assert exc.value.ledger.circuits_invoked == 2


def test_classical_query_budget():
    rng = make_rng("classical-budget")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng)

    def greedy(caps, rng):
        for x in range(5):
            caps.query(0, x)

    with pytest.raises(DepthViolation):
        schemes.run_d_cq(greedy, orc, schemes.SchemeBudget(depth=1, classical_queries=3), rng)

    # a path query costs one classical query; the refused second one moves nothing
    def two_paths(caps, rng):
        caps.path(0)
        caps.path(1)

    with pytest.raises(DepthViolation) as exc:
        schemes.run_d_cq(two_paths, orc, schemes.SchemeBudget(depth=1, classical_queries=1), rng)
    assert exc.value.ledger.classical_queries == 1


def test_qc_total_depth_budget():
    rng = make_rng("qc-depth")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng)
    adversary = schemes.solver_qc_decision_adversary(2, 1, rounds=2)
    with pytest.raises(DepthViolation) as exc:
        schemes.run_d_qc(adversary, orc, schemes.SchemeBudget(depth=2), rng)
    assert exc.value.ledger.oracle_layers_total == 2
    assert any("depth budget of 2 layers" in v for v in exc.value.ledger.violations)


def test_qc_refuses_registers_the_declared_program_never_links():
    # a program with no oracle op links nothing, so a core query from Q into
    # N0 is refused before the layer is charged or any group written
    rng = make_rng("qc-unlinked")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 0, rng)
    caps = schemes.PersistentSchemeCaps(orc, schemes.SchemeBudget(depth=3), rng)
    caps.declare(qsim.CircuitProgram(solver.solver_layout(2, 0), ()))
    caps.run([("uniform", "Q")])
    before = list(caps._machine.states)
    with pytest.raises(qsim.SimulatorError, match="'Q' and 'N0' are not linked by the program"):
        caps.run([("oracle", ((0, "Q", "N0"),))])
    assert caps.ledger.oracle_layers_total == 0
    assert caps.ledger.core_evaluations == 0
    assert len(caps._machine.states) == len(before)
    assert all(a is b for a, b in zip(caps._machine.states, before))


def test_qc_layout_and_init_guards():
    rng = make_rng("qc-guards")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 0, rng)

    def declare_twice(caps, rng):
        program = solver.round_program(2, 0)
        caps.declare(program)
        caps.declare(program)

    with pytest.raises(qsim.SimulatorError):
        schemes.run_d_qc(declare_twice, orc, schemes.SchemeBudget(depth=1), rng)

    def op_before_declare(caps, rng):
        caps.run([("hadamard", "Q")])

    with pytest.raises(qsim.SimulatorError):
        schemes.run_d_qc(op_before_declare, orc, schemes.SchemeBudget(depth=1), rng)

    def reinit(caps, rng):
        caps.declare(solver.round_program(2, 0))
        caps.run([("uniform", "Q")])
        caps.run([("uniform", "Q")])

    with pytest.raises(qsim.SimulatorError):
        schemes.run_d_qc(reinit, orc, schemes.SchemeBudget(depth=1), rng)

    # two banks are two register groups: an op on one leaves the other unused
    banked = schemes._banked(solver.round_program(2, 0), 2)
    for op in ("hadamard", "measure"):
        caps = schemes.PersistentSchemeCaps(orc, schemes.SchemeBudget(depth=1), rng)
        caps.declare(banked)
        caps.run([(op, "N0_0")])
        with pytest.raises(qsim.SimulatorError, match="cannot reinitialize"):
            caps.run([("uniform", "Q_0")])
        caps.run([("uniform", "Q_1")])


def test_refused_layer_leaves_every_group_as_it_was():
    # a refutation makes the lazy backend refuse off-chain reveals; the layer
    # answers group {X, Y} at an on-chain point before U's refused reveal
    rng = np.random.default_rng(15)
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng, backend="lazy")
    assert orc.query_point(1, 40) is oracle.BOT
    w, a = orc.domain_bits, orc.answer_bits(0)
    layer = ("oracle", ((0, "X", "Y"), (0, "U", "V")))
    program = qsim.CircuitProgram(qsim.RegisterLayout(("X", "Y", "U", "V"), (w, a, w, a)), (layer,))
    caps = schemes.PersistentSchemeCaps(orc, schemes.SchemeBudget(depth=2), rng)
    caps.declare(program)
    caps.run([("uniform", "U")])
    before = list(caps._machine.states)
    with pytest.raises(oracle.OracleError, match="off-chain reveal"):
        caps.run([layer])
    assert all(now is then for now, then in zip(caps._machine.states, before))
    assert caps.ledger.oracle_layers_total == 1


def test_unknown_register_is_a_simulator_error():
    rng = make_rng("qc-unknown-register")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 0, rng)
    caps = schemes.PersistentSchemeCaps(orc, schemes.SchemeBudget(depth=1), rng)
    caps.declare(solver.round_program(2, 0))
    ops = [
        lambda: caps.run([("uniform", "X")]),
        lambda: caps.run([("hadamard", "X")]),
        lambda: caps.run([("measure", "X")]),
        lambda: caps.run([("oracle", ((0, "X", "N0"),))]),
        lambda: caps.run([("oracle", ((0, "Q", "X"),))]),
        lambda: caps._machine.register_values("X"),
    ]
    for op in ops:
        with pytest.raises(qsim.SimulatorError, match="no register named 'X'"):
            op()
    assert caps.ledger.oracle_layers_total == 0


def test_cq_classical_adversary_matches_bare_collision_search():
    # same probe sequence, same answers, same classical accounting
    for seed in range(5):
        rng_a = make_rng("collision", seed, "a")
        rng_b = make_rng("collision", seed, "a")
        inst = simon.sample_decision_instance(3, rng_a)
        rng_b.bit_generator.state = rng_a.bit_generator.state
        orc = oracle.sample_shuffling(inst, 1, rng_a)
        rng_b.bit_generator.state = rng_a.bit_generator.state
        led = DepthLedger()
        bare = schemes.classical_collision_adversary(orc, 5, rng_a, led)
        out, sched_led = schemes.run_d_cq(
            cq_classical_adversary(5), orc, schemes.SchemeBudget(depth=0), rng_b
        )
        assert out == bare
        assert sched_led.classical_queries == led.classical_queries


def test_classical_exhaustive_always_finds_shift():
    rng = make_rng("exhaustive")
    for _ in range(10):
        inst = simon.sample_simon(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        got = schemes.classical_collision_adversary(orc, 8, rng)
        assert got == inst.s


def test_classical_finds_nothing_on_one_to_one():
    rng = make_rng("flat")
    for _ in range(10):
        inst = simon.sample_one_to_one(3, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        assert schemes.classical_collision_adversary(orc, 8, rng) is None


def test_truncated_full_budget_recovers_solver():
    rng = make_rng("trunc-full")
    for _ in range(30):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 2, rng)
        got, led = schemes.truncated_quantum_adversary(orc, 5, rng)
        assert got is inst.kind


def test_truncated_core_read_plus_probes_decides():
    # budget d+1 reaches the core once; probing all 2^n paths then settles it
    rng = make_rng("trunc-mid")
    for _ in range(30):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 2, rng)
        got, led = schemes.truncated_quantum_adversary(orc, 3, rng)
        assert got is inst.kind
        assert led.oracle_layers_total == 3


def test_truncated_below_core_is_a_coin_with_no_core_reads():
    rng = make_rng("trunc-low")
    hits = 0
    trials = 300
    for _ in range(trials):
        inst = simon.sample_decision_instance(3, rng)
        orc = oracle.sample_shuffling(inst, 2, rng)
        got, led = schemes.truncated_quantum_adversary(orc, 2, rng)
        assert led.core_evaluations == 0
        assert led.oracle_layers_total == 2
        hits += got is inst.kind
    rate = hits / trials
    sigma = np.sqrt(0.25 / trials)
    assert abs(rate - 0.5) <= 3 * sigma


def test_truncated_probes_a_wide_lazy_domain():
    # (d+2)n = 64 bits: probe points exceed the generator's int64 range
    rng = make_rng("trunc-wide")
    orc = oracle.sample_shuffling(simon.sample_decision_instance(1, rng), 62, rng, backend="lazy")
    guess, led = schemes.truncated_quantum_adversary(orc, 1, rng)
    assert guess in (InstanceKind.SIMON, InstanceKind.ONE_TO_ONE)
    assert led.oracle_layers_total == 1 and led.core_evaluations == 0
    assert led.classical_queries == 8


TRUNCATED_DIGEST = "35b8b03da877ac9cec76745b361caa9b2ccfd62c88ec26bbf79e24cc5541a386"


def test_truncated_adversary_digest():
    """Every budget from 0 to 2d+2 on both backends: the guess, the ledger's
    counts and the generator's next draw are pinned."""
    digest = hashlib.sha256()
    for backend in ("materialized", "lazy"):
        for n in (2, 3):
            for d in (0, 1, 2):
                for budget in range(2 * d + 3):
                    for seed in range(3):
                        rng = make_rng("trunc-digest", backend, n, d, budget, seed)
                        inst = simon.sample_decision_instance(n, rng)
                        orc = oracle.sample_shuffling(inst, d, rng, backend=backend)
                        guess, led = schemes.truncated_quantum_adversary(orc, budget, rng)
                        counts = (
                            led.oracle_layers_total, led.circuits_invoked,
                            led.classical_queries, led.core_evaluations, led.violations,
                        )
                        digest.update(repr((guess.value, counts, int(rng.integers(1 << 30)))).encode())
    assert digest.hexdigest() == TRUNCATED_DIGEST


def test_truncated_budget_is_held_by_the_ledger(monkeypatch):
    # the harness ledger carries the caps, so a probe past them is refused
    n, d = 3, 1
    rng = make_rng("trunc-ledger")
    orc = _mixed_oracle(n, d, rng)
    for budget in range(2 * d + 3):
        _, led = schemes.truncated_quantum_adversary(orc, budget, rng)
        if budget <= 2 * d:
            assert led.budget == schemes.SchemeBudget(budget, 1, schemes.TRUNCATED_PROBES)
        else:
            assert led.budget == schemes.SchemeBudget(2 * d + 1, n + 10, None)

    def one_probe_more(path_final, n, q, rng, seen):
        for x in range(q + 1):
            path_final(x % (1 << n))

    monkeypatch.setattr(schemes, "_collision_probe", one_probe_more)
    with pytest.raises(DepthViolation, match="classical query budget of 8") as exc:
        schemes.truncated_quantum_adversary(orc, d + 1, rng)
    assert exc.value.ledger.classical_queries == schemes.TRUNCATED_PROBES


def test_solver_cq_adversary_decides_within_budget():
    rng = make_rng("cq-solve")
    for _ in range(20):
        inst = simon.sample_decision_instance(2, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        got, led = schemes.run_d_cq(
            schemes.solver_cq_decision_adversary(2, 1, rounds=12),
            orc,
            schemes.SchemeBudget(depth=3, circuits=12),
            rng,
        )
        assert got is inst.kind
        assert led.circuits_invoked == 12
        assert led.oracle_layers_total == 36


@pytest.mark.parametrize("n,d,backend", [(3, 1, "materialized"), (4, 2, "materialized"), (12, 2, "lazy")])
def test_cq_solver_runs_the_round_program(monkeypatch, n, d, backend):
    # the core register is measured mid-circuit, so the Hadamard on Q sees
    # the at most 2 configs left, never Q's whole uniform superposition; it
    # runs with Q's measurement as one Fourier sample
    real, sampled = qsim.fourier_sample, []

    def small_fourier_sample(state, register, rng):
        if state.support_size > 2:
            raise AssertionError(f"Hadamard on {state.support_size} configs")
        sampled.append(register)
        return real(state, register, rng)

    monkeypatch.setattr(qsim, "fourier_sample", small_fourier_sample)
    monkeypatch.setattr(qsim, "hadamard_register", None)  # never called
    rng = make_rng("cq-round-program", n, d, backend)
    rounds = n + 10
    for sample in (simon.sample_simon, simon.sample_one_to_one):
        inst = sample(n, rng)
        orc = oracle.sample_shuffling(inst, d, rng, backend=backend)
        got, led = schemes.run_d_cq(
            schemes.solver_cq_decision_adversary(n, d, rounds),
            orc,
            schemes.SchemeBudget(depth=2 * d + 1, circuits=rounds),
            rng,
        )
        assert got is inst.kind
        assert led.circuits_invoked == rounds
        # the budget caps each circuit at 2d+1 layers, so each ran exactly 2d+1
        assert led.oracle_layers_total == rounds * (2 * d + 1)
        assert sampled == ["Q"] * rounds
        sampled.clear()


@pytest.mark.parametrize("n,d,backend", [(3, 1, "materialized"), (10, 2, "lazy")])
def test_qc_solver_banks_fourier_sample_each_q(monkeypatch, n, d, backend):
    # the banked program runs every bank's Hadamard on Q, then every bank's
    # measurement of Q: each Hadamard's group is next touched by its
    # measurement, so each bank takes the fused route, in bank order
    real, sampled = qsim.fourier_sample, []
    monkeypatch.setattr(qsim, "fourier_sample", lambda state, reg, rng: sampled.append(reg) or real(state, reg, rng))
    monkeypatch.setattr(qsim, "hadamard_register", None)  # never called
    rounds = n + 10
    rng = make_rng("qc-fourier", n, d, backend)
    inst = simon.sample_simon(n, rng)
    orc = oracle.sample_shuffling(inst, d, rng, backend=backend)
    got, _ = schemes.run_d_qc(schemes.solver_qc_decision_adversary(n, d, rounds), orc,
                              schemes.SchemeBudget(depth=2 * d + 1), rng)
    assert got is inst.kind
    assert sampled == [f"Q_{b}" for b in range(rounds)]


def test_solver_qc_adversary_decides_in_one_computation():
    # parallel banks share each layer, so total depth stays 2d+1
    rng = make_rng("qc-solve")
    for _ in range(20):
        inst = simon.sample_decision_instance(2, rng)
        orc = oracle.sample_shuffling(inst, 1, rng)
        got, led = schemes.run_d_qc(
            schemes.solver_qc_decision_adversary(2, 1, rounds=12),
            orc,
            schemes.SchemeBudget(depth=3),
            rng,
        )
        assert got is inst.kind
        assert led.oracle_layers_total == 3
        assert led.circuits_invoked == 1


@pytest.mark.parametrize("n,d,backend", [(3, 1, "materialized"), (4, 2, "materialized"), (12, 2, "lazy")])
def test_qc_solver_banks_read_back_one_chase(monkeypatch, n, d, backend):
    # every bank runs the same chase, so the first computes it and the rest
    # read its steps back under their own names, N_d's marginal included;
    # the uncompute follows a measurement and runs once per bank
    rounds = n + 10
    calls, built, reading, outcomes = [], [], [], []
    real_xor, real_marginal, real_law = qsim._xor_layer, qsim.SparseState.marginal, qsim.Marginal
    real_run = schemes.PersistentSchemeCaps.run

    def marginal(state, register):
        reading.append(register)
        try:
            return real_marginal(state, register)
        finally:
            reading.pop()

    monkeypatch.setattr(qsim, "_xor_layer", lambda *a, **kw: calls.append(1) or real_xor(*a, **kw))
    monkeypatch.setattr(qsim.SparseState, "marginal", marginal)
    # a Fourier sample builds Q's law outside SparseState.marginal
    monkeypatch.setattr(qsim, "Marginal", lambda *fields: built.append(reading[-1] if reading else "") or real_law(*fields))
    monkeypatch.setattr(schemes.PersistentSchemeCaps, "run", lambda caps, ops: outcomes.append(real_run(caps, ops)) or outcomes[-1])
    for sample in (simon.sample_simon, simon.sample_one_to_one):
        runs = []
        for run in (schemes.run_d_qc, lambda *args: store_free(schemes.run_d_qc, *args)):
            rng = make_rng("qc-banks", n, d, backend, sample.__name__)
            inst = sample(n, rng)
            orc = oracle.sample_shuffling(inst, d, rng, backend=backend)
            calls.clear(), built.clear()
            got, led = run(schemes.solver_qc_decision_adversary(n, d, rounds), orc,
                           schemes.SchemeBudget(depth=2 * d + 1), rng)
            assert got is inst.kind
            laws = sum(r.startswith(f"N{d}_") for r in built)
            runs.append((len(calls), laws, outcomes.pop(), led, rng.bit_generator.state))
        (kept_calls, kept_laws, *kept), (plain_calls, plain_laws, *plain) = runs
        assert kept == plain
        assert (kept_calls, plain_calls) == ((d + 1) + rounds * d, rounds * (2 * d + 1))
        assert (kept_laws, plain_laws) == (1, rounds)


def test_run_circuit_walks_a_programs_ops_once():
    # the final measurements are built once per program, not per circuit
    class Walked(tuple):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    rng = make_rng("walk-once")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng)
    caps = schemes.CircuitSchemeCaps(orc, schemes.SchemeBudget(), rng)
    layout = qsim.RegisterLayout(("walked", "kept"), (2, 1))
    program = schemes.CircuitProgram(layout, Walked((("uniform", "walked"), ("measure", "walked"))))
    for _ in range(2):
        assert set(caps.run_circuit(program)) == {"walked", "kept"}
    assert Walked.walks == 1


def test_full_measurement_collapses_qc_to_cq():
    # measuring every register after every layer makes the persistent run
    # classically restartable: joint outcome distribution matches a depth-1
    # circuit scheme with classical control in between
    rng = make_rng("collapse")
    inst = simon.sample_simon(2, rng)
    orc = oracle.sample_shuffling(inst, 1, rng)
    layout = solver.solver_layout(2, 1)
    trials = 2000

    qc_counts: dict[tuple, int] = {}
    for _ in range(trials):
        caps = schemes.PersistentSchemeCaps(orc, schemes.SchemeBudget(depth=3), rng)
        caps.declare(solver.round_program(2, 1))
        first = caps.run(
            [("uniform", "Q"), ("oracle", ((0, "Q", "N0"),)), ("measure", "Q"), ("measure", "N0")]
        )
        kept = dict(first)
        core = orc.decode_answer(1, caps.run([("oracle", ((1, "N0", "N1"),)), ("measure", "N1")])["N1"])
        assert caps.run([("oracle", ((0, "Q", "N0"),)), ("measure", "N0")])["N0"] == 0
        j = caps.run([("hadamard", "Q"), ("measure", "Q")])["Q"]
        assert first == kept  # later runs leave an earlier run's outcomes alone
        key = (first["Q"], core, j)
        qc_counts[key] = qc_counts.get(key, 0) + 1

    chase = schemes.CircuitProgram(layout, (("uniform", "Q"), ("oracle", ((0, "Q", "N0"),))))
    fourier = schemes.CircuitProgram(layout, (("uniform", "Q"),))
    cq_counts: dict[tuple, int] = {}
    for _ in range(trials):
        caps = schemes.CircuitSchemeCaps(orc, schemes.SchemeBudget(depth=1), rng)
        out = caps.run_circuit(chase)
        core = caps.query(1, out["N0"])
        j = caps.run_circuit(fourier)["Q"]
        key = (out["Q"], core, j)
        cq_counts[key] = cq_counts.get(key, 0) + 1

    keys = sorted(set(qc_counts) | set(cq_counts))
    stat = 0.0
    for k in keys:
        a, b = qc_counts.get(k, 0), cq_counts.get(k, 0)
        stat += (a - b) ** 2 / (a + b)
    # 16 (x, j) cells; df 15: mean 15, sd sqrt(30)
    assert len(keys) == 16
    assert stat < 15 + 4 * np.sqrt(30)


def test_wilson_interval_reference_values():
    lo, hi = schemes.wilson_interval(8, 10)
    assert lo == pytest.approx(0.490157, abs=1e-6)
    assert hi == pytest.approx(0.943319, abs=1e-6)
    assert schemes.wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = schemes.wilson_interval(0, 100)
    assert lo == 0.0
    assert hi < 0.05
    lo, hi = schemes.wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo > 0.95


def test_estimate_success_reports():
    rng = make_rng("estimate")
    sure = estimate_success(lambda r: True, 600, rng)
    assert sure.rate == 1.0
    assert sure.ci_lo >= 0.99 and sure.ci_hi == pytest.approx(1.0, abs=1e-12)
    coin = estimate_success(lambda r: bool(r.integers(2)), 10_000, rng)
    assert abs(coin.rate - 0.5) <= 0.015
    assert coin.ci_lo <= 0.5 <= coin.ci_hi
    broken = estimate_success(lambda r: False, 200, rng)
    assert broken.rate == 0.0 and broken.ci_lo == 0.0
