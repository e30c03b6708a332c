import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_rng, store_free
from dense_reference import (
    DenseSim, amplitude, dense_fidelity, dense_statevector, layout_of, offset, trace_distance, unpack,
)
from shufflesim import hiding, qsim
from shufflesim.ledger import DepthLedger, DepthViolation, SchemeBudget
from shufflesim.oracle import BOT, OracleError, sample_shuffling
from shufflesim.schemes import CircuitSchemeCaps
from shufflesim.simon import sample_one_to_one, sample_simon
from shufflesim.solver import round_program, run_simon_round, solver_layout


def small_layout():
    return layout_of(a=2, b=3)


def random_state(layout, seed, support=6):
    rng = make_rng("state", seed)
    keys = set()
    while len(keys) < support:
        keys.add(tuple(int(rng.integers(1 << w)) for w in layout.widths))
    amps = {k: complex(rng.normal(), rng.normal()) for k in keys}
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return qsim.SparseState(layout, {k: a / norm for k, a in amps.items()})


def state_from_dense(layout, vec):
    if vec.shape != (1 << layout.total_width,):
        raise qsim.SimulatorError(f"vector length {vec.shape} does not match layout width")
    amps = {}
    for idx in np.flatnonzero(np.abs(vec) > qsim.PRUNE_TOL):
        rest = int(idx)
        cfg = []
        for w in layout.widths:
            cfg.append(rest & ((1 << w) - 1))
            rest >>= w
        amps[tuple(cfg)] = complex(vec[idx])
    return qsim.SparseState(layout, amps)


def test_layout_packing():
    layout = small_layout()
    assert layout.total_width == 5
    assert offset(layout, "a") == 0 and offset(layout, "b") == 2
    with pytest.raises(qsim.SimulatorError):
        layout.index("c")


@st.composite
def _layout_and_configs(draw):
    widths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=6))
    layout = qsim.RegisterLayout(tuple(f"r{i}" for i in range(len(widths))), tuple(widths))
    values = st.tuples(*(st.integers(0, (1 << w) - 1) for w in widths))
    return layout, draw(st.lists(values, min_size=1, max_size=12))


@given(_layout_and_configs())
def test_packed_keys_round_trip_in_tuple_order(case):
    # int order on keys is tuple order on configs, so the sorted joint
    # support of fidelity's dense route does not depend on how keys pack
    layout, configs = case
    keys = [layout.pack(cfg) for cfg in configs]
    assert [unpack(layout, key) for key in keys] == configs
    assert sorted(keys) == [layout.pack(cfg) for cfg in sorted(configs)]
    for name, off in zip(layout.names, layout.offsets):
        assert layout.field(name) == (off, (1 << layout.width(name)) - 1)
        assert [(key >> off) & ((1 << layout.width(name)) - 1) for key in keys] == [
            cfg[layout.index(name)] for cfg in configs
        ]


def test_basis_and_uniform():
    layout = layout_of(q=1)
    s = qsim.init_uniform(layout, "q")
    assert amplitude(s, {"q": 0}) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(s, {"q": 1}) == pytest.approx(1 / np.sqrt(2))
    layout3 = layout_of(q=3)
    s3 = qsim.init_uniform(layout3, "q")
    assert s3.support_size == 8
    assert all(abs(a - 1 / np.sqrt(8)) < 1e-12 for a in s3.amps.values())
    assert s3.norm() == pytest.approx(1.0)
    assert qsim.init_uniform(layout3, "q") is s3  # states are immutable and shared


def test_norm_validation():
    layout = layout_of(a=1)
    with pytest.raises(qsim.SimulatorError):
        qsim.SparseState(layout, {(0,): 0.5})


@pytest.mark.parametrize(
    "bad, message",
    [((1, 4), "out of range"), ((-1, 0), "out of range"), ((1,), "does not match"), ((1, 2, 0), "does not match")],
)
def test_config_validation_names_the_bad_config(bad, message):
    layout = layout_of(a=1, b=2)
    amps = {(0, 0): 0.6, bad: 0.8j, (1, 3): 1e-13}  # the last is pruned, not checked
    with pytest.raises(qsim.SimulatorError, match=re.escape(f"config {bad} {message}")):
        qsim.SparseState(layout, amps)


def test_hadamard_basis_and_involution():
    layout = layout_of(q=2)
    s = qsim.basis_state(layout)
    h = qsim.hadamard_register(s, "q")
    assert h.support_size == 4
    back = qsim.hadamard_register(h, "q")
    assert back.support_size == 1
    assert amplitude(back, {"q": 0}) == pytest.approx(1.0)


def test_hadamard_involution_random_states():
    layout = small_layout()
    for seed in range(50):
        s = random_state(layout, seed)
        t = qsim.hadamard_register(qsim.hadamard_register(s, "b"), "b")
        keys = set(s.amps) | set(t.amps)
        assert all(abs(s.amps.get(k, 0) - t.amps.get(k, 0)) < 1e-9 for k in keys)
        assert qsim.hadamard_register(s, "b").norm() == pytest.approx(1.0)


def test_hadamard_refuses_an_output_block_past_the_cap(monkeypatch):
    # refused before the groups-by-2^w block is allocated
    wide = qsim.SparseState(layout_of(r=25), {(0,): 1.0})
    with pytest.raises(qsim.SimulatorError, match=r"'r' would hold 1 x 2\^25 outputs, past the cap of 16777216"):
        qsim.hadamard_register(wide, "r")
    # two groups of 2^2 outputs sit at a cap of 8; a third group passes it
    monkeypatch.setattr(qsim, "HADAMARD_ENTRIES", 8)
    layout = layout_of(g=2, h=2)
    assert qsim.hadamard_register(qsim.SparseState(layout, {(0, 0): 0.6, (1, 0): 0.8}), "h").support_size == 8
    three = qsim.SparseState(layout, {(g, 0): 3 ** -0.5 for g in range(3)})
    with pytest.raises(qsim.SimulatorError, match=r"3 x 2\^2 outputs, past the cap of 8"):
        qsim.hadamard_register(three, "h")


def _forward_state(oracle, layout):
    state = qsim.init_uniform(layout, "Q")
    return qsim.apply_oracle_xor(state, oracle, [(0, "Q", "N0")])


def test_oracle_xor_involution_and_parallel_support():
    rng = make_rng("qsim", 1)
    inst = sample_simon(2, rng)
    oracle = sample_shuffling(inst, 1, rng)
    layout = solver_layout(2, 1)
    state = _forward_state(oracle, layout)
    assert state.support_size == 4
    again = qsim.apply_oracle_xor(state, oracle, [(0, "Q", "N0")])
    uniform = qsim.init_uniform(layout, "Q")
    keys = set(again.amps) | set(uniform.amps)
    assert all(abs(again.amps.get(k, 0) - uniform.amps.get(k, 0)) < 1e-12 for k in keys)
    # one call querying two levels at once (a shared read of Q) is one layer
    # and keeps support size
    state2 = qsim.apply_oracle_xor(state, oracle, [(0, "Q", "N0"), (1, "Q", "N1")])
    assert state2.support_size == 4
    assert state2.norm() == pytest.approx(1.0)


def test_query_spec_validation():
    rng = make_rng("qsim", 2)
    inst = sample_simon(2, rng)
    oracle = sample_shuffling(inst, 1, rng)
    layout = solver_layout(2, 1)
    state = qsim.basis_state(layout)
    with pytest.raises(qsim.SimulatorError):
        qsim.apply_oracle_xor(state, oracle, [(0, "Q", "Q")])  # self loop
    with pytest.raises(qsim.SimulatorError):
        qsim.apply_oracle_xor(state, oracle, [(0, "Q", "N0"), (1, "Q", "N0")])
    with pytest.raises(qsim.SimulatorError):
        qsim.apply_oracle_xor(state, oracle, [(1, "Q", "N0")])  # wrong target width
    # one entry writing what another reads would chain two queries in one layer
    for spec in ([(0, "Q", "N0"), (1, "N0", "N1")], [(1, "N0", "N1"), (0, "Q", "N0")]):
        with pytest.raises(qsim.SimulatorError, match="both read and written"):
            qsim.apply_oracle_xor(state, oracle, spec)
    assert qsim.apply_oracle_xor(state, oracle, [(0, "Q", "N0"), (1, "Q", "N1")]).support_size == 1


def test_refused_layer_writes_nothing_and_charges_nothing():
    # the second group's target is too narrow for level 1; the first group
    # must not be answered (or merged) before the whole layer is refused
    rng = make_rng("qsim", "refused-layer")
    oracle = sample_shuffling(sample_simon(2, rng), 1, rng)
    layout = qsim.RegisterLayout(("Q", "N0", "R", "S"), (2, oracle.answer_bits(0), 2, 2))
    program = qsim.CircuitProgram(layout, (("uniform", "Q"), ("uniform", "R")))
    ledger = DepthLedger()
    machine = qsim.run_program(program, oracle, rng, ledger)
    groups, states = dict(machine._group_of), list(machine.states)
    with pytest.raises(qsim.SimulatorError, match="target register 'S' has width 2"):
        machine.oracle_layer(((0, "Q", "N0"), (1, "R", "S")))
    assert machine._group_of == groups
    assert all(after is before for after, before in zip(machine.states, states))
    assert machine.register_values("N0") == {0}
    assert ledger.oracle_layers_total == 0
    assert ledger.core_evaluations == 0


class _StubOracle:
    """Answers every point with one fixed value, in range or not."""

    domain_bits, domain_size = 2, 4

    def __init__(self, answer):
        self.answer = answer

    def answer_bits(self, level):
        return 3

    def values_at(self, level, xs, ledger=None):
        return [self.answer] * len(xs)


@pytest.mark.parametrize("answer", [8, -1])
def test_oracle_answer_outside_target_width_is_refused(answer):
    layout = layout_of(X=2, A=3)
    state = qsim.init_uniform(layout, "X")
    assert qsim.apply_oracle_xor(state, _StubOracle(7), [(0, "X", "A")]).register_values("A") == {7}
    with pytest.raises(qsim.SimulatorError, match="answered outside register 'A'"):
        qsim.apply_oracle_xor(state, _StubOracle(answer), [(0, "X", "A")])


def _repeating_layer(xs, answer_bits):
    """A state over (X, B, A) whose X reads xs in dict order; B tells repeats apart."""
    amp = len(xs) ** -0.5
    return qsim.SparseState(layout_of(X=6, B=2, A=answer_bits), {(x, b, 0): amp for b, x in enumerate(xs)})


def _layer_answers(state):
    return sorted(unpack(state.layout, key) for key in state.amps)


def test_layer_hands_the_oracle_every_input_in_state_order(monkeypatch):
    # the oracle alone dedups and orders a layer's queries
    rng = make_rng("qsim", "layer-order")
    oracle = sample_shuffling(sample_simon(2, rng), 1, rng)
    seen, real = [], oracle._encoded_answers
    monkeypatch.setattr(oracle, "_encoded_answers", lambda level, xs: seen.append(list(xs)) or real(level, xs))
    xs = [5, 2, 5, 0]
    out = qsim.apply_oracle_xor(_repeating_layer(xs, oracle.answer_bits(0)), oracle, [(0, "X", "A")])
    assert seen == [xs]
    assert _layer_answers(out) == sorted((x, b, oracle.query_point(0, x)) for b, x in enumerate(xs))


def test_layer_counts_each_distinct_core_point_once():
    rng = make_rng("qsim", "layer-core")
    oracle = sample_shuffling(sample_simon(2, rng), 1, rng)
    core = oracle.level_points(1).tolist()
    off = next(x for x in range(oracle.domain_size) if x not in core)
    ledger = DepthLedger()
    state = _repeating_layer([core[1], core[0], core[1], off], oracle.answer_bits(1))
    qsim.apply_oracle_xor(state, oracle, [(1, "X", "A")], ledger)
    assert ledger.core_evaluations == 2


def test_lazy_layer_reveals_fresh_points_in_state_order():
    xs = [5, 2, 5, 0]
    (oracle, _), (twin, _) = _twins(2, 1, "lazy", "layer-order")
    out = qsim.apply_oracle_xor(_repeating_layer(xs, oracle.answer_bits(0)), oracle, [(0, "X", "A")])
    distinct = list(dict.fromkeys(xs))
    given = dict(zip(distinct, twin.values_at(0, distinct)))
    assert _layer_answers(out) == sorted((x, b, given[x]) for b, x in enumerate(xs))
    assert oracle._rng.bit_generator.state == twin._rng.bit_generator.state


def test_measurement_collapse_one_to_one():
    rng = make_rng("qsim", 3)
    inst = sample_one_to_one(2, rng)
    oracle = sample_shuffling(inst, 0, rng)
    layout = solver_layout(2, 0)
    state = _forward_state(oracle, layout)
    outcome, post = qsim.measure_register(state, "N0", make_rng("qsim", 4))
    assert post.support_size == 1  # injective core pins down Q


def test_measurement_statistics():
    # Born rule against exact amplitudes: uniform over the core's image
    rng = make_rng("qsim", 5)
    inst = sample_one_to_one(2, rng)
    oracle = sample_shuffling(inst, 0, rng)
    layout = solver_layout(2, 0)
    state = _forward_state(oracle, layout)
    counts = np.zeros(4, dtype=int)
    for t in range(10_000):
        outcome, _ = qsim.measure_register(state, "N0", make_rng("qsim", 6, t))
        counts[inst.table.tolist().index(outcome)] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 4 * sigma)


def test_dense_roundtrip():
    layout = layout_of(a=1)
    vec = dense_statevector(qsim.SparseState(layout, {(1,): 1.0 + 0j}))
    assert np.allclose(vec, [0, 1])
    for seed in range(10):
        s = random_state(small_layout(), 100 + seed)
        back = state_from_dense(s.layout, dense_statevector(s))
        keys = set(s.amps) | set(back.amps)
        assert all(abs(s.amps.get(k, 0) - back.amps.get(k, 0)) < 1e-12 for k in keys)


def test_sparse_matches_dense_on_layers():
    rng = make_rng("qsim", 7)
    inst = sample_simon(2, rng)
    oracle = sample_shuffling(inst, 1, rng)
    layout = solver_layout(2, 1)
    sparse = qsim.init_uniform(layout, "Q")
    dense = DenseSim(layout)
    dense.init_uniform("Q")
    for spec in ([(0, "Q", "N0")], [(1, "N0", "N1")], [(0, "Q", "N0"), (1, "Q", "N1")]):
        sparse = qsim.apply_oracle_xor(sparse, oracle, spec)
        dense.oracle_layer(oracle, spec)
        assert np.max(np.abs(dense_statevector(sparse) - dense.vec)) < 1e-9
    sparse = qsim.hadamard_register(sparse, "Q")
    dense.hadamard("Q")
    assert np.max(np.abs(dense_statevector(sparse) - dense.vec)) < 1e-9


# -- array kernels against term-by-term references ---------------------------


def _loop_hadamard(state, register):
    """Hadamard as a term-by-term dict loop, the kernel's reference."""
    idx = state.layout.index(register)
    w = state.layout.width(register)
    scale = 2 ** (-w / 2)
    new_amps = {}
    for key, amp in state.amps.items():
        cfg = unpack(state.layout, key)
        base = list(cfg)
        for j in range(1 << w):
            sign = -1.0 if (cfg[idx] & j).bit_count() & 1 else 1.0
            base[idx] = j
            key = tuple(base)
            new_amps[key] = new_amps.get(key, 0j) + sign * scale * amp
    return qsim.SparseState(state.layout, new_amps)


def _loop_measure(state, register, rng):
    """Measurement with a dict-summed marginal, the kernel's reference."""
    idx = state.layout.index(register)
    marginal = {}
    for key, amp in state.amps.items():
        cfg = unpack(state.layout, key)
        marginal[cfg[idx]] = marginal.get(cfg[idx], 0.0) + abs(amp) ** 2
    outcomes = sorted(marginal)
    probs = np.array([marginal[v] for v in outcomes])
    probs = probs / probs.sum()
    pick = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    outcome = outcomes[min(pick, len(outcomes) - 1)]
    scale = 1.0 / np.sqrt(marginal[outcome])
    configs = (unpack(state.layout, key) for key in state.amps)
    keep = {c: a * scale for c, a in zip(configs, state.amps.values()) if c[idx] == outcome}
    return outcome, qsim.SparseState(state.layout, keep)


def _grouped_state(w, seed):
    """Several groups of the registers around `h`, some holding pairs of
    equal-weight members whose Hadamard outputs cancel exactly on half of j."""
    layout = layout_of(a=2, h=w, b=1)
    rng = make_rng("kernel", w, seed)
    amps = {}
    for a, b in [(3, 0), (0, 1), (1, 0), (0, 0)]:
        pair = (a + b) % 2 == 1
        members = rng.choice(1 << w, size=2 if pair else min(3, 1 << w), replace=False)
        shared = complex(rng.normal(), rng.normal())
        for v in members.tolist():
            amps[(a, v, b)] = shared if pair else complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(x) ** 2 for x in amps.values()))
    return qsim.SparseState(layout, {c: x / norm for c, x in amps.items()})


@pytest.mark.parametrize("w", [1, 3, 6])
def test_hadamard_kernel_matches_loop_and_dense(w):
    for seed in range(5):
        state = _grouped_state(w, seed)
        got = qsim.hadamard_register(state, "h")
        # same configs in the same order, same amplitudes to the last bit
        assert list(got.amps.items()) == list(_loop_hadamard(state, "h").amps.items())
        dense = DenseSim(state.layout)
        dense.vec = dense_statevector(state)
        dense.hadamard("h")
        assert np.max(np.abs(dense_statevector(got) - dense.vec)) < 1e-12
        assert got.support_size == np.count_nonzero(np.abs(dense.vec) > qsim.PRUNE_TOL)
        # each of the three pair groups keeps only half of its 2^w outputs
        assert got.support_size == (1 << w) + 3 * (1 << w) // 2


def test_measure_kernel_matches_dict_reference():
    for w in (1, 3, 6):
        for seed in range(5):
            state = _grouped_state(w, seed)
            for s in (state, qsim.hadamard_register(state, "h")):
                for reg in ("a", "h"):
                    for draw in range(4):
                        got = qsim.measure_register(s, reg, make_rng("measure", w, seed, draw))
                        want = _loop_measure(s, reg, make_rng("measure", w, seed, draw))
                        assert got[0] == want[0]
                        assert list(got[1].amps.items()) == list(want[1].amps.items())


def _wide_repeated_state(seed):
    """Twelve configs over three values of a 70-bit register (each above 2^64)
    and four of `r`, so every register's values repeat."""
    layout = layout_of(r=2, w=70, b=3)
    rng = make_rng("wide", seed)
    wide = [1 << 69 | int(v) for v in rng.integers(1 << 62, size=3)]
    amps = {}
    for r in range(4):
        for b in rng.choice(8, size=3, replace=False).tolist():
            amps[(r, wide[(r + b) % 3], b)] = complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(x) ** 2 for x in amps.values()))
    return qsim.SparseState(layout, {k: a / norm for k, a in amps.items()})


def test_measuring_a_state_twice_matches_a_fresh_reference():
    # the first measurement keeps the marginal that the second one reads
    for seed in range(4):
        state = _wide_repeated_state(seed)
        assert min(state.register_values("w")) >> 64 and len(state.register_values("r")) == 4
        for reg in ("r", "w", "b"):
            for draw in range(3):
                once, twice = (qsim.measure_register(state, reg, make_rng("twice", seed, reg, draw)) for _ in range(2))
                fresh = qsim.SparseState(state.layout, {unpack(state.layout, k): a for k, a in state.amps.items()})
                want = _loop_measure(fresh, reg, make_rng("twice", seed, reg, draw))
                for got in (once, twice):
                    assert got[0] == want[0]
                    assert list(got[1].amps.items()) == list(want[1].amps.items())


def test_numpy_magnitudes_and_squares_match_python_abs_and_pow():
    # the Hadamard's prune and every Born weight read np.hypot and
    # np.float_power(., 2) in place of abs() and ** 2, so a numpy whose hypot
    # or float_power rounds differently must fail here, not move seeded draws
    rng = make_rng("magnitudes")
    size = 200_000
    z = (rng.normal(size=size) + 1j * rng.normal(size=size)) * np.exp(rng.uniform(-60, 3, size=size))
    tol = qsim.PRUNE_TOL * (1 + np.arange(-64, 65) * np.finfo(float).eps)
    near_tol = np.concatenate([tol, 1j * tol, tol * np.exp(1j * rng.uniform(0, 2 * np.pi, size=tol.size))])
    # sums of +-2^(-w/2) terms that cancel exactly, or leave a last-bit residue
    x, y = rng.normal(size=1000) * 2 ** -3.5, rng.normal(size=1000) * 2 ** -3.5
    cancelled = np.concatenate([(x + 1j * y) - (x + 1j * y), ((x + y) - x - y) + 1j * ((y + x) - y - x)])
    tiny = np.array([5e-324, 1e-310, 1e-300j, 3e-200 + 4e-200j, 0j, -0.0 + 0j])
    z = np.concatenate([z, near_tol, cancelled, tiny])
    mags = np.hypot(z.real, z.imag)
    assert mags.tolist() == [abs(a) for a in z.tolist()]
    assert np.float_power(mags, 2).tolist() == [abs(a) ** 2 for a in z.tolist()]
    # one config per outcome, so each Born weight is one |a| ** 2 (m * m
    # differs from m ** 2 on about 1 in 1,200 magnitudes)
    amps = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    state = qsim.SparseState(layout_of(a=12), {(v,): a for v, a in enumerate((amps / np.linalg.norm(amps)).tolist())})
    assert state.marginal("a").weights.tolist() == [abs(a) ** 2 for a in state.amps.values()]
    out = qsim.hadamard_register(state, "a")
    assert out.marginal("a").weights.tolist() == [abs(a) ** 2 for a in out.amps.values()]


@st.composite
def _hadamard_cases(draw):
    """A state, one register to Fourier-sample, a seed and a Hadamard cap: the
    register first, in the middle or last, beside 1-, 2- or 70-bit registers
    (keys past 63 bits), few values per register (so configs share groups),
    and amplitudes from a small set (so outputs cancel exactly); a scale off 1
    makes the state's norm drift."""
    w = draw(st.integers(1, 5))
    others = draw(st.lists(st.sampled_from([1, 2, 70]), max_size=2))
    at = draw(st.integers(0, len(others)))
    widths = tuple(others[:at] + [w] + others[at:])
    layout = qsim.RegisterLayout(tuple(f"r{i}" for i in range(len(widths))), widths)
    values = [draw(st.lists(st.integers(0, (1 << x) - 1), min_size=1, max_size=4 if i == at else 2, unique=True))
              for i, x in enumerate(widths)]
    configs = draw(st.lists(st.tuples(*map(st.sampled_from, values)), min_size=1, max_size=8, unique=True))
    amps = draw(st.lists(st.sampled_from([1, -1, 1j, 0.5 - 0.25j, 3]), min_size=len(configs), max_size=len(configs)))
    scale = draw(st.sampled_from([1.0, 1.0, 1 + 1e-6])) / np.sqrt(sum(abs(a) ** 2 for a in amps))
    amps = {layout.pack(c): complex(a * scale) for c, a in zip(configs, amps)}
    state = qsim.SparseState._trusted(layout, amps, check_norm=False)
    return state, layout.names[at], draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1 << 24, 8, 4]))


def _bits(result):
    """A read-out's outcome and collapsed state to the last bit, or its refusal."""
    if isinstance(result, str):
        return result
    j, state = result
    return j, state.layout, [(k, a.real.hex(), a.imag.hex()) for k, a in state.amps.items()]


def _refusal_or(read):
    try:
        return read()
    except qsim.SimulatorError as err:
        return str(err)


@given(_hadamard_cases())
def test_fourier_sample_is_the_hadamard_then_the_measurement(case):
    state, reg, seed, cap = case
    fused, split = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsim, "HADAMARD_ENTRIES", cap)
        got = _refusal_or(lambda: qsim.fourier_sample(state, reg, fused))
        want = _refusal_or(lambda: qsim.measure_register(qsim.hadamard_register(state, reg), reg, split))
    assert _bits(got) == _bits(want)
    assert fused.bit_generator.state == split.bit_generator.state


def _module_containers():
    # the kept steps go with their oracles, tested below
    return {name: len(v) for name, v in vars(qsim).items()
            if isinstance(v, (dict, list, set, weakref.WeakKeyDictionary))
            and name not in ("__builtins__", "_steps")}


def test_kept_marginals_die_with_their_states():
    def live_marginals():
        gc.collect()
        return sum(isinstance(o, qsim.Marginal) for o in gc.get_objects())

    layout = layout_of(a=3, b=4)
    live = live_marginals()
    held = _module_containers()
    state = random_state(layout, 5000)
    qsim.measure_register(state, "a", make_rng("lifetime", 500))
    assert live_marginals() == live + 1
    for seed in range(500):
        state = random_state(layout, 5001 + seed)
        qsim.measure_register(state, "a", make_rng("lifetime", seed))
    del state
    assert live_marginals() <= live
    assert _module_containers() == held


def test_kept_columns_die_with_their_states():
    layout = layout_of(a=3, b=4)
    held = _module_containers()
    columns = []
    for seed in range(500):
        state = random_state(layout, 6000 + seed)
        col = state.column("b", 2)
        assert state.column("b", 2) is col and not col.flags.writeable
        assert col.tolist() == [unpack(layout, key)[1] & 3 for key in state.amps]
        columns.append(weakref.ref(col))
    assert columns[-1]() is not None
    del state, col
    gc.collect()
    assert not any(ref() for ref in columns)
    assert _module_containers() == held


# -- distances ---------------------------------------------------------------


def _pure_pair(seed):
    layout = layout_of(r=3)
    return random_state(layout, seed), random_state(layout, seed + 1)


def test_fidelity_extremes():
    a, b = _pure_pair(200)
    assert qsim.fidelity(a, a) == pytest.approx(1.0)
    layout = layout_of(r=1)
    zero = qsim.basis_state(layout)
    one = qsim.SparseState(layout, {(1,): 1.0 + 0j})
    assert qsim.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert qsim.bures_distance(zero, one) == pytest.approx(np.sqrt(2))
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert qsim.bures_distance(a, a) == pytest.approx(0.0, abs=1e-7)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-7)


def test_pure_state_fidelity_is_overlap():
    for seed in range(20):
        a, b = _pure_pair(300 + 2 * seed)
        overlap = abs(sum(amp.conjugate() * b.amps.get(k, 0) for k, amp in a.amps.items()))
        assert qsim.fidelity(a, b) == pytest.approx(overlap, abs=1e-9)
        assert abs(qsim.fidelity(a, b) - qsim.fidelity(b, a)) < 1e-9


def test_distance_chain_inequality():
    # TD <= sqrt(1 - F^2) <= Bures, and B = sqrt(2 - 2F)
    for seed in range(30):
        a, b = _pure_pair(400 + 2 * seed)
        ens_a = qsim.MixedEnsemble.uniform([a, random_state(a.layout, 900 + seed)])
        ens_b = qsim.MixedEnsemble.uniform([b, random_state(b.layout, 950 + seed)])
        f = qsim.fidelity(ens_a, ens_b)
        td = trace_distance(ens_a, ens_b)
        bu = qsim.bures_distance(ens_a, ens_b)
        assert bu == pytest.approx(np.sqrt(2 - 2 * f), abs=1e-9)
        assert td <= np.sqrt(1 - f * f) + 1e-9
        assert np.sqrt(1 - f * f) <= bu * np.sqrt(2) / np.sqrt(2 - bu**2 / 2 + 1e-15) + 1e-9
        assert td <= bu + 1e-9


def _random_ensemble(rng, pool):
    # components drawn from a shared pool, repeats allowed, so supports
    # overlap and the density matrix can be rank-deficient; random weights
    picks = rng.choice(len(pool), size=int(rng.integers(1, 6)))
    weights = rng.random(len(picks)) + 0.1
    weights /= weights.sum()
    comps = [(float(p), pool[i]) for p, i in zip(weights, picks)]
    comps[-1] = (1.0 - sum(p for p, _ in comps[:-1]), comps[-1][1])
    return qsim.MixedEnsemble(tuple(comps))


def _ensemble_pairs(name, count=100):
    layout = layout_of(r=3, s=2)
    rng = make_rng(name)
    pool = [random_state(layout, 1000 + i, support=int(rng.integers(1, 12))) for i in range(12)]
    pairs = [(_random_ensemble(rng, pool), _random_ensemble(rng, pool)) for _ in range(count)]
    return [(pool[0], pool[1]), (pool[2], qsim.MixedEnsemble.uniform([pool[2]] * 3)), *pairs]


def test_fidelity_is_exactly_symmetric():
    for a, b in _ensemble_pairs("fidelity-symmetry"):
        assert qsim.fidelity(a, b) == qsim.fidelity(b, a)
        assert qsim.bures_distance(a, b) == qsim.bures_distance(b, a)
        assert qsim.bures_distance(a, a) == 0.0


def test_fidelity_matches_dense_reference():
    for a, b in _ensemble_pairs("fidelity-dense"):
        assert qsim.fidelity(a, b) == pytest.approx(dense_fidelity(a, b), abs=1e-12)


def test_sparse_route_matches_dense_route(monkeypatch):
    # past DENSE_ENTRIES the cross overlaps come from the key join
    pairs = _ensemble_pairs("sparse-route")
    default = [qsim.fidelity(a, b) for a, b in pairs]
    join, calls = qsim._join, []
    monkeypatch.setattr(qsim, "_join", lambda *args: calls.append(1) or join(*args))
    monkeypatch.setattr(qsim, "DENSE_ENTRIES", 0)
    for (a, b), f in zip(pairs, default):
        calls.clear()
        assert qsim.fidelity(a, b) == qsim.fidelity(b, a)
        assert calls
        assert qsim.fidelity(a, b) == pytest.approx(f, abs=1e-12)
        assert qsim.fidelity(a, b) == pytest.approx(dense_fidelity(a, b), abs=1e-12)


def _pooled_real_and_shadow(pairs, seed):
    # the O2H lab's pooled ensembles at n=1, d=1 (9 bits): both levels
    # queried from a uniform X under real oracles and their round-1 shadows
    layout = qsim.RegisterLayout(("X", "A0", "A1"), (3, 4, 2))
    state, rng = qsim.init_uniform(layout, "X"), make_rng("pooled", seed)
    spec = [(0, "X", "A0"), (1, "X", "A1")]
    reals, shadows = [], []
    for _ in range(pairs):
        orc = sample_shuffling(sample_simon(1, rng), 1, rng)
        reals.append(qsim.apply_oracle_xor(state, orc, spec))
        shadows.append(qsim.apply_oracle_xor(state, hiding.ShadowOracle(orc, hiding.sample_hidden_sets(orc, rng), 1), spec))
    return qsim.MixedEnsemble.uniform(reals), qsim.MixedEnsemble.uniform(shadows)


def _shared_support_ensemble(count, seed):
    layout, rng = layout_of(r=6), make_rng("shared-support", seed)
    states = []
    for _ in range(count):
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        amps /= np.linalg.norm(amps)
        states.append(qsim.SparseState(layout, {(v,): a for v, a in enumerate(amps.tolist())}))
    return qsim.MixedEnsemble.uniform(states)


def _matched_pairs(a, b):
    keys = [k for _, s in a.components for k in s.amps]
    return sum(keys.count(k) for _, s in b.components for k in s.amps)


@pytest.mark.parametrize("case", ["pooled", "shared-support", "multi-block"])
def test_fidelity_routes_match_the_dense_reference(monkeypatch, case):
    # few matched key pairs take the join, blocked by JOIN_BLOCK; many
    # components on one support take the dense product
    if case == "shared-support":
        a, b = _shared_support_ensemble(300, 0), _shared_support_ensemble(300, 1)
    else:
        a, b = _pooled_real_and_shadow(8, 0)
    one_block = qsim.fidelity(a, b)
    joins, join = [], qsim._join
    monkeypatch.setattr(qsim, "_join", lambda *args: joins.append(1) or join(*args))
    if case == "multi-block":
        monkeypatch.setattr(qsim, "JOIN_BLOCK", 3)
        assert _matched_pairs(a, b) > 20 * qsim.JOIN_BLOCK
    f = qsim.fidelity(a, b)
    assert f == qsim.fidelity(b, a)
    assert f == pytest.approx(dense_fidelity(a, b), abs=1e-12)
    assert len(joins) == (0 if case == "shared-support" else 4)
    # blocks add in the order one block does, so they change no bit
    assert f == one_block


def test_fidelity_refuses_ensembles_on_different_layouts():
    # key 1 is (1,) on ("a",) and (0, 1) on ("b", "c"): the packed keys collide
    a = qsim.SparseState(layout_of(a=2), {(1,): 1.0})
    b = qsim.SparseState(layout_of(b=1, c=1), {(0, 1): 1.0})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(qsim.SimulatorError, match="one layout"):
            qsim.bures_distance(x, qsim.MixedEnsemble.pure(y))


@pytest.mark.parametrize("p", [-0.5, float("nan")])
def test_ensemble_refuses_a_negative_probability(p):
    s, u = _pure_pair(700)
    with pytest.raises(ValueError, match="non-negative"):
        qsim.MixedEnsemble(((1.0 - p, s), (p, u)))


def test_uniform_ensemble_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="at least one component"):
        qsim.MixedEnsemble.uniform([])


def test_gram_route_matches_dense_density():
    # fidelity via component Gram matrices equals the dense-matrix computation
    layout = layout_of(r=3)
    for seed in range(10):
        states_a = [random_state(layout, 500 + seed * 7 + i) for i in range(3)]
        states_b = [random_state(layout, 600 + seed * 7 + i) for i in range(2)]
        ens_a = qsim.MixedEnsemble.uniform(states_a)
        ens_b = qsim.MixedEnsemble.uniform(states_b)
        rho = np.zeros((8, 8), dtype=complex)
        for s in states_a:
            v = dense_statevector(s)
            rho += np.outer(v, v.conj()) / len(states_a)
        sig = np.zeros((8, 8), dtype=complex)
        for s in states_b:
            v = dense_statevector(s)
            sig += np.outer(v, v.conj()) / len(states_b)
        def droot(m):
            w, vecs = np.linalg.eigh(m)
            w = np.clip(w, 0, None)
            w[w < w.max() * 1e-12] = 0.0
            return (vecs * np.sqrt(w)) @ vecs.conj().T

        f_dense = float(np.linalg.svd(droot(rho) @ droot(sig), compute_uv=False).sum())
        assert qsim.fidelity(ens_a, ens_b) == pytest.approx(f_dense, abs=1e-9)


def test_component_cap_refuses_the_span_solve():
    zero = qsim.basis_state(layout_of(r=1))
    many = qsim.MixedEnsemble(tuple((1.0 / 4097, zero) for _ in range(4097)))
    with pytest.raises(qsim.SimulatorError, match="4098 components exceed the cap of 4096"):
        qsim.bures_distance(many, zero)


# -- kept steps (Interpreter) ------------------------------------------------


def _solver_programs(n, d):
    """The round program, a test-only copy of it with every measurement moved
    to the end, and the truncated adversary's longest prefix."""
    chase = round_program(n, d)
    deferred = qsim.CircuitProgram(chase.layout, tuple(op for op in chase.ops if op[0] != "measure"))
    truncated = qsim.CircuitProgram(chase.layout, chase.ops[: 2 + d])
    return chase, deferred.measure_all(), truncated.measure_all()


def _reference(program, oracle, rng, ledger):
    return store_free(qsim.run_program, program, oracle, rng, ledger)


def _twins(n, d, backend, *key):
    rngs = make_rng("twins", n, d, backend, *key), make_rng("twins", n, d, backend, *key)
    return [(sample_shuffling(sample_simon(n, r), d, r, backend=backend), r) for r in rngs]


def _count_layers(monkeypatch):
    # the interpreter answers a validated layer through qsim's private path
    calls = []
    real = qsim._xor_layer
    monkeypatch.setattr(qsim, "_xor_layer", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def _kept_paths(oracle):
    return sorted(path for _, path in qsim._steps.get(oracle, {}))


@pytest.mark.parametrize("backend", ["materialized", "lazy"])
@pytest.mark.parametrize("n,d", [(3, 1), (4, 2), (2, 3)])
def test_reused_prefix_equals_a_rerun(monkeypatch, backend, n, d):
    (memo_orc, memo_rng), (plain_orc, plain_rng) = _twins(n, d, backend)
    memo_ledger, plain_ledger = DepthLedger(), DepthLedger()
    calls = _count_layers(monkeypatch)
    counts = {"memo": 0, "plain": 0}
    for _ in range(5):
        for program in _solver_programs(n, d):
            before = len(calls)
            memo = qsim.run_program(program, memo_orc, memo_rng, memo_ledger)
            counts["memo"] += len(calls) - before
            before = len(calls)
            plain = _reference(program, plain_orc, plain_rng, plain_ledger)
            counts["plain"] += len(calls) - before
            assert plain_orc not in qsim._steps
            assert memo.outcomes == plain.outcomes
            # a linked group's state sits at its first register; the rest hold None
            assert [s and (s.layout, list(s.amps.items())) for s in memo.states] == [
                s and (s.layout, list(s.amps.items())) for s in plain.states
            ]
            assert memo_ledger == plain_ledger
            assert memo_rng.bit_generator.state == plain_rng.bit_generator.state
    # each step before a measurement ran once: the round's chase of d+1
    # layers, then the d uncompute layers of the test-only copy that
    # measures only at the end (the truncated prefix is the chase); every
    # round uncomputes after its core measurement, d layers each time
    assert counts["plain"] == 5 * (5 * d + 3)
    assert counts["memo"] == (d + 1) + d + 5 * d


def test_prefix_refused_by_the_budget_is_not_stored(monkeypatch):
    # the layers before the refused one were answered and are kept; the
    # refused layer is not, so a rerun computes it and nothing else
    n, d = 3, 2
    _, deferred, _ = _solver_programs(n, d)
    (orc, rng), (plain_orc, plain_rng) = _twins(n, d, "lazy", "budget")
    calls = _count_layers(monkeypatch)
    refused = []
    for run, o, r in ((qsim.run_program, orc, rng), (_reference, plain_orc, plain_rng)):
        ledger = DepthLedger(budget=SchemeBudget(depth=2 * d))
        with pytest.raises(DepthViolation, match="depth budget of 4 layers"):
            run(deferred, o, r, ledger)
        refused.append(ledger)
    assert refused[0] == refused[1]
    assert len(calls) == 2 * (2 * d)
    assert list(map(len, _kept_paths(orc))) == list(range(1, 2 * d + 2))
    for computed in (1, 0):
        before = len(calls)
        qsim.run_program(deferred, orc, rng, DepthLedger())
        assert len(calls) - before == computed


def test_prefix_refused_by_the_lazy_oracle_is_not_stored(monkeypatch):
    # after a refutation the lazy backend refuses an off-chain reveal
    rng = np.random.default_rng(15)
    orc = sample_shuffling(sample_simon(2, rng), 1, rng, backend="lazy")
    assert orc.query_point(1, 40) is BOT
    layout = qsim.RegisterLayout(("U", "V"), (orc.domain_bits, orc.answer_bits(0)))
    program = qsim.CircuitProgram(layout, (("uniform", "U"), ("oracle", ((0, "U", "V"),)))).measure_all()
    calls = _count_layers(monkeypatch)
    for tries in (1, 2):
        with pytest.raises(OracleError, match="off-chain reveal"):
            qsim.run_program(program, orc, rng, DepthLedger())
        assert len(calls) == tries
    # U's group is alone until the refused layer links it to V
    assert _kept_paths(orc) == [(("uniform", 0),)]


@pytest.mark.parametrize("backend", ["materialized", "lazy"])
def test_replay_refused_by_the_budget_matches_a_rerun(backend):
    n, d = 3, 2
    round_, deferred, _ = _solver_programs(n, d)
    (memo_orc, memo_rng), (plain_orc, plain_rng) = _twins(n, d, backend, "replay-refused")
    for program, depth in ((deferred, 2 * d), (round_, d)):
        qsim.run_program(program, memo_orc, memo_rng, DepthLedger())
        _reference(program, plain_orc, plain_rng, DepthLedger())
        refused = []
        for run, orc, rng in ((qsim.run_program, memo_orc, memo_rng), (_reference, plain_orc, plain_rng)):
            ledger = DepthLedger(budget=SchemeBudget(depth=depth))
            with pytest.raises(DepthViolation) as err:
                run(program, orc, rng, ledger)
            assert err.value.ledger is ledger
            refused.append((str(err.value), ledger))
        assert refused[0] == refused[1]
        assert refused[0][1].violations == [f"depth budget of {depth} layers per circuit exceeded"]
        assert memo_rng.bit_generator.state == plain_rng.bit_generator.state


def test_prefixes_go_with_their_oracle():
    (orc, rng), _ = _twins(3, 1, "lazy", "lifetime")
    qsim.run_program(round_program(3, 1), orc, rng, DepthLedger())
    chase = (("uniform", 0), ("oracle", ((0, 0, 1),)), ("oracle", ((1, 1, 2),)))
    assert (round_program(3, 1).layout.widths, chase) in qsim._steps[orc]
    # the chase's three steps; the core measurement ends the path
    assert len(qsim._steps[orc]) == 3
    held, alive = len(qsim._steps), weakref.ref(orc)
    del orc
    gc.collect()
    assert alive() is None
    assert len(qsim._steps) < held


@pytest.mark.parametrize("d", [0, 1, 2])
def test_steady_round_reuses_the_kept_core_marginal(monkeypatch, d):
    # the core measurement reads the kept chase state, whose marginal the
    # first round built; the uncompute checks of N0..N{d-1} read the one
    # config left after measuring Q from its columns and build no marginal
    n = 6
    (orc, rng), _ = _twins(n, d, "lazy", "steady-marginal")
    built, real = [], qsim.Marginal
    monkeypatch.setattr(qsim, "Marginal", lambda *fields: built.append(len(fields[0])) or real(*fields))
    rounds = []
    for _ in range(3):
        built.clear()
        run_simon_round(orc, rng)
        rounds.append(list(built))
    assert rounds[0] == [1 << n, 1 << (n - 1)]
    assert rounds[1] == rounds[2] == [1 << (n - 1)]


def test_replayed_prefix_still_initializes_after_many_other_programs():
    # the replayed states hold the first run's fresh group for B; it must
    # still read as unused after more distinct programs than a bounded cache
    # of linked groups would keep
    (orc, rng), _ = _twins(2, 1, "materialized", "replay-evicted")
    caps = CircuitSchemeCaps(orc, SchemeBudget(), rng)
    layout = qsim.RegisterLayout(("A", "B"), (2, 2))
    program = qsim.CircuitProgram(layout, (("uniform", "A"), ("measure", "A"), ("uniform", "B")))
    caps.run_circuit(program)
    for i in range(257):
        name = f"R{i}"
        caps.run_circuit(qsim.CircuitProgram(qsim.RegisterLayout((name,), (1,)), (("uniform", name),)))
    assert set(caps.run_circuit(program)) == {"A", "B"}


def test_measure_all_skips_registers_measured_since_their_last_write():
    def final(layout, *ops):
        return qsim.CircuitProgram(layout, ops).measure_all().ops[len(ops):]

    m = lambda r: ("measure", r)
    one, two = layout_of(A=2), layout_of(A=2, B=3)
    assert final(one, ("uniform", "A"), m("A")) == ()
    assert final(one, ("uniform", "A"), m("A"), ("hadamard", "A")) == (m("A"),)
    # an oracle input is only read; its target is written
    layer = ("oracle", ((0, "A", "B"),))
    assert final(two, ("uniform", "A"), m("A"), layer) == (m("B"),)
    assert final(two, ("uniform", "A"), layer, m("B"), m("A"), layer) == (m("B"),)
    # a register neither written nor measured is measured
    assert final(two, ("uniform", "A")) == (m("A"), m("B"))
    # the solver round measured Q and N2 itself; N0 and N1 were uncomputed
    solver = round_program(3, 2)
    assert final(solver.layout, *solver.ops) == (m("N0"), m("N1"))
