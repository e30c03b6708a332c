import numpy as np
import pytest

from shufflesim import hiding, oracle, qsim, simon
from shufflesim.oracle import BOT, OracleError

from conftest import make_rng
from dense_reference import table_answers, unpack


def _simon_oracle(n, d, rng):
    return oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)


def _uniform_over_domain(layout, name):
    return qsim.init_uniform(layout, name)


# -- frozenset and per-point references the array kernels must match --------


def _frozenset_hidden_sets(orc, rng):
    """Reference sampler: frozensets, the true set rebuilt from a frozenset
    of the level points; the array sampler must match it draw for draw."""
    n, d = orc.n, orc.d
    sets = {}
    parent = None
    for l in range(1, d + 1):
        if parent is None:
            parent = np.arange(orc.domain_size, dtype=np.int64)
        true_set = np.fromiter(sorted(frozenset(orc.level_points(l).tolist())), dtype=np.int64)
        target = orc.domain_size >> (n * l)
        pool = np.setdiff1d(parent, true_set, assume_unique=True)
        extra = rng.choice(pool, size=target - len(true_set), replace=False)
        chosen = np.sort(np.concatenate([true_set, extra]))
        sets[(l, l)] = frozenset(int(p) for p in chosen)
        pts = chosen
        for j in range(l + 1, d + 1):
            pts = orc.tables[j - 1][pts]
            sets[(j, l)] = frozenset(int(p) for p in pts)
            if j == l + 1:
                parent = np.sort(pts)
    return sets


def _pointwise_shadow_answers(orc, sets, l, level, xs):
    """Reference shadow layer: one frozenset lookup and one table read per point."""
    base = table_answers(orc, level, xs)
    return [
        orc.encode_answer(level, BOT) if level >= l and x in sets[(level, l)] else a
        for x, a in zip(xs, base)
    ]


def _loop_find_probability(state, orc, query_spec, sets, l):
    """Reference find probability: per-config frozenset lookups, summed in dict order."""
    mask = orc.domain_size - 1
    slots = [(level, state.layout.index(in_reg)) for level, in_reg, _ in query_spec if level >= l]
    total = 0.0
    for key, amp in state.amps.items():
        cfg = unpack(state.layout, key)
        if any((cfg[idx] & mask) in sets[(level, l)] for level, idx in slots):
            total += abs(amp) ** 2
    return total


def _sparse_query_state(orc, rng, support=40):
    # two input registers with random values and random amplitudes; the flag
    # bit above the domain is set on some inputs and must be ignored
    bits = orc.domain_bits
    layout = qsim.RegisterLayout(("X", "Y", "A"), (bits + 1, bits + 1, bits + 1))
    keys = set()
    while len(keys) < support:
        keys.add((int(rng.integers(2 << bits)), int(rng.integers(2 << bits)), 0))
    amps = {k: complex(rng.normal(), rng.normal()) for k in keys}
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return qsim.SparseState(layout, {k: a / norm for k, a in amps.items()})


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_array_kernels_match_frozenset_references(n, d):
    bits = (d + 2) * n
    names = ["X"] + [f"A{i}" for i in range(d + 1)]
    layout = qsim.RegisterLayout(tuple(names), (bits,) + (bits + 1,) * d + (n + 1,))
    flat = _uniform_over_domain(layout, "X")
    full_spec = [(i, "X", f"A{i}") for i in range(d + 1)]
    for seed in range(3):
        rng = make_rng("kernels", n, d, seed)
        orc = _simon_oracle(n, d, rng)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        hidden = hiding.sample_hidden_sets(orc, rng)
        sets = _frozenset_hidden_sets(orc, twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert set(hidden.sets) == set(sets)
        for key, pts in hidden.sets.items():
            assert pts.dtype == np.int64 and np.all(pts[1:] > pts[:-1])
            assert set(pts.tolist()) == sets[key]

        xs = sorted(set(rng.integers(orc.domain_size, size=200).tolist()))
        sparse = _sparse_query_state(orc, rng)
        for l in range(1, d + 1):
            shadow = hiding.ShadowOracle(orc, hidden, l)
            for level in range(d + 1):
                for points in (xs, list(range(orc.domain_size))):
                    want = _pointwise_shadow_answers(orc, sets, l, level, points)
                    assert shadow.values_at(level, points) == want
            for state, spec in (
                (flat, full_spec),
                (sparse, [(l, "X", "A")]),
                (sparse, [(0, "X", "A"), (l, "X", "A"), (d, "Y", "A")]),
            ):
                got = hiding.find_probability(state, orc, spec, hidden, l)
                assert got == _loop_find_probability(state, orc, spec, sets, l)


def test_lab_paths_never_build_level_frozensets(monkeypatch):
    # the O2H checks read the true and hidden level sets as arrays only
    def refuse(*args):
        raise AssertionError("a frozenset was built on an O2H path")

    for module in (hiding, oracle):
        monkeypatch.setattr(module, "frozenset", refuse, raising=False)
    rng = make_rng("no-frozensets")
    sampler = lambda r: _simon_oracle(2, 2, r)
    orc = sampler(rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    assert all(isinstance(pts, np.ndarray) for pts in hidden.sets.values())
    layout = qsim.RegisterLayout(("X", "A"), (orc.domain_bits, orc.domain_bits + 1))
    state = _uniform_over_domain(layout, "X")
    assert hiding.check_hiding_bound(state, [(orc, hidden)], 1, [(1, "X", "A")]).all_hold
    assert hiding.check_find_bound(state, orc, [(1, "X", "A")], 1, rng, resamples=5).holds
    hiding.estimate_membership(sampler, 2, 1, trials=20, rng=rng)


def test_hidden_set_keys_and_sizes():
    rng = make_rng("keys")
    orc = _simon_oracle(2, 1, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    assert set(hidden.sets) == {(1, 1)}
    assert len(hidden.set_at(1, 1)) == orc.domain_size >> 2

    deep = _simon_oracle(2, 2, rng)
    hidden = hiding.sample_hidden_sets(deep, rng)
    assert set(hidden.sets) == {(1, 1), (2, 1), (2, 2)}
    for (j, l), pts in hidden.sets.items():
        assert len(pts) == deep.domain_size >> (2 * l)


def test_hidden_sets_follow_the_shuffle():
    # each round's deeper sets are the previous level's image, and round
    # l+1 draws inside round l's set at the same level
    rng = make_rng("chain")
    orc = _simon_oracle(2, 2, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    pushed = {int(orc.tables[1][x]) for x in hidden.set_at(1, 1)}
    assert pushed == set(hidden.set_at(2, 1))
    assert set(hidden.set_at(2, 2)) <= set(hidden.set_at(2, 1))


def test_true_level_sets_stay_hidden():
    rng = make_rng("containment")
    orc = _simon_oracle(2, 2, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    for (j, l), pts in hidden.sets.items():
        assert set(orc.level_points(j).tolist()) <= set(pts.tolist())


def test_hidden_sets_require_materialized_backend():
    rng = make_rng("lazy-reject")
    orc = oracle.sample_shuffling(simon.sample_simon(2, rng), 1, rng, backend="lazy")
    with pytest.raises(OracleError):
        hiding.sample_hidden_sets(orc, rng)


def test_shadow_blanks_exactly_the_hidden_points():
    rng = make_rng("shadow")
    orc = _simon_oracle(2, 2, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    sh = hiding.ShadowOracle(orc, hidden, 2)
    for x in range(0, orc.domain_size, 7):
        assert sh.query_point(0, x) == orc.query_point(0, x)
        assert sh.query_point(1, x) == orc.query_point(1, x)
        want = BOT if hidden.contains(2, 2, x) else orc.query_point(2, x)
        assert sh.query_point(2, x) == want
    low = hiding.ShadowOracle(orc, hidden, 1)
    for x in range(0, orc.domain_size, 7):
        blanked = BOT if hidden.contains(1, 1, x) else orc.query_point(1, x)
        assert low.query_point(1, x) == blanked
    with pytest.raises(OracleError):
        sh.query_path(0)


def test_shadow_round_out_of_range():
    rng = make_rng("shadow-range")
    orc = _simon_oracle(2, 1, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    with pytest.raises(ValueError):
        hiding.ShadowOracle(orc, hidden, 0)
    with pytest.raises(ValueError):
        hiding.ShadowOracle(orc, hidden, 2)


def test_find_probability_extremes():
    rng = make_rng("pfind")
    orc = _simon_oracle(2, 1, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    layout = qsim.RegisterLayout(("X", "A"), (orc.domain_bits, orc.n + 1))
    spec = [(1, "X", "A")]
    inside = min(hidden.set_at(1, 1))
    outside = min(set(range(orc.domain_size)) - set(hidden.set_at(1, 1)))
    on = qsim.SparseState(layout, {(inside, 0): 1.0})
    off = qsim.SparseState(layout, {(outside, 0): 1.0})
    assert hiding.find_probability(on, orc, spec, hidden, 1) == pytest.approx(1.0, abs=1e-9)
    assert hiding.find_probability(off, orc, spec, hidden, 1) == pytest.approx(0.0, abs=1e-9)
    flat = _uniform_over_domain(layout, "X")
    # hidden density inside the full domain is exactly 2^-n
    assert hiding.find_probability(flat, orc, spec, hidden, 1) == pytest.approx(0.25, abs=1e-9)


def test_hiding_bound_small_sweep():
    rng = make_rng("bound-sweep")
    for d in (1, 2):
        n = 2
        domain_bits = (d + 2) * n
        names = ["X"] + [f"A{i}" for i in range(d + 1)]
        widths = [domain_bits] + [domain_bits + 1] * d + [n + 1]
        layout = qsim.RegisterLayout(tuple(names), tuple(widths))
        state = _uniform_over_domain(layout, "X")
        spec = [(i, "X", f"A{i}") for i in range(d + 1)]
        for l in range(1, d + 1):
            pairs = []
            for _ in range(10):
                orc = _simon_oracle(n, d, rng)
                pairs.append((orc, hiding.sample_hidden_sets(orc, rng)))
            rep = hiding.check_hiding_bound(state, pairs, l, spec)
            assert rep.samples == 10
            assert rep.per_sample_holds == 10
            # flag-encoded answers make real and shadow outputs orthogonal on
            # every hidden input, so the per-sample bound is an equality
            assert rep.max_per_sample_slack == pytest.approx(0.0, abs=1e-12)
            assert rep.pooled_holds
            assert rep.all_hold
            assert rep.lhs_bures <= np.sqrt(2 * rep.mean_p_find) + 1e-9


def test_o2h_checks_unpack_the_query_state_once():
    # the pairs' real and shadow layers and every find probability read one
    # kept X column; each unpacking shifts every key of the state once
    shifts = []

    class Key(int):
        def __rshift__(self, off):
            shifts.append(off)
            return int(self) >> off

    n, d, l = 2, 2, 1
    bits = (d + 2) * n
    layout = qsim.RegisterLayout(("X", "A0", "A1", "A2"), (bits, bits + 1, bits + 1, n + 1))
    spec = [(i, "X", f"A{i}") for i in range(d + 1)]
    plain = _uniform_over_domain(layout, "X")
    state = qsim.SparseState._trusted(layout, {Key(k): a for k, a in plain.amps.items()})
    rng = make_rng("unpack-once")
    pairs = []
    for _ in range(4):
        orc = _simon_oracle(n, d, rng)
        pairs.append((orc, hiding.sample_hidden_sets(orc, rng)))
    reports = [hiding.check_hiding_bound(s, pairs, l, spec) for s in (state, plain)]
    assert len(shifts) == len(state.amps)
    assert reports[0] == reports[1]
    find = hiding.check_find_bound(state, pairs[0][0], spec, l, make_rng("unpack-once", 1), resamples=5)
    assert len(shifts) == len(state.amps)
    assert find == hiding.check_find_bound(plain, pairs[0][0], spec, l, make_rng("unpack-once", 1), resamples=5)


def test_find_bound_single_slot_is_exact():
    rng = make_rng("fb-one")
    orc = _simon_oracle(2, 1, rng)
    layout = qsim.RegisterLayout(("X", "A"), (orc.domain_bits, orc.n + 1))
    state = _uniform_over_domain(layout, "X")
    rep = hiding.check_find_bound(state, orc, [(1, "X", "A")], 1, rng, resamples=50)
    assert rep.query_slots == 1
    assert rep.precondition_respected
    # every draw places exactly a 2^-n fraction of the uniform mass on
    # hidden points, so the mean is the bound itself
    assert rep.mean_p_find == pytest.approx(0.25, abs=1e-9)
    assert rep.holds


def test_find_bound_correlated_slots():
    # two query slots carrying X and X xor c: marginally uniform each, so
    # the union bound q/2^n still covers the find probability
    rng = make_rng("fb-two")
    orc = _simon_oracle(2, 1, rng)
    c = 19 % orc.domain_size
    layout = qsim.RegisterLayout(
        ("X", "Y", "A", "B"), (orc.domain_bits, orc.domain_bits, orc.n + 1, orc.n + 1)
    )
    amp = 1 / np.sqrt(orc.domain_size)
    amps = {(v, v ^ c, 0, 0): amp for v in range(orc.domain_size)}
    state = qsim.SparseState(layout, amps)
    spec = [(1, "X", "A"), (1, "Y", "B")]
    rep = hiding.check_find_bound(state, orc, spec, 1, rng, resamples=60)
    assert rep.query_slots == 2
    assert rep.bound == pytest.approx(0.5)
    assert rep.holds


def test_find_bound_flags_dependent_state():
    # a state prepared after the hidden sets were fixed can sit right on
    # them; the checker must report the broken precondition, not a lemma bug
    rng = make_rng("fb-flag")
    orc = _simon_oracle(2, 1, rng)
    hidden = hiding.sample_hidden_sets(orc, rng)
    layout = qsim.RegisterLayout(("X", "A"), (orc.domain_bits, orc.n + 1))
    sitting = qsim.SparseState(layout, {(min(hidden.set_at(1, 1)), 0): 1.0})
    rep = hiding.check_find_bound(
        sitting, orc, [(1, "X", "A")], 1, rng, hidden_sets=[hidden]
    )
    assert not rep.precondition_respected
    assert rep.mean_p_find == pytest.approx(1.0)
    assert not rep.holds


def test_bounds_refuse_an_empty_sample():
    # no mean is taken over nothing: each check refuses before averaging
    rng = make_rng("fb-empty")
    orc = _simon_oracle(2, 1, rng)
    layout = qsim.RegisterLayout(("X", "A"), (orc.domain_bits, orc.n + 1))
    state = _uniform_over_domain(layout, "X")
    with pytest.raises(ValueError, match="at least one"):
        hiding.check_hiding_bound(state, iter(()), 1, [(1, "X", "A")])
    with pytest.raises(ValueError, match="at least one"):
        hiding.check_find_bound(state, orc, [(1, "X", "A")], 1, rng, hidden_sets=[])
    with pytest.raises(ValueError, match="at least one"):
        hiding.check_find_bound(state, orc, [(1, "X", "A")], 1, rng, resamples=0)


def test_membership_density_at_round_one():
    rng = make_rng("member-one")
    sampler = lambda r: oracle.sample_shuffling(simon.sample_simon(2, r), 1, r)
    rep = hiding.estimate_membership(sampler, 1, 1, trials=1500, rng=rng)
    assert rep.parent_draws == 1500
    assert rep.expected == pytest.approx(0.25)
    assert rep.within_3sigma


def test_membership_density_conditional_round_two():
    # round 2 keeps the same 2^-n density inside round 1's superset
    rng = make_rng("member-2")
    sampler = lambda r: oracle.sample_shuffling(simon.sample_simon(2, r), 2, r)
    rep = hiding.estimate_membership(sampler, 2, 2, trials=1200, rng=rng)
    assert rep.parent_draws < 1200
    assert rep.expected == pytest.approx(0.25)
    assert rep.within_3sigma

