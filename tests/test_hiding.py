import numpy as np
import pytest

from shufflesim import hiding, oracle, qsim, simon
from shufflesim.oracle import BOT, OracleError

from conftest import make_rng


def _simon_oracle(n, d, rng):
    return oracle.sample_shuffling(simon.sample_simon(n, rng), d, rng)


def _uniform_over_domain(layout, name):
    return qsim.init_uniform(layout, name)


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
    sets = orc.level_sets()
    for (j, l), pts in hidden.sets.items():
        assert sets.at(j) <= set(pts)


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
    on = qsim.basis_state(layout, {"X": inside})
    off = qsim.basis_state(layout, {"X": outside})
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
    sitting = qsim.basis_state(layout, {"X": min(hidden.set_at(1, 1))})
    rep = hiding.check_find_bound(
        sitting, orc, [(1, "X", "A")], 1, rng, hidden_sets=[hidden]
    )
    assert not rep.precondition_respected
    assert rep.mean_p_find == pytest.approx(1.0)
    assert not rep.holds


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


def test_membership_certain_on_level_set():
    rng = make_rng("member-on")
    sampler = lambda r: oracle.sample_shuffling(simon.sample_simon(2, r), 1, r)
    rep = hiding.estimate_membership(sampler, 1, 1, trials=50, rng=rng, on_level_set=True)
    assert rep.hits == rep.parent_draws
    assert rep.estimate == 1.0
    assert rep.expected == 1.0
