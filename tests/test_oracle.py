import hashlib

import numpy as np
import pytest

from conftest import make_rng
from dense_reference import table_answers
from shufflesim.ledger import DepthLedger
from shufflesim.oracle import (
    BOT,
    IncrementalInjection,
    LazyShufflingOracle,
    OracleError,
    sample_shuffling,
)
from shufflesim.simon import sample_decision_instance, sample_one_to_one, sample_simon


def _oracle(n, d, seed, backend="materialized", **kw):
    rng = make_rng("oracle", seed)
    inst = sample_simon(n, rng)
    return inst, sample_shuffling(inst, d, rng, backend=backend, **kw)


def test_d0_is_the_bare_instance():
    inst, o = _oracle(2, 0, 1)
    for x in range(4):
        assert o.query_point(0, x) == inst.value(x)
    # rest of the 2n-bit domain answers bot
    for x in range(4, 16):
        assert o.query_point(0, x) is BOT


def test_levels_are_injective():
    _, o = _oracle(2, 1, 2)
    values = [o.query_point(0, x) for x in range(64)]
    assert len(set(values)) == 64


def test_chain_composes_to_instance():
    for backend in ("materialized", "lazy"):
        inst, o = _oracle(2, 1, 3, backend=backend)
        for x in range(4):
            mid = o.query_point(0, x)
            assert o.query_point(1, mid) == inst.value(x)


def test_repeat_query_stable():
    for backend in ("materialized", "lazy"):
        _, o = _oracle(2, 2, 4, backend=backend)
        first = o.query_point(1, 77)
        for _ in range(3):
            assert o.query_point(1, 77) == first


def test_path_query_d0():
    inst, o = _oracle(3, 0, 5)
    p = o.query_path(6)
    assert p.points == (6, inst.value(6))
    assert p.points[0] == 6 and p.final == inst.value(6)


def test_path_matches_pointwise_queries():
    for backend in ("materialized", "lazy"):
        inst, o = _oracle(2, 2, 6, backend=backend)
        p = o.query_path(3)
        for level in range(3):
            assert o.query_point(level, p.points[level]) == p.points[level + 1]
        assert p.final == inst.value(3)


def test_level_sets_structure():
    inst, o = _oracle(2, 1, 7)
    s0, s1 = (set(o.level_points(j).tolist()) for j in (0, 1))
    assert s0 == set(range(4))
    assert len(s1) == 4
    assert s1 == {o.query_point(0, x) for x in range(4)}
    for y in s1:
        assert o.query_point(1, y) is not BOT
    # off the level set the core is undefined
    off = next(iter(set(range(64)) - s1))
    assert o.query_point(1, off) is BOT


def test_lazy_has_no_level_sets():
    _, o = _oracle(2, 1, 8, backend="lazy")
    with pytest.raises(OracleError):
        o.level_points(1)


def test_materialized_cap_enforced():
    rng = make_rng("oracle", 9)
    inst = sample_simon(6, rng)
    with pytest.raises(OracleError):
        sample_shuffling(inst, 3, rng, backend="materialized")  # 30 bits > 20


def test_answer_encoding_roundtrip():
    _, o = _oracle(2, 1, 10)
    for level, value in ((0, 5), (1, 3)):
        assert o.decode_answer(level, o.encode_answer(level, BOT)) is BOT
        assert o.decode_answer(level, o.encode_answer(level, value)) == value
        assert o.encode_answer(level, BOT) == 1 << o.value_bits(level)
    assert o.value_bits(0) == 6 and o.value_bits(1) == 2
    assert o.answer_bits(0) == 7 and o.answer_bits(1) == 3


def test_ledger_counts_classical_and_core():
    _, o = _oracle(2, 1, 11)
    led = DepthLedger()
    o.query_path(0, led)
    assert led.classical_queries == 1 and led.core_evaluations == 1
    y = o.query_point(0, 0, led)
    assert led.classical_queries == 2 and led.core_evaluations == 1
    o.query_point(1, y, led)  # on the level set: core evaluation
    assert led.core_evaluations == 2


def test_domain_guards():
    _, o = _oracle(2, 1, 14)
    with pytest.raises(OracleError):
        o.query_point(2, 0)
    with pytest.raises(OracleError):
        o.query_point(0, 64)
    with pytest.raises(OracleError):
        o.query_path(4)  # path roots live in the embedded domain


# -- incremental injection ---------------------------------------------------


def test_injection_single_point():
    inj = IncrementalInjection(1, make_rng("inj", 0))
    assert inj.reveal([0]) == [0]


def test_injection_first_reveal_uniform():
    counts = np.zeros(8, dtype=int)
    for t in range(10_000):
        counts[IncrementalInjection(8, make_rng("inj", 1, t)).reveal([3])[0]] += 1
    chi2 = float(np.sum((counts - 1250.0) ** 2 / 1250.0))
    assert chi2 < 7 + 4 * np.sqrt(14)  # df = 7


def test_injection_completes_to_permutation():
    inj = IncrementalInjection(8, make_rng("inj", 2))
    images = inj.reveal(list(range(8)))
    assert sorted(images) == list(range(8))


# -- backend equivalence -----------------------------------------------------


def test_backends_agree_in_distribution():
    """Same instance, same query sequence: f_0 probe at 5, then a core probe
    at 33 whose membership the lazy backend must sample at odds 4/63."""
    inst = sample_simon(2, make_rng("equiv", "inst"))
    runs = 10_000
    stats = {}
    for backend in ("materialized", "lazy"):
        first = np.zeros(64, dtype=int)
        joint = np.zeros((8, 3), dtype=int)
        for t in range(runs):
            o = sample_shuffling(inst, 1, make_rng("equiv", backend, t), backend=backend)
            y = o.query_point(0, 5)
            core = o.query_point(1, 33)
            first[y] += 1
            bucket = 0 if core is BOT else (1 if core == min(inst.table) else 2)
            joint[y % 8, bucket] += 1
        stats[backend] = (first, joint)
        # first reveal is uniform over the 64-point codomain
        chi2 = float(np.sum((first - runs / 64) ** 2 / (runs / 64)))
        assert chi2 < 63 + 4 * np.sqrt(126), backend
        # core outcome: bot with 1 - 1/16, each table value with 1/32
        outcome = joint.sum(axis=0)
        expected = np.array([runs * 15 / 16, runs / 32, runs / 32])
        chi2 = float(np.sum((outcome - expected) ** 2 / expected))
        assert chi2 < 2 + 4 * np.sqrt(4), backend  # df = 2
    # two-sample comparison over the joint cells
    a, b = stats["materialized"][1].ravel(), stats["lazy"][1].ravel()
    keep = (a + b) > 0
    chi2 = float(np.sum((a[keep] - b[keep]) ** 2 / (a[keep] + b[keep])))
    df = int(keep.sum()) - 1
    assert chi2 < df + 4 * np.sqrt(2 * df)


# -- lazy backend exactness guards -------------------------------------------


def test_lazy_membership_refusal_then_off_chain_probe_errors():
    _, o = _oracle(2, 1, 15, backend="lazy")
    banned = None
    for w in range(40, 64):
        if o.query_point(1, w) is BOT:
            banned = w
            break
    assert banned is not None
    with pytest.raises(OracleError):
        o.query_point(0, 17)  # off-chain reveal is no longer exact


def test_lazy_on_chain_queries_fine_after_refusal():
    inst, o = _oracle(2, 1, 16, backend="lazy")
    for w in range(40, 64):
        if o.query_point(1, w) is BOT:
            break
    # path queries stay exact: they only touch chain points
    for x in range(4):
        assert o.query_path(x).final == inst.value(x)


def test_lazy_weave_probe_detected():
    _, o = _oracle(2, 2, 17, backend="lazy")
    y = o.query_point(1, 17)  # mid-level probe; 17 is not an f_0 image
    z = (y + 1) % 256
    with pytest.raises(OracleError):
        o.query_point(2, z)


WHOLE_DOMAIN_DIGEST = "23000c3957755a39170b06d582a53fb2721ff4f7f24da4c7237b2313a994bdb3"


def test_lazy_whole_domain_core_probes():
    """Every level-d point probed in a seeded order at the tightest domains,
    then every root chased: routing, refutations and the rejection loop of
    `IncrementalInjection.reveal` all run, and the bytes are pinned."""
    digest = hashlib.sha256()
    for n, d in ((1, 1), (1, 2), (2, 1)):
        for seed in range(300):
            rng = make_rng("whole-domain", n, d, seed)
            inst = sample_decision_instance(n, rng)
            o = sample_shuffling(inst, d, rng, backend="lazy")
            order = make_rng("whole-domain-order", n, d, seed).permutation(o.domain_size)
            answers = [o.query_point(d, int(x)) for x in order]
            assert sum(a is not BOT for a in answers) == 1 << n
            finals = [o.query_path(x).final for x in range(1 << n)]
            assert finals == [inst.value(x) for x in range(1 << n)]
            digest.update(repr((answers, finals, o._rng.bit_generator.state)).encode())
    assert digest.hexdigest() == WHOLE_DOMAIN_DIGEST


def test_lazy_chains_avoid_a_refuted_mid_level_point():
    # f_1 is probed off-chain at 5 and the core refutes f_1(5), so no chain
    # may pass through 5 at level 1: the chase's f_0 draws must reject it
    refuted = 0
    for seed in range(300):
        rng = make_rng("mid-level-ban", seed)
        inst = sample_simon(1, rng)
        o = sample_shuffling(inst, 2, rng, backend="lazy")
        if o.query_point(2, o.query_point(1, 5)) is not BOT:
            continue
        refuted += 1
        for x in range(2):
            path = o.query_path(x)
            assert path.points[1] != 5 and path.final == inst.value(x)
    assert refuted > 200


def test_lazy_one_to_one_paths():
    rng = make_rng("oracle", 18)
    inst = sample_one_to_one(3, rng)
    o = sample_shuffling(inst, 2, rng, backend="lazy")
    finals = {o.query_path(x).final for x in range(8)}
    assert len(finals) == 8


# -- bulk answers (values_at) ------------------------------------------------


def _pointwise(o, level, xs):
    return [o.encode_answer(level, o._answer(level, x)) for x in xs]


def _chase_layers(o, ledger):
    # the solver's chase: every level applied to the images of all roots
    xs = list(range(1 << o.n))
    for level in range(o.d + 1):
        answers = o.values_at(level, xs, ledger)
        xs = sorted(set(answers))
    return answers


def test_lazy_bulk_reads_answered_points_without_drawing():
    _, o = _oracle(3, 2, 30, backend="lazy")
    first_ledger, again_ledger = DepthLedger(), DepthLedger()
    first = _chase_layers(o, first_ledger)
    state = o._rng.bit_generator.state

    def no_fresh_point(level, x):
        raise AssertionError(f"answered point {x} at level {level} resolved again")

    o._answer = no_fresh_point
    assert _chase_layers(o, again_ledger) == first
    assert o._rng.bit_generator.state == state
    assert again_ledger.core_evaluations == first_ledger.core_evaluations == 8


@pytest.mark.parametrize("d", [0, 1, 2])
def test_lazy_bulk_matches_pointwise_twin(d):
    n = 3
    _, bulk = _oracle(n, d, 31, backend="lazy")
    _, twin = _oracle(n, d, 31, backend="lazy")
    ledger, twin_core = DepthLedger(), 0
    probes = {3, 40, bulk.domain_size - 1}  # off-chain core points: fresh membership draws
    # the second chase mixes points the first one answered with fresh ones
    for roots in ([0, 2, 5], range(1 << n)):
        xs = list(roots)
        for level in range(d + 1):
            if level == d:
                xs = sorted(set(xs) | probes)
            got = bulk.values_at(level, xs, ledger)
            want = _pointwise(twin, level, xs)
            assert got == want
            assert bulk._rng.bit_generator.state == twin._rng.bit_generator.state
            xs = sorted(set(got))
        twin_core += sum(a != 1 << n for a in want)
    assert ledger.core_evaluations == twin_core


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_materialized_bulk_matches_pointwise(n, d):
    _, o = _oracle(n, d, 32)
    xs = list(range(o.domain_size))
    for level in range(d + 1):
        got = o.values_at(level, xs)
        assert got == table_answers(o, level, xs)
        assert all(type(a) is int for a in got)
    assert 1 << n in got  # the core's encoded bot is among the answers


@pytest.mark.parametrize("backend", ["materialized", "lazy"])
def test_bulk_refuses_out_of_domain_points(backend):
    _, o = _oracle(2, 1, 33, backend=backend)
    for bad in (-1, o.domain_size):
        for level in (0, 1):
            with pytest.raises(OracleError, match="outside the 6-bit domain"):
                o.values_at(level, [0, 3, bad])


# -- batch reveals (values_at) -----------------------------------------------


@pytest.mark.parametrize("size", [1 << 3, 1 << 12, 1 << 40, 1 << 62, 3 << 20])
def test_batched_draws_equal_scalar_draws(size):
    # the batch reveal path rests on this numpy property; if an upgrade
    # breaks it, this fails before any golden file does
    for k in (1, 2, 7, 1000):
        batch, scalar = make_rng("canary", size, k), make_rng("canary", size, k)
        batch.integers(8), scalar.integers(8)  # leaves half a 64-bit word buffered
        drawn = batch.integers(size, size=k).tolist()
        assert drawn == [int(scalar.integers(size)) for _ in range(k)]
        assert batch.bit_generator.state == scalar.bit_generator.state


class _BatchCount:
    """Wraps an injection's reveal and counts its calls, its draw passes and
    its calls that reveal several points under a reject callback; more passes
    than calls means a draw was skipped and redrawn."""

    def __init__(self, inj):
        self.rng, self.reveal, self.calls, self.passes, self.guarded = inj._rng, inj.reveal, 0, 0, 0
        inj._rng, inj.reveal = self, self.counted_reveal

    def integers(self, high, size=None):
        self.passes += 1
        return self.rng.integers(high, size=size)

    def counted_reveal(self, xs, reject=None):
        self.calls += 1
        self.guarded += reject is not None and len(xs) > 1
        return self.reveal(xs, reject)


def _reveal_point_by_point(inj):
    """Give an injection a reveal that draws one scalar image at a time for
    one point at a time, skipping a used or refused image: the reference the
    batched `IncrementalInjection.reveal` must reproduce draw for draw."""

    def reveal(xs, reject=None):
        out = []
        for x in xs:
            y = int(inj._rng.integers(inj.size))
            while y in inj._rev or (reject is not None and reject(y)):
                y = int(inj._rng.integers(inj.size))
            inj.force(x, y)
            out.append(y)
        return out

    inj.reveal = reveal


def _twin_lazy(n, d, seed):
    """Two lazy oracles from one seed: one to answer in bulk, and a twin
    whose injections reveal point by point."""

    def lazy():
        rng = make_rng("batch-twin", n, d, seed)
        return sample_shuffling(sample_decision_instance(n, rng), d, rng, backend="lazy")

    bulk, twin = lazy(), lazy()
    for inj in twin._levels:
        _reveal_point_by_point(inj)
    return bulk, twin


def _answer_both(bulk, twin, level, xs):
    got = bulk.values_at(level, xs)
    assert got == _pointwise(twin, level, xs)
    assert bulk._rng.bit_generator.state == twin._rng.bit_generator.state
    return got


def _chase_both(bulk, twin, roots):
    xs = list(roots)
    for level in range(bulk.d + 1):
        xs = sorted(set(_answer_both(bulk, twin, level, xs)))


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_lazy_batch_reveals_match_pointwise_twin(n, d):
    """A bulk oracle and its per-point twin agree on answers and generator
    state after every layer of two query sequences: a chase of every root
    (where some seeds redraw past an image already used), then the whole
    core in one call; and a chase of the even roots, the whole core in one
    call (walked points, routed chains and refutations together), then a
    chase of every root."""
    redraws = 0
    for seed in range(300):
        bulk, twin = _twin_lazy(n, d, seed)
        counts = [_BatchCount(inj) for inj in bulk._levels]
        _chase_both(bulk, twin, range(1 << n))
        redraws += any(c.passes > c.calls for c in counts)
        _answer_both(bulk, twin, d, list(range(bulk.domain_size)))
        bulk, twin = _twin_lazy(n, d, 1000 + seed)
        _chase_both(bulk, twin, range(0, 1 << n, 2))
        _answer_both(bulk, twin, d, list(range(bulk.domain_size)))
        _chase_both(bulk, twin, range(1 << n))
    assert redraws > 0


def test_lazy_refutation_active_chase_matches_pointwise_twin():
    # a chase after a core refutation reveals each layer in one batch under
    # the reject callback, and still draws what the per-point twin draws
    refuted = guarded = 0
    for seed in range(40):
        bulk, twin = _twin_lazy(2, 2, seed)
        probe = bulk.domain_size - 1  # off every chain until a chase lands there
        if bulk.query_point(2, probe) is not BOT:
            continue
        assert twin.query_point(2, probe) is BOT
        refuted += 1
        counts = [_BatchCount(inj) for inj in bulk._levels]
        _chase_both(bulk, twin, range(4))
        guarded += sum(c.guarded for c in counts)
    assert refuted > 20 and guarded > 0


def test_lazy_refused_bulk_layer_reveals_nothing():
    # after a refutation, a layer with one off-chain point is refused before
    # its on-chain point 0 draws an image
    rng = np.random.default_rng(15)
    o = sample_shuffling(sample_simon(2, rng), 1, rng, backend="lazy")
    assert next(w for w in range(40, 64) if o.query_point(1, w) is BOT) == 40
    links, state = o._levels[0].lookup(range(o.domain_size)), o._rng.bit_generator.state
    with pytest.raises(OracleError, match="off-chain reveal"):
        o.values_at(0, [0, 17])
    assert o._levels[0].lookup(range(o.domain_size)) == links
    assert o._rng.bit_generator.state == state


def test_lazy_refused_core_layer_reveals_nothing():
    # the mid-level probe f_1(11) = 2 is off every chain; the core layer's
    # first fresh points resolve (one refutes 11 at level 1) before a later
    # one is refused as entangled, and the refusal must undo what they did
    def lazy():
        rng = np.random.default_rng(11)
        o = sample_shuffling(sample_simon(1, rng), 2, rng, backend="lazy")
        assert o.query_point(1, 11) == 2
        return o

    def state(o):
        links = [(inj.lookup(range(o.domain_size)), inj.preimages(range(o.domain_size))) for inj in o._levels]
        return links, {j: set(b) for j, b in o._banned.items()}, o._core_given, o._rng.bit_generator.state

    o, twin = lazy(), lazy()
    with pytest.raises(OracleError, match="entangled with mid-level probe reveals"):
        o.values_at(2, [2, 7, 9, 13])
    assert state(o) == state(twin)
    assert [o.query_path(x).points for x in range(2)] == [twin.query_path(x).points for x in range(2)]
    assert state(o) == state(twin)


@pytest.mark.parametrize("level", [0, 1])
def test_lazy_batch_answers_a_repeated_fresh_point_once(level):
    bulk, twin = _twin_lazy(2, 1, 5)
    xs = [3, 9, 3, 40, 9, 3]
    got = _answer_both(bulk, twin, level, xs)
    assert got[0] == got[2] == got[5] and got[1] == got[4]
    assert _answer_both(bulk, twin, level, xs) == got  # committed: nothing drawn


# -- seeded random query sequences -------------------------------------------


def _random_queries(o, rng, ops):
    """Answer seeded random queries on a lazy oracle, one per op code: 0 a
    single point, 1 a path chase, 2 a bulk core probe with repeats, 3 a
    chase of a subset of roots, 4 a bulk layer below the core with a repeat.
    Returns the answers and the generator state after each query; the first
    OracleError ends the run and its text is the last entry, so the draws of
    a refused query are not recorded."""
    roots = 1 << o.n
    seen = list(range(roots))  # roots and answers: points worth probing again

    def pick():
        if rng.random() < 0.5:
            return seen[int(rng.integers(len(seen)))]
        return int.from_bytes(rng.bytes(16), "little") % o.domain_size

    log = []
    try:
        for op in ops:
            if op == 0:
                got = [o.query_point(int(rng.integers(o.d + 1)), pick())]
            elif op == 1:
                got = list(o.query_path(int(rng.integers(roots))).points)
            elif op == 2:
                xs = [pick() for _ in range(int(rng.integers(1, 7)))]
                got = o.values_at(o.d, xs + xs[: int(rng.integers(3))])
            elif op == 3:
                xs, got = [r for r in range(roots) if rng.random() < 0.5] or [0], []
                for level in range(o.d + 1):
                    xs = o.values_at(level, xs)
                    got += xs
                    xs = sorted(set(xs))
            else:
                xs = [pick() for _ in range(int(rng.integers(1, 7)))]
                got = o.values_at(int(rng.integers(max(o.d, 1))), xs + xs[:1])
            log.append((op, got, o._rng.bit_generator.state))
            seen += [y for y in got if y is not BOT and y < o.domain_size]
    except OracleError as exc:
        log.append(str(exc))
    return log


RANDOM_SEQUENCE_DIGEST = "3797587eedee047c68bd0e9ece920618854ce95cfc1a71b774c706f169520569"


def test_lazy_random_query_sequences_digest():
    """Seeded random query sequences on lazy oracles at the tightest domains,
    then at 65- and 70-bit domains (wider than one 2^62 draw): answers,
    refusal texts and generator states are pinned."""
    digest = hashlib.sha256()
    tight = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3)]
    cases = [(n, d, seed) for n, d in tight for seed in range(200)]
    cases += [(n, d, seed) for n, d in ((13, 3), (5, 12)) for seed in range(4)]
    for n, d, seed in cases:
        rng = make_rng("random-sequence", n, d, seed)
        o = sample_shuffling(sample_decision_instance(n, rng), d, rng, backend="lazy")
        ops_rng = make_rng("random-sequence-ops", n, d, seed)
        # wide domains: chases, then core probes that refute, then chases past the refutations
        ops = ops_rng.integers(5, size=12).tolist() if o.domain_bits <= 62 else (3, 1, 2, 3, 2, 1, 4, 0)
        digest.update(repr((n, d, seed, _random_queries(o, ops_rng, ops))).encode())
    assert digest.hexdigest() == RANDOM_SEQUENCE_DIGEST
