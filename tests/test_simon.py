import numpy as np
import pytest

from conftest import make_rng
from shufflesim.simon import (
    InstanceKind,
    SimonInstance,
    sample_decision_instance,
    sample_one_to_one,
    sample_simon,
    verify_shift,
)


def _from_json_dict(data):
    """The instance a `to_json_dict` dict describes, checked like any other."""
    return SimonInstance(
        n=int(data["n"]),
        kind=InstanceKind(data["kind"]),
        s=None if data["s"] is None else int(data["s"]),
        table=np.asarray(data["table"]),
    )


def _loop_sample_simon(n, rng):
    """Reference sampler: the per-element loop that sample_simon must match
    draw for draw, filling coset representatives in ascending x."""
    s = int(rng.integers(1, 1 << n))
    size = 1 << n
    images = rng.permutation(size)[: size // 2]
    table = np.empty(size, dtype=np.int64)
    i = 0
    for x in range(size):
        if x < x ^ s:
            table[x] = table[x ^ s] = images[i]
            i += 1
    return s, table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_sample_simon_matches_loop_reference(n):
    for t in range(5):
        s, table = _loop_sample_simon(n, make_rng("draws", n, t))
        inst = sample_simon(n, make_rng("draws", n, t))
        assert inst.s == s
        assert inst.table.dtype == table.dtype
        assert inst.table.tobytes() == table.tobytes()


def test_n1_simon_is_forced():
    inst = sample_simon(1, make_rng(1))
    assert inst.s == 1
    assert inst.table[0] == inst.table[1]


def test_simon_two_to_one():
    inst = sample_simon(2, make_rng(2))
    assert len(set(inst.table.tolist())) == 2
    for x in range(4):
        assert inst.value(x) == inst.value(x ^ inst.s)


def test_shift_distribution_uniform():
    # n=3: s uniform over the 7 nonzero masks
    counts = np.zeros(8, dtype=int)
    for t in range(1000):
        counts[sample_simon(3, make_rng(3, t)).s] += 1
    assert counts[0] == 0
    expected = 1000 / 7
    sigma = np.sqrt(1000 * (1 / 7) * (6 / 7))
    assert np.all(np.abs(counts[1:] - expected) <= 3 * sigma)


def test_one_to_one_injective():
    for t in range(50):
        inst = sample_one_to_one(3, make_rng(4, t))
        assert len(set(inst.table.tolist())) == 8
        assert inst.s is None


def test_one_to_one_small():
    inst = sample_one_to_one(1, make_rng(5))
    assert sorted(inst.table.tolist()) == [0, 1]


def test_decision_mix_is_fair():
    simon = sum(
        sample_decision_instance(2, make_rng(6, t)).kind is InstanceKind.SIMON
        for t in range(10_000)
    )
    assert abs(simon - 5000) <= 3 * np.sqrt(10_000 * 0.25)


def test_decision_instances_valid_at_n1():
    for t in range(20):
        inst = sample_decision_instance(1, make_rng(7, t))
        if inst.kind is InstanceKind.SIMON:
            assert inst.table[0] == inst.table[1]
        else:
            assert inst.table[0] != inst.table[1]


def test_seed_replay():
    a = sample_decision_instance(3, make_rng(8))
    b = sample_decision_instance(3, make_rng(8))
    assert a.kind == b.kind and a.s == b.s
    assert np.array_equal(a.table, b.table)


def test_verify_shift():
    inst = sample_simon(3, make_rng(9))
    assert verify_shift(inst, inst.s)
    assert not verify_shift(inst, 0)
    one = sample_one_to_one(3, make_rng(10))
    for s in range(1, 8):
        assert not verify_shift(one, s)


def test_json_roundtrip():
    for sampler in (sample_simon, sample_one_to_one):
        inst = sampler(3, make_rng(11))
        back = _from_json_dict(inst.to_json_dict())
        assert back.kind == inst.kind and back.s == inst.s
        assert np.array_equal(back.table, inst.table)


def test_invalid_table_rejected():
    inst = sample_simon(2, make_rng(12))
    bad = np.array(inst.table)
    bad[0] ^= 1  # breaks the collision structure
    with pytest.raises(ValueError):
        SimonInstance(n=2, kind=InstanceKind.SIMON, s=inst.s, table=bad)


_BAD_TABLES = [
    # (kind, s, table): each is well formed apart from its values
    (InstanceKind.ONE_TO_ONE, None, np.array([0, 1, 2, 7])),
    (InstanceKind.ONE_TO_ONE, None, np.array([0, 1, 2, -1])),
    (InstanceKind.ONE_TO_ONE, None, np.array([0.0, 1.0, 2.0, 3.0])),
    (InstanceKind.SIMON, 1, np.array([0, 0, 7, 7])),
    (InstanceKind.SIMON, 1, np.array([0, 0, -1, -1])),
    (InstanceKind.SIMON, 1, np.array([0.0, 0.0, 1.0, 1.0])),
    # a reader that cast entries with int() would truncate this to [0, 0, 1, 1]
    (InstanceKind.SIMON, 1, np.array([0.5, 0.5, 1.5, 1.5])),
]


@pytest.mark.parametrize("kind, s, table", _BAD_TABLES)
def test_out_of_range_and_non_integer_tables_rejected(kind, s, table):
    with pytest.raises(ValueError):
        SimonInstance(n=2, kind=kind, s=s, table=table)
    data = {"n": 2, "kind": kind.value, "s": s, "table": table.tolist()}
    with pytest.raises(ValueError):
        _from_json_dict(data)


def test_narrow_integer_tables_accepted():
    for dtype in (np.int8, np.uint16, np.uint64):
        inst = SimonInstance(
            n=2, kind=InstanceKind.ONE_TO_ONE, s=None, table=np.array([3, 1, 0, 2], dtype=dtype)
        )
        assert inst.table.dtype == dtype
