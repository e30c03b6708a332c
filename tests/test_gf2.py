import itertools

import pytest
from hypothesis import given, strategies as st

from shufflesim import gf2
from shufflesim.gf2 import BitVector, dot, null_space_basis


def rank(rows):
    return len(gf2._reduced_rows(rows))


def solves_to_zero(rows, v):
    return all((row & v).bit_count() % 2 == 0 for row in rows)


def bv(text):
    """The int row of a 0/1 string whose leftmost character is bit 0."""
    return int(text[::-1], 2)


def vec(text):
    return BitVector(bv(text), len(text))


def test_bitvector_roundtrip_and_bit_order():
    v = bv("110")
    assert [(v >> i) & 1 for i in range(3)] == [1, 1, 0]
    assert format(v, "03b")[::-1] == "110"
    assert bv("100") == 1  # leftmost char is bit 0
    assert vec("110") == BitVector(3, 3)


def test_bitvector_xor_and_weight():
    assert bv("110") ^ bv("011") == bv("101")
    assert bv("111").bit_count() == 3
    assert bv("000") == 0
    # a row that is the xor of two others adds nothing to their span
    assert null_space_basis([bv("110"), bv("011"), bv("101")], 3) == null_space_basis([bv("110"), bv("011")], 3)


def test_dot_cases():
    assert dot(vec("101"), vec("101")) == 0
    assert dot(vec("100"), vec("100")) == 1
    assert dot(vec("111"), vec("110")) == 0  # two common ones
    with pytest.raises(ValueError):
        dot(vec("10"), vec("100"))


def test_rank_identity():
    rows = [bv("100"), bv("010"), bv("001")]
    assert rank(rows) == 3
    assert null_space_basis(rows, 3) == []


def test_rank_zero_matrix():
    assert rank([bv("0000"), bv("0000")]) == 0


def test_null_space_single_zero_row():
    basis = null_space_basis([bv("00")], 2)
    assert len(basis) == 2


def test_hand_worked_case():
    rows = [bv("110"), bv("011")]
    assert rank(rows) == 2
    assert null_space_basis(rows, 3) == [bv("111")]


def test_null_space_vectors_annihilate():
    rows = [bv("1101"), bv("0111")]
    for b in null_space_basis(rows, 4):
        assert solves_to_zero(rows, b)


def _brute_kernel(rows, width):
    return sorted(v for v in range(1 << width) if solves_to_zero(rows, v))


@given(st.lists(st.integers(0, 31), min_size=0, max_size=6))
def test_kernel_matches_brute_force(rows):
    width = 5
    basis = null_space_basis(rows, width)
    spanned = {0}
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(basis, r):
            acc = 0
            for b in combo:
                acc ^= b
            spanned.add(acc)
    assert sorted(spanned) == _brute_kernel(rows, width)
    assert len(basis) == width - rank(rows)


def test_width_mismatch_rejected():
    # a row wider than n would pivot on a column past n and give a wrong basis
    with pytest.raises(ValueError, match="out of range for width 2"):
        null_space_basis([bv("10"), bv("001")], 2)
    with pytest.raises(ValueError, match="out of range for width 2"):
        null_space_basis([-1], 2)


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitVector(4, 2)
