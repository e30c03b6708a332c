import itertools

import pytest
from hypothesis import given, strategies as st

from shufflesim import gf2
from shufflesim.gf2 import BitMatrix, BitVector, dot, null_space_basis


def rank(matrix):
    return len(gf2._reduced_rows(matrix))


def solves_to_zero(matrix, v):
    return all(dot(row, v) == 0 for row in matrix.rows)


def bv(text):
    return BitVector.from01(text)


def test_bitvector_roundtrip_and_bit_order():
    v = bv("110")
    assert v.bit(0) == 1 and v.bit(1) == 1 and v.bit(2) == 0
    assert v.to01() == "110"
    assert int(bv("100")) == 1  # leftmost char is bit 0


def test_bitvector_xor_and_weight():
    assert (bv("110") ^ bv("011")).to01() == "101"
    assert bv("111").weight() == 3
    assert bv("000").is_zero


def test_dot_cases():
    assert dot(bv("101"), bv("101")) == 0
    assert dot(bv("100"), bv("100")) == 1
    assert dot(bv("111"), bv("110")) == 0  # two common ones


def test_rank_identity():
    m = BitMatrix.from_rows([bv("100"), bv("010"), bv("001")])
    assert rank(m) == 3
    assert null_space_basis(m) == []


def test_rank_zero_matrix():
    m = BitMatrix.from_rows([bv("0000"), bv("0000")])
    assert rank(m) == 0


def test_null_space_single_zero_row():
    basis = null_space_basis(BitMatrix.from_rows([bv("00")]))
    assert len(basis) == 2


def test_hand_worked_case():
    m = BitMatrix.from_rows([bv("110"), bv("011")])
    assert rank(m) == 2
    basis = null_space_basis(m)
    assert [b.to01() for b in basis] == ["111"]


def test_null_space_vectors_annihilate():
    m = BitMatrix.from_rows([bv("1101"), bv("0111")])
    for b in null_space_basis(m):
        assert solves_to_zero(m, b)


def _brute_kernel(rows, width):
    out = []
    for v in range(1 << width):
        vec = BitVector(v, width)
        if all(dot(r, vec) == 0 for r in rows):
            out.append(v)
    return sorted(out)


@given(st.lists(st.integers(0, 31), min_size=0, max_size=6))
def test_kernel_matches_brute_force(row_values):
    width = 5
    rows = [BitVector(v, width) for v in row_values]
    m = BitMatrix.from_rows(rows, width=width)
    basis = null_space_basis(m)
    spanned = {0}
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(basis, r):
            acc = 0
            for b in combo:
                acc ^= b.value
            spanned.add(acc)
    assert sorted(spanned) == _brute_kernel(rows, width)
    assert len(basis) == width - rank(m)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([bv("10"), bv("100")])


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitVector(4, 2)
