"""Bit-packed GF(2) rows and the heavy vector of a row-space coset."""

import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from dilink.errors import BadColumn
from dilink.z2linalg import (
    HeavyVectorResult,
    Z2Matrix,
    bits_to_vector,
    heavy_vector,
    weight,
)
from z2_oracle import coset_brute_force


def test_weight():
    assert weight(0) == 0
    assert weight(0b1011) == 3


def test_bit_round_trip():
    assert bits_to_vector([1, 0, 1, 1]) == 0b1101
    with pytest.raises(ValueError):
        bits_to_vector([0, 2])


def test_matrix_construction():
    m = Z2Matrix.from_lists([[1, 0, 0], [1, 1, 0]])
    assert m.rows == (1, 3)
    assert m.ncols == 3
    assert m.zero_columns() == [2]
    with pytest.raises(ValueError):
        Z2Matrix.from_lists([[1, 0], [1]])
    with pytest.raises(ValueError):
        Z2Matrix(rows=(4,), ncols=2)
    with pytest.raises(ValueError):
        Z2Matrix(rows=(), ncols=-1)


def check(matrix: Z2Matrix, offset: int) -> HeavyVectorResult:
    res = heavy_vector(matrix, offset)
    assert 2 * res.weight >= matrix.ncols
    assert res.weight == weight(offset ^ res.vector)
    assert list(res.rows) == sorted(set(res.rows))
    acc = 0
    for i in res.rows:
        acc ^= matrix.rows[i]
    assert acc == res.vector
    return res


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_identity_heavy_vector_is_all_ones(n):
    ident = Z2Matrix(tuple(1 << i for i in range(n)), n)
    res = check(ident, 0)
    assert res.vector == (1 << n) - 1
    assert res.rows == tuple(range(n))
    assert res.weight == n
    # with an offset, v complements it
    offset = 0b10110 & ((1 << n) - 1)
    assert check(ident, offset).vector == offset ^ ((1 << n) - 1)


def test_walk_keeps_a_row_only_when_it_gains():
    # last to first: row 1 alone decides column 2 and is kept; row 0
    # decides columns 0 and 1, where it only trades a one, so it is not
    m = Z2Matrix.from_lists([[1, 1, 0], [0, 1, 1]])
    assert check(m, 0) == HeavyVectorResult(vector=0b110, rows=(1,), weight=2)
    # an offset that already lies on the heavy side keeps no row
    assert check(m, 0b111) == HeavyVectorResult(vector=0, rows=(), weight=3)


def test_bad_column_errors():
    with pytest.raises(BadColumn):
        heavy_vector(Z2Matrix((), 0), 0)
    with pytest.raises(BadColumn):
        heavy_vector(Z2Matrix((), 4), 0)
    with pytest.raises(BadColumn, match="column 1"):
        heavy_vector(Z2Matrix.from_lists([[1, 0, 0], [1, 0, 1]]), 0b111)


def test_exhaustive_small_matrices_match_brute_force():
    # every matrix up to 3x3 with every offset
    for nrows in (1, 2, 3):
        for ncols in (1, 2, 3):
            for rows in itertools.product(range(1 << ncols), repeat=nrows):
                m = Z2Matrix(rows, ncols)
                for offset in range(1 << ncols):
                    if m.zero_columns():
                        with pytest.raises(BadColumn):
                            heavy_vector(m, offset)
                        continue
                    assert check(m, offset).weight <= coset_brute_force(m, offset)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6),
            st.integers(0, (1 << n) - 1),
            st.just(n),
        )
    )
)
def test_heavy_matches_brute_force(case):
    rows, offset, ncols = case
    m = Z2Matrix(tuple(rows), ncols)
    assume(not m.zero_columns())
    res = check(m, offset)
    assert res.weight <= coset_brute_force(m, offset)


def test_unit_diagonal_matrices_reach_half():
    # the shape big_z hands over: 2n x 2n with ones on the diagonal
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 24)
        rows = tuple((1 << i) | rng.getrandbits(2 * n) for i in range(2 * n))
        assert check(Z2Matrix(rows, 2 * n), rng.getrandbits(2 * n)).weight >= n
