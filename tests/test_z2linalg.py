"""Bit-packed GF(2) rows and the heavy row-space vector."""

import itertools

import pytest
from hypothesis import assume, given, strategies as st

from dilink.errors import BadColumn, TooLarge
from dilink.z2linalg import (
    EXHAUSTIVE_RANK_LIMIT,
    HeavyVectorResult,
    Z2Matrix,
    bits_to_vector,
    heavy_vector,
    weight,
)
from z2_oracle import row_space_brute_force


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


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_identity_heavy_vector_is_all_ones(n):
    ident = Z2Matrix(tuple(1 << i for i in range(n)), n)
    res = heavy_vector(ident)
    assert res.vector == (1 << n) - 1
    assert res.rows == tuple(range(n))
    assert res.weight == n


def test_heavy_vector_tie_breaks_to_lowest_rows():
    # every nonzero combination has weight 2; the single-row witness (0,) wins
    m = Z2Matrix.from_lists([[1, 1, 0], [0, 1, 1]])
    res = heavy_vector(m)
    assert res == HeavyVectorResult(vector=0b011, rows=(0,), weight=2)
    assert row_space_brute_force(m) == res


def test_bad_column_errors():
    with pytest.raises(BadColumn):
        heavy_vector(Z2Matrix((), 0))
    with pytest.raises(BadColumn):
        heavy_vector(Z2Matrix((), 4))
    with pytest.raises(BadColumn, match="column 1"):
        heavy_vector(Z2Matrix.from_lists([[1, 0, 0], [1, 0, 1]]))


def test_exhaustive_small_matrices_match_brute_force():
    for nrows in (1, 2, 3):
        for ncols in (1, 2, 3):
            for rows in itertools.product(range(1 << ncols), repeat=nrows):
                m = Z2Matrix(rows, ncols)
                if m.zero_columns():
                    with pytest.raises(BadColumn):
                        heavy_vector(m)
                    continue
                res = heavy_vector(m)
                assert res == row_space_brute_force(m)
                assert 2 * res.weight > ncols
                acc = 0
                for i in res.rows:
                    acc ^= rows[i]
                assert acc == res.vector


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6),
        )
    )
)
def test_heavy_matches_brute_force(nc_rows):
    ncols, rows = nc_rows
    m = Z2Matrix(tuple(rows), ncols)
    assume(not m.zero_columns())
    assert heavy_vector(m) == row_space_brute_force(m)


def test_brute_force_refuses_large_rank():
    n = EXHAUSTIVE_RANK_LIMIT + 1
    ident = Z2Matrix(tuple(1 << i for i in range(n)), n)
    with pytest.raises(TooLarge):
        row_space_brute_force(ident)
    # the main routine switches to its greedy/split strategy and still works
    res = heavy_vector(ident)
    assert res.vector == (1 << n) - 1 and res.weight == n


def test_greedy_path_keeps_the_bound():
    # rank 24 forces the non-exhaustive branch on a non-identity matrix
    n = EXHAUSTIVE_RANK_LIMIT + 2
    rows = tuple(((1 << (i + 1)) - 1) for i in range(n))  # lower-triangular ones
    res = heavy_vector(Z2Matrix(rows, n))
    assert 2 * res.weight > n
    acc = 0
    for i in res.rows:
        acc ^= rows[i]
    assert acc == res.vector
