"""Exhaustive oracle for ``dilink.z2linalg.heavy_vector``."""

from dilink.errors import TooLarge
from dilink.z2linalg import (
    EXHAUSTIVE_RANK_LIMIT,
    HeavyVectorResult,
    Z2Matrix,
    _eliminate,
    _mask_to_rows,
    weight,
)


def row_space_brute_force(matrix: Z2Matrix) -> HeavyVectorResult:
    """Maximum-weight row-space vector by full enumeration, with witness.

    Deliberately naive (each combination rebuilt from scratch) so it can
    serve as an oracle for heavy_vector's bound.  Exponential in the rank;
    ranks above EXHAUSTIVE_RANK_LIMIT are refused.
    """
    basis, masks = _eliminate(matrix.rows)
    r = len(basis)
    if r > EXHAUSTIVE_RANK_LIMIT:
        raise TooLarge(f"rank {r} row space is too big to enumerate")
    best = HeavyVectorResult(vector=0, rows=(), weight=0)
    best_key: tuple | None = None
    for combo in range(1, 1 << r):
        v = 0
        m = 0
        for b in range(r):
            if (combo >> b) & 1:
                v ^= basis[b]
                m ^= masks[b]
        rows = _mask_to_rows(m)
        key = (-weight(v), rows)
        if best_key is None or key < best_key:
            best_key = key
            best = HeavyVectorResult(vector=v, rows=rows, weight=weight(v))
    return best
