"""Mod-2 linear algebra on bit-packed rows.

The one nontrivial export is heavy_vector: a vector in the row space of a
0/1 matrix whose weight exceeds half the column count, together with the
row combination producing it.  Such a vector exists whenever no column is
identically zero, because the nonzero codewords of a code with full
support average strictly more than half the length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadColumn, Impossible

__all__ = [
    "Z2Matrix",
    "HeavyVectorResult",
    "weight",
    "bits_to_vector",
    "heavy_vector",
    "EXHAUSTIVE_RANK_LIMIT",
]

EXHAUSTIVE_RANK_LIMIT = 22


def weight(x: int) -> int:
    return x.bit_count()


def bits_to_vector(bits: Sequence[int]) -> int:
    v = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("entries must be 0 or 1")
        if b:
            v |= 1 << i
    return v


@dataclass(frozen=True)
class Z2Matrix:
    """Rows as integers; bit i of a row is the entry in column i."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        if self.ncols < 0:
            raise ValueError("negative column count")
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def from_lists(cls, lists: Iterable[Sequence[int]], ncols: int | None = None) -> "Z2Matrix":
        rows = tuple(bits_to_vector(l) for l in lists)
        if ncols is None:
            lens = {len(l) for l in lists}
            if len(lens) != 1:
                raise ValueError("rows of unequal length need an explicit column count")
            ncols = lens.pop()
        return cls(rows=rows, ncols=ncols)

    def zero_columns(self) -> list[int]:
        used = 0
        for r in self.rows:
            used |= r
        return [j for j in range(self.ncols) if not (used >> j) & 1]


def _eliminate(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Row-reduce, tracking which original rows combine into each basis row.

    Returns (basis, masks): basis[i] is a nonzero vector with a pivot no
    other basis row shares, masks[i] has bit j set when original row j is
    part of the combination.
    """
    basis: list[int] = []
    masks: list[int] = []
    for idx, row in enumerate(rows):
        v = row
        m = 1 << idx
        for b, bm in zip(basis, masks):
            if v & (b & -b):  # b's lowest set bit is its pivot
                v ^= b
                m ^= bm
        if v:
            basis.append(v)
            masks.append(m)
    return basis, masks


@dataclass(frozen=True)
class HeavyVectorResult:
    """A row-space vector of weight > ncols/2 and the rows producing it."""

    vector: int
    rows: tuple[int, ...]
    weight: int


def _mask_to_rows(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _exhaustive_best(basis: list[int], masks: list[int]) -> tuple[int, int]:
    """Max-weight vector over the whole row space; weight ties go to the
    witness using the lowest row indices.  Returns (vector, mask)."""
    r = len(basis)
    best_v, best_m, best_w = 0, 0, -1
    best_rows: tuple[int, ...] = ()
    # Gray-code sweep: combo i differs from i-1 in one basis element
    v = 0
    m = 0
    prev_gray = 0
    for i in range(1, 1 << r):
        gray = i ^ (i >> 1)
        b = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        v ^= basis[b]
        m ^= masks[b]
        w = weight(v)
        if w < best_w:
            continue
        if w == best_w:
            rows = _mask_to_rows(m)
            if rows >= best_rows:
                continue
        else:
            rows = _mask_to_rows(m)
        best_v, best_m, best_w, best_rows = v, m, w, rows
    return best_v, best_m


def _heavy(rows: tuple[int, ...], ncols: int) -> tuple[int, int]:
    """Heavy vector for a matrix known to have no zero column.

    Returns (vector, mask of original row indices)."""
    basis, masks = _eliminate(rows)
    r = len(basis)
    if r == 0:
        raise Impossible("a matrix with no zero column has rank 0")
    if r <= EXHAUSTIVE_RANK_LIMIT:
        return _exhaustive_best(basis, masks)

    # start from the heaviest basis row, then greedy single-row improvements
    vi = max(range(r), key=lambda i: (weight(basis[i]), -i))
    v, m = basis[vi], masks[vi]
    while True:
        improved = True
        while improved:
            improved = False
            for b, bm in zip(basis, masks):
                if weight(v ^ b) > weight(v):
                    v ^= b
                    m ^= bm
                    improved = True
        k = weight(v)
        if 2 * k > ncols:
            return v, m
        # Split on the zero columns of v.  The restriction of the rows to
        # those columns still has no zero column, so it has a heavy vector
        # x there.  Writing x_in / x_out for x's weight on v's support and
        # off it: if x_in >= x_out then x alone has weight > ncols - k,
        # which beats ncols/2; otherwise v + x is strictly heavier than v.
        zero_cols = [j for j in range(ncols) if not (v >> j) & 1]
        sub_ncols = len(zero_cols)
        if sub_ncols == 0:
            raise Impossible("a vector of weight at most ncols/2 has no zero column")
        sub_rows = tuple(
            sum(((row >> j) & 1) << t for t, j in enumerate(zero_cols)) for row in rows
        )
        x_sub, x_mask = _heavy(sub_rows, sub_ncols)
        x = 0
        mm = x_mask
        i = 0
        while mm:
            if mm & 1:
                x ^= rows[i]
            mm >>= 1
            i += 1
        x_out = weight(x & ~v)
        x_in = weight(x & v)
        if 2 * x_out <= sub_ncols:
            raise Impossible("heavy vector on the zero columns is not heavy there")
        if x_in >= x_out:
            if 2 * weight(x) <= ncols:
                raise Impossible("heavy vector on the zero columns is not heavy overall")
            return x, x_mask
        v ^= x
        m ^= x_mask
        if weight(v) <= k:
            raise Impossible("heavy-vector step did not increase the weight")


def heavy_vector(matrix: Z2Matrix) -> HeavyVectorResult:
    """A row-space vector with more than ncols/2 ones, with its witness.

    Raises :class:`BadColumn` naming the first identically-zero column,
    since no row combination can be heavy there.  For matrices of rank at
    most EXHAUSTIVE_RANK_LIMIT the returned vector has maximum weight.
    """
    if matrix.ncols == 0:
        raise BadColumn("matrix has no columns")
    if not matrix.rows:
        raise BadColumn("column 0 of an empty matrix is zero")
    zeros = matrix.zero_columns()
    if zeros:
        raise BadColumn(f"column {zeros[0]} is zero in every row")
    v, m = _heavy(matrix.rows, matrix.ncols)
    rows = _mask_to_rows(m)
    check = 0
    for i in rows:
        check ^= matrix.rows[i]
    if check != v or 2 * weight(v) <= matrix.ncols:
        raise Impossible("heavy vector fails its recheck against the matrix rows")
    return HeavyVectorResult(vector=v, rows=rows, weight=weight(v))
