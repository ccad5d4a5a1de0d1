"""Mod-2 linear algebra on bit-packed rows.

The one nontrivial export is heavy_vector: given a 0/1 matrix with no
zero column and an offset c, a vector v in its row space for which c ^ v
has at least half the columns set, together with the row combination
producing it.  Such a v exists because every coordinate of c ^ v is 1
for exactly half of the row space, so the coset c ^ rowspace averages
half the length (the counting step of Flapan, Mellor and Naimi, taken
over the coset).  A conditional-expectation walk (Erdős and Selfridge)
finds one without enumerating the row space.
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
]


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


@dataclass(frozen=True)
class HeavyVectorResult:
    """A row-space vector v, the rows producing it, and the weight of
    offset ^ v, which is at least half the column count."""

    vector: int
    rows: tuple[int, ...]
    weight: int


def heavy_vector(matrix: Z2Matrix, offset: int) -> HeavyVectorResult:
    """A row-space vector v with ``offset ^ v`` of weight at least ncols/2,
    with the rows producing it.

    Raises :class:`BadColumn` naming the first identically-zero column.
    Otherwise a uniformly random subset of the rows makes every column of
    ``offset ^ v`` uniform, so its weight averages ncols/2; the method of
    conditional expectations fixes the rows one at a time, last to first,
    and never lowers that average.  Row i alone decides the columns that
    it touches and no earlier row does, so it is kept exactly when it
    raises the weight of ``offset ^ v`` there.
    """
    if matrix.ncols == 0:
        raise BadColumn("matrix has no columns")
    if not matrix.rows:
        raise BadColumn("column 0 of an empty matrix is zero")
    zeros = matrix.zero_columns()
    if zeros:
        raise BadColumn(f"column {zeros[0]} is zero in every row")
    before = [0]
    for r in matrix.rows[:-1]:
        before.append(before[-1] | r)
    x = offset
    picks = []
    for i in reversed(range(len(matrix.rows))):
        row = matrix.rows[i]
        fresh = row & ~before[i]
        if weight((x ^ row) & fresh) > weight(x & fresh):
            x ^= row
            picks.append(i)
    if 2 * weight(x) < matrix.ncols:
        raise Impossible("heavy vector is lighter than half the columns")
    return HeavyVectorResult(vector=x ^ offset, rows=tuple(sorted(picks)), weight=weight(x))
