"""Exhaustive oracle for ``dilink.z2linalg.heavy_vector``."""

from dilink.z2linalg import Z2Matrix, weight


def coset_brute_force(matrix: Z2Matrix, offset: int) -> int:
    """The maximum weight of offset ^ (sum of a subset of the rows).

    Deliberately naive (each subset summed from scratch, no elimination)
    so it shares nothing with heavy_vector.  Exponential in the row count.
    """
    best = 0
    for subset in range(1 << len(matrix.rows)):
        x = offset
        for i, row in enumerate(matrix.rows):
            if subset >> i & 1:
                x ^= row
        best = max(best, weight(x))
    return best
