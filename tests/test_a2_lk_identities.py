"""Nikkuni's identities (Topology Appl., 2009) tie the a2 of the Hamiltonian
and shorter cycles of a spatial complete graph to the linking numbers of
its disjoint cycle pairs.  They hold for every embedding, so they check
``a2_routes`` and ``LinkTable.lk`` against each other on random ones:

- K6: Σ a2 over the 60 6-cycles − Σ a2 over the 72 5-cycles =
  (Σ lk² − 1)/2 over the 10 pairs of disjoint triangles;
- K7: 7 Σ₇ a2 − 6 Σ₆ a2 − 2 Σ₅ a2 = 2 Σ lk² − 21 over the 105 pairs of
  a triangle and a disjoint square.

Every cycle runs on the arcs from the lower id to the higher, as
``engine._triangle`` builds its triangles.
"""

from itertools import combinations, permutations

import pytest

from dilink.digraph import DiCycle
from dilink.invariants import LinkTable, a2_routes
from dilink.workbench.generators import random_complete


def _cycles(vertices):
    """Each cycle through all of the vertices once, up to reversal."""
    first, *rest = sorted(vertices)
    for order in permutations(rest):
        if order[0] < order[-1]:
            walk = (first, *order)
            steps = zip(walk, walk[1:] + walk[:1])
            yield DiCycle(walk, tuple(a < b for a, b in steps))


def _a2_sum(table, p, k):
    total = 0
    for vertices in combinations(range(p), k):
        for c in _cycles(vertices):
            pair_count, alexander = a2_routes(table.diagram(c))
            assert pair_count == alexander, c
            total += pair_count
    return total


def _lk_squares(table, p, k):
    """Σ lk² over the pairs of a triangle and a disjoint k-cycle."""
    total = 0
    for tri in combinations(range(p), 3):
        rest = [v for v in range(p) if v not in tri]
        for other in combinations(rest, k):
            if k == 3 and other < tri:
                continue  # each pair of triangles once
            for a in _cycles(tri):
                for b in _cycles(other):
                    total += table.lk(a, b) ** 2
    return total


@pytest.mark.parametrize("seed", range(20))
def test_k6_identity(seed):
    table = LinkTable(random_complete(6, seed).embedding)
    lhs = _a2_sum(table, 6, 6) - _a2_sum(table, 6, 5)
    assert 2 * lhs == _lk_squares(table, 6, 3) - 1


@pytest.mark.parametrize("seed", range(2))
def test_k7_identity(seed):
    table = LinkTable(random_complete(7, seed).embedding)
    lhs = 7 * _a2_sum(table, 7, 7) - 6 * _a2_sum(table, 7, 6) - 2 * _a2_sum(table, 7, 5)
    assert lhs == 2 * _lk_squares(table, 7, 4) - 21
