"""Weighted linking patterns and keyring search.

A pattern is the summary graph of a link: one vertex per component, an
edge weighted |lk| wherever that is nonzero, optionally a knotting weight
|a2| and a directionality per vertex.  In its mod-2 reduction,
:func:`find_disjoint_keyrings` searches for vertex-disjoint stars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .digraph import DiCycle, directionality
from .errors import Impossible, SearchBudgetExceeded
from .invariants import LinkTable, a2_routes

__all__ = [
    "WeightedPattern",
    "compute_pattern",
    "find_disjoint_keyrings",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 500_000


@dataclass(frozen=True)
class WeightedPattern:
    """Vertices 0..n-1 with |lk| edge weights; zero-weight edges are absent.

    ``knot_weights`` maps a vertex to |a2| when knotting was computed;
    ``delta`` maps a vertex to its cycle's directionality when known.
    """

    labels: tuple[str, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    knot_weights: Optional[dict[int, int]] = None
    delta: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), w in self.edges.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range or misordered")
            if w < 1:
                raise ValueError("present edges must have weight >= 1")

    @property
    def n(self) -> int:
        return len(self.labels)

    def weight(self, i: int, j: int) -> int:
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        return self.edges.get(key, 0)

    def mod2_neighbors(self, i: int) -> frozenset[int]:
        return frozenset(
            j for j in range(self.n) if j != i and self.weight(i, j) % 2 == 1
        )

    def to_json(self) -> dict:
        out: dict = {
            "labels": list(self.labels),
            "edges": [[i, j, w] for (i, j), w in sorted(self.edges.items())],
            "delta": [[i, d] for i, d in sorted(self.delta.items())],
        }
        if self.knot_weights is not None:
            out["knot_weights"] = [[i, w] for i, w in sorted(self.knot_weights.items())]
        return out


# ---------------------------------------------------------------------------
# pattern computation


def compute_pattern(
    cycles: Sequence[DiCycle], table: LinkTable, with_knotting: bool = False
) -> WeightedPattern:
    """Pairwise |lk| summary of cycles in one embedding, labelled c0, c1, ...

    Every linking number comes from the caller's ``table`` on that
    embedding, which also checks each cycle for self-intersection.  When
    ``with_knotting`` is set, each cycle also gets |a2|, read off one
    projection by the pair-count and the Alexander route, which must agree.
    """
    edges = {(i, j): abs(v) for i, j, v in table.lk_pairs(cycles) if v}
    knot_weights = None
    if with_knotting:
        knot_weights = {}
        for i, c in enumerate(cycles):
            v_pairs, v_alexander = a2_routes(table.diagram(c))
            if v_pairs != v_alexander:
                raise Impossible(f"a2 routes disagree on c{i}: {v_pairs} vs {v_alexander}")
            knot_weights[i] = abs(v_pairs)
    return WeightedPattern(
        labels=tuple(f"c{i}" for i in range(len(cycles))),
        edges=edges,
        knot_weights=knot_weights,
        delta={i: directionality(c) for i, c in enumerate(cycles)},
    )


# ---------------------------------------------------------------------------
# keyring search


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                f"containment search exceeded its budget of {self.limit} nodes"
            )


def find_disjoint_keyrings(
    p: WeightedPattern, count: int, keys: int, budget: int = DEFAULT_BUDGET
) -> Optional[list[dict[str, int]]]:
    """Search for ``count`` vertex-disjoint mod-2 stars with ``keys`` keys.

    Greedy in center order with full backtracking; each witness maps
    "center" and "k0", "k1", ... to vertices.  None means provably absent; running out of budget
    raises instead.
    """
    if count < 1 or keys < 1:
        raise ValueError("need positive star count and key count")
    bud = _Budget(budget)
    nbrs = {i: sorted(p.mod2_neighbors(i)) for i in range(p.n)}
    chosen: list[tuple[int, tuple[int, ...]]] = []
    used: set[int] = set()

    def pick(min_center: int) -> bool:
        if len(chosen) == count:
            return True
        for c in range(min_center, p.n):
            if c in used:
                continue
            free = [k for k in nbrs[c] if k not in used]
            if len(free) < keys:
                continue
            for combo in combinations(free, keys):
                bud.spend()
                chosen.append((c, combo))
                used.add(c)
                used.update(combo)
                # centers ascend; star sets are interchangeable
                if pick(c + 1):
                    return True
                used.difference_update(combo)
                used.remove(c)
                chosen.pop()
        return False

    if not pick(0):
        return None
    out = []
    for c, combo in chosen:
        w = {"center": c}
        for i, k in enumerate(combo):
            w[f"k{i}"] = k
        out.append(w)
    return out
