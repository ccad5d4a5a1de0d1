"""Reference linking table: ``dilink.invariants.LinkTable`` as it was
before it pruned arc pairs by their xy boxes, kept as an independent route.

It sums over every arc pair of the two cycles and memoizes each pair,
zeros included.  ``arc_pair_crossings`` returns 0 for arcs whose boxes
miss, so visiting those pairs adds nothing, but it still prepares every
arc in the order e over A, f over B.  The pruned table must give the same
lk, or raise the same exception with the same message, and end on the same
shear.
"""

from typing import Optional

from dilink.digraph import DiCycle, OrientedLoop, realize
from dilink.errors import DegenerateProjection, DisjointnessViolated, Impossible
from dilink.geom import (
    SpatialEmbedding,
    arc_pair_crossings,
    arc_strands,
    check_loops_disjoint,
    shear_points,
)
from dilink.invariants import SHEAR_TRIES, shear_schedule


class LinkTable:
    """Linking numbers of cycles in one embedding, read from a table of
    arc-pair crossing counts that is filled in on first use.

    lk(A, B) = 1/2 * sum over arcs e of A and f of B of
    sigma_A(e) * sigma_B(f) * S(e, f).  Here sigma is +1 where the cycle
    runs along the arc and -1 where it runs against it, and S(e, f) is the
    signed count of crossings between arcs e and f, each run tail to head,
    in the projection under the table's current shear.  A touch or overlap
    in projection between arcs of the two cycles, a vertical segment whose
    point lies on the other cycle's projection included, moves the whole
    table to the next shear and redoes the query; lk does not depend on the
    shear.  Each queried cycle is checked
    once for self-intersection in space, and cycles that share a vertex or
    arcs that meet in space raise DisjointnessViolated.
    """

    def __init__(self, emb: SpatialEmbedding):
        self.emb = emb
        self._shears = iter(shear_schedule(SHEAR_TRIES))
        self._cycles: dict[DiCycle, tuple[OrientedLoop, tuple]] = {}
        self._next_shear(None)

    def _next_shear(self, cause: Optional[DegenerateProjection]) -> None:
        shear = next(self._shears, None)
        if shear is None:
            raise DegenerateProjection(
                f"no generic projection after {SHEAR_TRIES} shears: {cause}",
                cause.violations,
            )
        self.shear = shear
        # per arc: its strands under the current shear (geom.arc_strands)
        self._arcs: dict[tuple[int, int], tuple] = {}
        # (e, f) with e < f -> S(e, f)
        self._pairs: dict[tuple, int] = {}

    def _cycle(self, c: DiCycle) -> tuple[OrientedLoop, tuple]:
        got = self._cycles.get(c)
        if got is None:
            loop = realize(c, self.emb)
            check_loops_disjoint([loop.points])
            signed = tuple(
                (c.arc(i), 1 if along else -1) for i, along in enumerate(c.edge_choices)
            )
            got = (loop, signed)
            self._cycles[c] = got
        return got

    def loop(self, c: DiCycle) -> OrientedLoop:
        return self._cycle(c)[0]

    def _arc(self, key: tuple[int, int]) -> tuple:
        got = self._arcs.get(key)
        if got is None:
            pts = self.emb.arcs[key].points
            kx, ky = self.shear
            if kx or ky:
                pts = shear_points(pts, kx, ky)
            got = arc_strands(key, pts)
            self._arcs[key] = got
        return got

    def _crossings(self, e: tuple[int, int], f: tuple[int, int]) -> int:
        """S(e, f) for arcs with no common endpoint."""
        key = (e, f) if e < f else (f, e)
        got = self._pairs.get(key)
        if got is None:
            got = arc_pair_crossings(self._arc(e), self._arc(f))
            self._pairs[key] = got
        return got

    def lk(self, a: DiCycle, b: DiCycle) -> int:
        shared = a.vertex_set() & b.vertex_set()
        if shared:
            raise DisjointnessViolated(f"cycles share vertices {sorted(shared)}")
        arcs_a = self._cycle(a)[1]
        arcs_b = self._cycle(b)[1]
        while True:
            try:
                total = sum(
                    sa * sb * self._crossings(e, f)
                    for e, sa in arcs_a
                    for f, sb in arcs_b
                )
                break
            except DegenerateProjection as ex:
                self._next_shear(ex)
        if total % 2:
            raise Impossible(f"odd signed crossing sum {total} between two cycles")
        return total // 2

    def omega(self, a: DiCycle, b: DiCycle) -> int:
        return self.lk(a, b) & 1
