"""Linking numbers and the second Conway coefficient, exactly.

Linking numbers of cycles in an embedding come from :class:`LinkTable`,
which sums arc-pair crossing counts.  :func:`linking_table` projects whole
loops at once; it is the independent route tests check the table against.

The knot coefficient a2 has three routes that share nothing beyond the
projection: a signed count of interleaved crossing pairs, the first
Taylor coefficients of the Alexander matrix's determinant at t = 1, and a
skein recursion.  :func:`a2_routes` reads the first two off one
projection; they are polynomial in the crossing count and every
production path compares them.  The skein is exponential and is kept as
a test oracle for small diagrams.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .digraph import DiCycle, OrientedLoop, realize
from .errors import DegenerateProjection, DisjointnessViolated, Impossible, TooLarge
from .geom import (
    LinkDiagram,
    Point3,
    SpatialEmbedding,
    arc_pair_crossings,
    arc_strands,
    check_loops_disjoint,
    project_to_diagram,
    shear_points,
)

__all__ = [
    "LinkTable",
    "ProjectionResult",
    "project_with_retry",
    "linking_table",
    "linking_number",
    "omega",
    "ChordSums",
    "interleaved_pair_sums",
    "a2",
    "a2_alexander",
    "a2_routes",
    "a2_skein",
    "conway_from_diagram",
]


def _loop_points(obj) -> tuple[Point3, ...]:
    # accepts anything with .points (realized cycles) or a bare sequence
    pts = getattr(obj, "points", obj)
    return tuple(pts)


class ProjectionResult(NamedTuple):
    diagram: LinkDiagram
    shear: tuple[int, int]


# entries of the shear schedule tried before a projection counts as degenerate
SHEAR_TRIES = 120


def shear_schedule(n: int) -> list[tuple[int, int]]:
    """First n slope pairs (kx, ky), sweeping diagonals of the integer
    quadrant so any finite set of bad directions is eventually escaped."""
    out: list[tuple[int, int]] = []
    s = 0
    while len(out) < n:
        for a in range(s, -1, -1):
            out.append((a, s - a))
            if len(out) == n:
                break
        s += 1
    return out


def project_with_retry(loops: Sequence) -> ProjectionResult:
    """Project loops to a diagram, shearing until the projection is generic.

    The shear (x, y, z) -> (x + kx*z, y + ky*z, z) keeps every height, so
    the diagram still describes the original curves.  Only degenerate
    projections are retried; intersections in space are real errors and
    propagate immediately.
    """
    point_lists = [_loop_points(l) for l in loops]
    if not point_lists:
        raise ValueError("need at least one loop")
    last: DegenerateProjection | None = None
    for kx, ky in shear_schedule(SHEAR_TRIES):
        sheared = (
            point_lists
            if kx == 0 and ky == 0
            else [shear_points(pts, kx, ky) for pts in point_lists]
        )
        try:
            return ProjectionResult(project_to_diagram(sheared), (kx, ky))
        except DegenerateProjection as exc:
            last = exc
    raise DegenerateProjection(
        f"no generic projection after {SHEAR_TRIES} shears: {last}", last.violations
    )


# ---------------------------------------------------------------------------
# linking


class LinkTable:
    """Linking numbers of cycles in one embedding, read from a table of
    arc-pair crossing counts that is filled in on first use.

    lk(A, B) = 1/2 * sum over arcs e of A and f of B of
    sigma_A(e) * sigma_B(f) * S(e, f).  Here sigma is +1 where the cycle
    runs along the arc and -1 where it runs against it, and S(e, f) is the
    signed count of crossings between arcs e and f, each run tail to head,
    in the projection under the table's current shear.  Only pairs whose
    xy boxes meet can cross, so only those are visited and remembered.  A
    queried arc with a vertical segment, or a touch or overlap in
    projection between arcs of the two cycles, moves the whole table to the
    next shear and redoes the query; lk does not depend on the shear.  Each
    queried cycle is checked once for self-intersection in space, and
    cycles that share a vertex or arcs that meet in space raise
    DisjointnessViolated.

    Engine entry points and the CLI create the tables, one per command.
    Constructions, pattern search and certificate replay take the caller's
    table in place of the embedding, so a command realizes, checks and
    projects each cycle once.  Every memo holds a pure function of the
    embedding and the shear, so sharing changes no answer.
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
        # per cycle with every arc prepared: ((strands, sign) per arc, xy box)
        self._placed: dict[DiCycle, tuple[tuple, tuple]] = {}
        # (e, f) with e < f and meeting xy boxes -> S(e, f)
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

    def _strands(self, c: DiCycle):
        """c's (strands, sign) per arc, each arc prepared when reached."""
        for key, sign in self._cycle(c)[1]:
            yield self._arc(key), sign

    def _place(self, c: DiCycle) -> tuple[tuple, tuple]:
        """c's (strands, sign) per arc and the xy box of the whole cycle."""
        got = self._placed.get(c)
        if got is None:
            arcs = tuple(self._strands(c))
            x0, y0, x1, y1 = zip(*(s[2] for s, _ in arcs))
            got = (arcs, (min(x0), min(y0), max(x1), max(y1)))
            self._placed[c] = got
        return got

    def _sum(self, a: DiCycle, b: DiCycle) -> int:
        """Sum of sigma_A(e) * sigma_B(f) * S(e, f) over the arc pairs whose
        xy boxes meet.

        Pairs are visited e over A, f over B, and an arc is prepared when
        first reached, so a query raises what the full product of arc pairs
        would raise first.  A cycle's box prunes only once all its arcs are
        prepared under the current shear.
        """
        placed_a = self._placed.get(a)
        placed_b = self._placed.get(b)
        if placed_b is not None:
            bx0, by0, bx1, by1 = placed_b[1]
            if placed_a is not None:
                ax0, ay0, ax1, ay1 = placed_a[1]
                if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
                    return 0
        total = 0
        for se, sa in placed_a[0] if placed_a is not None else self._strands(a):
            ex0, ey0, ex1, ey1 = se[2]
            if placed_b is None:
                row = self._strands(b)
            elif ex0 > bx1 or bx0 > ex1 or ey0 > by1 or by0 > ey1:
                continue
            else:
                row = placed_b[0]
            e = se[0]
            for sf, sb in row:
                fx0, fy0, fx1, fy1 = sf[2]
                if ex0 > fx1 or fx0 > ex1 or ey0 > fy1 or fy0 > ey1:
                    continue
                f = sf[0]
                key = (e, f) if e < f else (f, e)
                s = self._pairs.get(key)
                if s is None:
                    s = self._pairs[key] = arc_pair_crossings(se, sf)
                total += sa * sb * s
            if placed_b is None:
                placed_b = self._place(b)
                bx0, by0, bx1, by1 = placed_b[1]
        self._place(a)
        return total

    def lk(self, a: DiCycle, b: DiCycle) -> int:
        shared = a.vertex_set() & b.vertex_set()
        if shared:
            raise DisjointnessViolated(f"cycles share vertices {sorted(shared)}")
        # realize and self-check both cycles before any arc is projected
        self._cycle(a)
        self._cycle(b)
        while True:
            try:
                total = self._sum(a, b)
                break
            except DegenerateProjection as ex:
                self._next_shear(ex)
        if total % 2:
            raise Impossible(f"odd signed crossing sum {total} between two cycles")
        return total // 2

    def omega(self, a: DiCycle, b: DiCycle) -> int:
        return self.lk(a, b) & 1


def linking_table(loops: Sequence) -> dict[tuple[int, int], int]:
    """Linking number of every component pair, from one shared projection.

    Keys are (i, j) with i < j in the order the loops were given.
    """
    diagram, _ = project_with_retry(loops)
    sums: dict[tuple[int, int], int] = {}
    for c in diagram.crossings:
        a, b = c.over.loop, c.under.loop
        if a != b:
            key = (a, b) if a < b else (b, a)
            sums[key] = sums.get(key, 0) + c.sign
    out: dict[tuple[int, int], int] = {}
    n = len(diagram.loops)
    for i in range(n):
        for j in range(i + 1, n):
            s = sums.get((i, j), 0)
            if s % 2:
                raise Impossible(f"odd signed crossing sum {s} between components {i} and {j}")
            out[(i, j)] = s // 2
    return out


def linking_number(a, b) -> int:
    """Linking number of two disjoint closed curves: half the signed sum of
    the crossings between them."""
    return linking_table([a, b])[(0, 1)]


def omega(a, b) -> int:
    """Linking number mod 2, as 0 or 1."""
    return linking_number(a, b) & 1


# ---------------------------------------------------------------------------
# second Conway coefficient: interleaved crossing pairs and the Alexander matrix


class ChordSums(NamedTuple):
    oo: int
    ou: int
    uo: int
    uu: int


def _single_loop_passes(diagram: LinkDiagram) -> list[tuple[int, bool, int]]:
    if len(diagram.loops) != 1:
        raise ValueError("knot invariants need a single closed loop")
    return [(idx, over, diagram.crossings[idx].sign) for (_, idx, over) in diagram.passes(0)]


def interleaved_pair_sums(diagram: LinkDiagram) -> ChordSums:
    """Signed counts of interleaved crossing pairs on a knot diagram.

    Walk the knot once; each crossing is visited twice.  Crossings a and b
    interleave when their visits alternate a, b, a, b around the walk.
    Each interleaved pair contributes sign(a) * sign(b) to one of four
    buckets named by whether a and b are first visited on the over or the
    under strand (a is the one visited first).
    """
    seq = _single_loop_passes(diagram)
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    info: dict[int, tuple[bool, int]] = {}
    for pos, (cid, over, sign) in enumerate(seq):
        if cid not in first:
            first[cid] = pos
            info[cid] = (over, sign)
        else:
            second[cid] = pos
    sums = {"oo": 0, "ou": 0, "uo": 0, "uu": 0}
    cids = sorted(first, key=lambda c: first[c])
    for ia, a in enumerate(cids):
        for b in cids[ia + 1 :]:
            if not (first[b] < second[a] < second[b]):
                continue
            over_a, sign_a = info[a]
            over_b, sign_b = info[b]
            key = ("o" if over_a else "u") + ("o" if over_b else "u")
            sums[key] += sign_a * sign_b
    return ChordSums(**sums)


def _knot_diagram(knot) -> LinkDiagram:
    # a knot given as its diagram is read as it is; a loop is projected
    if isinstance(knot, LinkDiagram):
        return knot
    return project_with_retry([knot]).diagram


def a2(knot) -> int:
    """Second Conway coefficient of a knot via the interleaved-pair count.

    ``knot`` is a closed loop or its one-loop :class:`LinkDiagram`.  The
    value is the bucket of pairs whose earlier crossing is first met over
    and whose later crossing is first met under; it is independent of
    where the walk starts and of the knot's orientation.
    """
    return interleaved_pair_sums(_knot_diagram(knot)).ou


def a2_alexander(knot) -> int:
    """Second Conway coefficient of a knot from its Alexander matrix, in
    O(c^2) exact integer steps for c crossings.

    ``knot`` is a closed loop or its one-loop :class:`LinkDiagram`.  Arc k
    of the walk ends at the k-th under-pass, and that crossing gives row k
    of M(t): (1 - t) at its over arc, t at arc k and -1 at arc k + 1 when
    positive; (t - 1), 1 and -t when negative.  Dropping the last row and
    column leaves D(t) = t^m * Delta(t), with Delta(1) = 1, Delta'(1) = 0
    and Delta''(1) = 2*a2, so D(1) = 1, D'(1) = m and
    D''(1) = m(m - 1) + 2*a2.  With M(1 + s) = M0 + s*M1, the kept part
    of M0 is I - N for the shift N onto the superdiagonal, so
    A = (I - N)^-1 * M1 holds suffix sums of M1's rows and
    D(1 + s) = det(I + s*A) = 1 + s*tr(A) + s^2*(tr(A)^2 - tr(A^2))/2
    modulo s^3.
    """
    passes = _single_loop_passes(_knot_diagram(knot))
    c = len(passes) // 2
    if c < 2:
        return 0
    # per crossing, in the order of its under-pass: (over arc, sign)
    rows: list[tuple[int, int]] = []
    over_arc: dict[int, int] = {}
    for cid, over, sign in passes:
        if over:
            over_arc[cid] = len(rows) % c
        else:
            rows.append((cid, sign))
    # rows of A, bottom up: running sums of M1's rows (-1 over and +1
    # incoming when positive, +1 over and -1 outgoing when negative); the
    # dropped last column is carried along and never read
    a: list[list[int]] = []
    acc = [0] * c
    for k in range(c - 2, -1, -1):
        cid, sign = rows[k]
        acc = acc[:]
        acc[over_arc[cid]] -= sign
        acc[k if sign > 0 else k + 1] += sign
        a.append(acc)
    a.reverse()
    n = c - 1
    m = sum(a[i][i] for i in range(n))
    cols = list(zip(*a))
    tr_sq = sum(sum(x * y for x, y in zip(a[i], cols[i])) for i in range(n))
    twice_e2 = m * m - tr_sq
    if twice_e2 % 2:
        raise Impossible(f"odd tr(A)^2 - tr(A^2) = {twice_e2} in the Alexander route")
    return twice_e2 // 2 - m * (m - 1) // 2


def a2_routes(knot) -> tuple[int, int]:
    """(a2, a2_alexander) of a knot, both read off one projection."""
    diagram = _knot_diagram(knot)
    return a2(diagram), a2_alexander(diagram)


# ---------------------------------------------------------------------------
# second Conway coefficient, test oracle: skein recursion

PassEntry = tuple[int, bool, int]
PassList = tuple[PassEntry, ...]
Poly = dict[int, int]


def _canonical(passes: tuple[PassList, ...]) -> tuple[PassList, ...]:
    # renumber crossing ids by first appearance so equal shapes share memo hits
    relabel: dict[int, int] = {}
    out = []
    for comp in passes:
        oc = []
        for cid, over, sign in comp:
            r = relabel.setdefault(cid, len(relabel))
            oc.append((r, over, sign))
        out.append(tuple(oc))
    return tuple(out)


def _padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for d, c in q.items():
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _pzmul(p: Poly, k: int) -> Poly:
    # multiply by k*z, k = +1 or -1
    return {d + 1: c * k for d, c in p.items()}


def _conway(passes: tuple[PassList, ...], memo: dict) -> Poly:
    key = _canonical(passes)
    got = memo.get(key)
    if got is not None:
        return got

    if any(not comp for comp in key):
        # a component with no crossings is split off
        result = {0: 1} if len(key) == 1 else {}
        memo[key] = result
        return result

    # first crossing met on the under strand, scanning components in order
    seen: set[int] = set()
    bad: tuple[int, int] | None = None
    for ci, comp in enumerate(key):
        for pi, (cid, over, _) in enumerate(comp):
            if cid in seen:
                continue
            seen.add(cid)
            if not over:
                bad = (ci, pi)
                break
        if bad:
            break
    if bad is None:
        # fully descending: an unknot, or a split collection of them
        result = {0: 1} if len(key) == 1 else {}
        memo[key] = result
        return result

    cid0 = key[bad[0]][bad[1]][0]
    locs = [
        (ci, pi)
        for ci, comp in enumerate(key)
        for pi, e in enumerate(comp)
        if e[0] == cid0
    ]
    if len(locs) != 2:
        raise Impossible(f"crossing {cid0} is passed {len(locs)} times, not twice")
    (c1, p1), (c2, p2) = locs
    sign0 = key[c1][p1][2]

    switched = tuple(
        tuple(
            (cid, (not over) if cid == cid0 else over, -sign if cid == cid0 else sign)
            for (cid, over, sign) in comp
        )
        for comp in key
    )

    if c1 == c2:
        comp = key[c1]
        i, j = sorted((p1, p2))
        pieces = (comp[i + 1 : j], comp[j + 1 :] + comp[:i])
        smoothed = key[:c1] + pieces + key[c1 + 1 :]
    else:
        a_comp, b_comp = key[c1], key[c2]
        merged = a_comp[:p1] + b_comp[p2 + 1 :] + b_comp[:p2] + a_comp[p1 + 1 :]
        smoothed = key[:c1] + (merged,) + key[c1 + 1 : c2] + key[c2 + 1 :]

    result = _padd(_conway(switched, memo), _pzmul(_conway(smoothed, memo), sign0))
    memo[key] = result
    return result


def conway_from_diagram(diagram: LinkDiagram, max_crossings: int = 16) -> Poly:
    """Conway polynomial of a diagram by skein recursion, as {degree: coeff}.

    Exponential in the crossing number; refuses diagrams above the bound.
    """
    if len(diagram.crossings) > max_crossings:
        raise TooLarge(
            f"{len(diagram.crossings)} crossings exceed the skein bound of {max_crossings}"
        )
    passes = tuple(
        tuple((idx, over, diagram.crossings[idx].sign) for (_, idx, over) in diagram.passes(li))
        for li in range(len(diagram.loops))
    )
    return _conway(passes, {})


def a2_skein(knot, max_crossings: int = 16) -> int:
    """Second Conway coefficient by skein recursion, for a closed loop or
    its one-loop :class:`LinkDiagram`.  Exponential in the crossing count;
    tests use it as an oracle for the other two routes."""
    diagram = _knot_diagram(knot)
    if len(diagram.loops) != 1:
        raise ValueError("knot invariants need a single closed loop")
    poly = conway_from_diagram(diagram, max_crossings)
    if poly.get(0, 0) != 1:
        raise Impossible("knot Conway polynomial must have constant term 1")
    return poly.get(2, 0)
