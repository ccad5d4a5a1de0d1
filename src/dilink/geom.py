"""Exact piecewise-linear geometry for spatial digraph embeddings.

All positions are integer lattice points and every predicate is decided by
the sign of an exact integer expression; floating point is never consulted
for a geometric decision.  Rationals appear only to order a diagram's
passes along a segment, at a triple point, and in the text of a violation
at a point off the lattice.  Diagrams use the standard projection
(x, y, z) -> (x, y), with z as the height that decides over/under at a
crossing.

Crossing sign convention (fixed here, used everywhere): a crossing counts +1
when the under-strand direction is counterclockwise from the over-strand
direction in the projection plane, i.e. the z-component of
``over_dir x under_dir`` is positive, and -1 otherwise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CoordinateOverflow,
    DegenerateProjection,
    DisjointnessViolated,
)

__all__ = [
    "COORD_LIMIT",
    "DEFAULT_BOX",
    "Point3",
    "PolyLine",
    "SpatialEmbedding",
    "Violation",
    "ValidationReport",
    "LinkDiagram",
    "validate_general_position",
    "project_to_diagram",
    "shear_points",
]

# Default half-width of the coordinate box for generated data.
DEFAULT_BOX = 2**30
# Hard cap: beyond this, shearing refuses to grow coordinates further.
COORD_LIMIT = 2**62


class Point3(NamedTuple):
    x: int
    y: int
    z: int


def _as_point(p: Sequence[int]) -> Point3:
    x, y, z = p
    if not (isinstance(x, int) and isinstance(y, int) and isinstance(z, int)):
        raise TypeError("lattice points need integer coordinates")
    return p if type(p) is Point3 else Point3(x, y, z)


class PolyLine:
    """An open polyline with >= 2 distinct-in-sequence lattice points."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = tuple(map(_as_point, points))
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("polyline repeats a point consecutively")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyLine) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PolyLine({list(self.points)!r})"

    def reversed(self) -> "PolyLine":
        return PolyLine(self.points[::-1])

    def segments(self) -> Iterator[tuple[Point3, Point3]]:
        return zip(self.points, self.points[1:])


@dataclass(frozen=True)
class SpatialEmbedding:
    """Integer-lattice PL embedding of a digraph.

    ``vertices`` maps vertex id -> position, ``arcs`` maps a directed edge
    (tail, head) -> the polyline drawn for it.  Each arc must start at its
    tail's position and end at its head's; arcs of antiparallel edges are
    separate curves with disjoint interiors (checked by
    :func:`validate_general_position`, not here).
    """

    vertices: dict[int, Point3]
    arcs: dict[tuple[int, int], PolyLine]
    box: int = DEFAULT_BOX

    def __post_init__(self):
        object.__setattr__(
            self,
            "vertices",
            {int(v): _as_point(p) for v, p in self.vertices.items()},
        )
        seen_pos: dict[Point3, int] = {}
        for v, p in self.vertices.items():
            if max(abs(p.x), abs(p.y), abs(p.z)) > self.box:
                raise CoordinateOverflow(f"vertex {v} outside box {self.box}")
            if p in seen_pos:
                raise ValueError(f"vertices {seen_pos[p]} and {v} coincide")
            seen_pos[p] = v
        for (t, h), arc in self.arcs.items():
            if t == h:
                raise ValueError("loop edges are not allowed")
            if t not in self.vertices or h not in self.vertices:
                raise ValueError(f"edge ({t},{h}) references unknown vertex")
            if arc.points[0] != self.vertices[t] or arc.points[-1] != self.vertices[h]:
                raise ValueError(f"arc of ({t},{h}) does not join its endpoints")
            # the ends are vertices, already checked
            for p in arc.points[1:-1]:
                if max(abs(p.x), abs(p.y), abs(p.z)) > self.box:
                    raise CoordinateOverflow(f"arc of ({t},{h}) leaves box")

    def segment_count(self) -> int:
        return sum(len(a) - 1 for a in self.arcs.values())


# ---------------------------------------------------------------------------
# exact primitives


def _sub(a: Point3, b: Point3) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def orient2(p, q, r) -> int:
    """Sign of the 2D orientation of (p, q, r) using x/y coordinates."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def seg3_relation(p: Point3, q: Point3, r: Point3, s: Point3):
    """Exact intersection of closed 3D segments pq and rs.

    Returns ("none", None), ("point", pt), or ("overlap", None) for a
    positive-length collinear overlap.  A meet at an endpoint of either
    segment returns that endpoint itself; only a meet interior to both
    segments has a point of Fractions, and it is always a violation.
    """
    d1 = _sub(q, p)
    d2 = _sub(s, r)
    w = _sub(r, p)
    c = _cross3(d1, d2)
    if c == (0, 0, 0):
        if _cross3(d1, w) != (0, 0, 0):
            return ("none", None)
        # collinear: compare parameters along d1, scaled by L = |d1|^2
        length = _dot3(d1, d1)
        t_r = _dot3(d1, w)
        t_s = _dot3(d1, _sub(s, p))
        lo = max(0, min(t_r, t_s))
        hi = min(length, max(t_r, t_s))
        if lo > hi:
            return ("none", None)
        if lo < hi:
            return ("overlap", None)
        # a single common point is p or q, unless rs is the point r = s
        return ("point", p if lo == 0 else q if lo == length else r)
    if _dot3(w, c) != 0:
        return ("none", None)  # skew lines
    den = _dot3(c, c)
    t_num = _dot3(_cross3(w, d2), c)
    u_num = _dot3(_cross3(w, d1), c)
    if not (0 <= t_num <= den and 0 <= u_num <= den):
        return ("none", None)
    if t_num == 0 or t_num == den:
        return ("point", p if t_num == 0 else q)
    if u_num == 0 or u_num == den:
        return ("point", r if u_num == 0 else s)
    t = Fraction(t_num, den)
    return ("point", (p[0] + t * d1[0], p[1] + t * d1[1], p[2] + t * d1[2]))


def _on_seg2(p, q, r) -> bool:
    """r collinear with pq: is r within the closed 2D segment pq?"""
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])


def _point_on_seg2(pt, a, b):
    if orient2(a, b, pt) == 0 and _on_seg2(a, b, pt):
        return ("touch", (pt[0], pt[1]))
    return ("none", None)


def seg2_relation(p, q, r, s):
    """Exact relation of the xy-projections of closed segments pq and rs.

    Returns one of
      ("none", None)
      ("proper", (t_num, u_num, den))   interior transversal crossing, with
                                        exact parameters t = t_num/den along pq
                                        and u = u_num/den along rs, den > 0
      ("touch", (x, y))                 single contact point, not transversal
                                        through both interiors (integer point)
      ("overlap", None)                 collinear overlap of positive length
    """
    # a vertical segment projects to a point, and every orientation against
    # a point is 0, so the collinear branch below would only compare boxes
    if p[0] == q[0] and p[1] == q[1]:
        return _point_on_seg2(p, r, s)
    if r[0] == s[0] and r[1] == s[1]:
        return _point_on_seg2(r, p, q)
    d1x, d1y = q[0] - p[0], q[1] - p[1]
    d2x, d2y = s[0] - r[0], s[1] - r[1]
    wx, wy = r[0] - p[0], r[1] - p[1]
    # twice the signed areas of (p, q, r), (p, q, s), (r, s, p), (r, s, q),
    # from three cross products, as s - p = w + d2 and q - r = d1 - w
    den = d1x * d2y - d1y * d2x
    o_r = d1x * wy - d1y * wx
    o_s = o_r + den
    o_p = wx * d2y - wy * d2x
    o_q = o_p - den
    if o_r == 0 and o_s == 0:
        # all four points collinear in projection
        touches = []
        for pt, a, b in ((r, p, q), (s, p, q), (p, r, s), (q, r, s)):
            if _on_seg2(a, b, pt) and (pt[0], pt[1]) not in touches:
                touches.append((pt[0], pt[1]))
        if not touches:
            return ("none", None)
        if len(touches) == 1:
            return ("touch", touches[0])
        return ("overlap", None)
    if o_r * o_s < 0 and o_p * o_q < 0:
        # t = t_num/den along pq and u = u_num/den along rs
        if den < 0:
            return ("proper", (-o_p, o_r, -den))
        return ("proper", (o_p, -o_r, den))
    # boundary contact: some endpoint sits on the other segment
    if o_r == 0 and _on_seg2(p, q, r):
        return ("touch", (r[0], r[1]))
    if o_s == 0 and _on_seg2(p, q, s):
        return ("touch", (s[0], s[1]))
    if o_p == 0 and _on_seg2(r, s, p):
        return ("touch", (p[0], p[1]))
    if o_q == 0 and _on_seg2(r, s, q):
        return ("touch", (q[0], q[1]))
    return ("none", None)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.violations)


_Seg = tuple  # (owner, index, p, q) with owner hashable
_pair = itemgetter(0, 1)  # the (i, j) of a pair walk entry


def _pair_walk(
    segs: Sequence[_Seg], points: Sequence[_Seg], ends: dict, crossings: list | None
) -> tuple[list, list, list]:
    """Space meets, projection events and triple points of the segment
    pairs whose xy boxes meet, and the (point, segment) pairs whose boxes
    meet, in one sweep.  ``crossings``, unless None, receives
    ``(i, j, t_num, u_num, den, i_over, sign)`` for each transversal
    crossing of segments i < j that do not meet there: the parameters as
    :func:`seg2_relation` gives them, whether i passes over j, and the
    sign under the module's convention.  Returns three lists, in no
    particular order:
      events     ``(i, j, kind, data)`` with kind
                   "meet"     the segments meet in space off the points the
                              contact rule below permits; ``data`` is the
                              point, None for an overlap
                   "touch"    a contact of the projections that the rule
                   "overlap"  does not permit, ``data`` as
                              :func:`seg2_relation` gives it
      hits       ``(k, i)``: point k's box meets segment i's
      triples    ``((i, j), (k, l), point)`` for each point of the
                 projection where more than one transversal crossing lies:
                 its first two crossings in pair order, and the point as
                 two Fractions

    Each owner's segments come in order along it, each starting where the
    one before ends; an owner whose last segment ends where its first
    starts is closed.  ``ends`` maps an owner to the points where it may
    touch another owner.  The contact rule permits the joint of an owner's
    consecutive segments, the last and first of a closed one included,
    and a fork of two owners at a shared end exactly when that end is in
    both owners' ``ends``; no other contact is permitted.

    The sweep sorts the xy boxes by low x, a point as a zero-size box, and
    scans each box against the later boxes whose low x is at most its high
    x, comparing y directly.  So each pair is decided once, with the box
    the sweep reaches first as the outer segment f and the other as g.
    Ends of one segment strictly on one side of the other's line in
    projection: the pair is disjoint.  Properly crossing projections meet
    in space iff the heights z*den there agree, and only then does
    :func:`seg3_relation` run; otherwise the sign is +1 iff
    (d_f x d_g > 0) == (z_f > z_g), for either order of f and g.  Two
    segments leaving a permitted shared end in directions that differ in
    projection meet only there, and so do consecutive segments running on
    in one direction.  Every other pair is a touch, an overlap or a
    vertical segment, and goes to :func:`seg2_relation`,
    :func:`seg3_relation` and the rule.  So a valid embedding builds no
    Fraction here.

    Triple points rest on the sweep invariant of Bentley and Ottmann
    (1979): the first segment through a point of the projection, in sweep
    order, has every other segment through that point in its window.  So
    with f the first segment that has a point X inside it, more than one
    crossing lies at X iff f crosses two segments at X, or crosses one
    there and runs on one line in projection with another that has X
    inside it.  f keeps its crossings, grouped by their reduced parameter
    along f, only until its window is done, so memory stays proportional
    to the most crossings on one segment.
    """
    n = len(segs)
    recs = []
    boxes = []
    first = 0  # the current owner's first segment
    for k, (owner, _, p, q) in enumerate(segs):
        # the segment after this one along its owner, or -1
        if k + 1 < n and segs[k + 1][0] == owner:
            nxt = k + 1
        else:
            nxt = first if segs[first][2] == q else -1
            first = k + 1
        near = ends.get(owner, ())
        recs.append((
            p[0], p[1], p[2], q[0] - p[0], q[1] - p[1], q[2] - p[2],
            owner, nxt, p, q, p in near, q in near,
        ))
        x0, x1 = (p[0], q[0]) if p[0] <= q[0] else (q[0], p[0])
        y0, y1 = (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])
        boxes.append((x0, x1, y0, y1, k))
    for k, (_, _, p, _) in enumerate(points, n):
        boxes.append((p[0], p[0], p[1], p[1], k))
    boxes.sort()
    lows = [b[0] for b in boxes]
    events, hits, triples = [], [], []
    found = set()  # the points of triples, each reported once
    for a, (_, x1, y0, y1, f) in enumerate(boxes):
        window = boxes[a + 1:bisect_right(lows, x1, a + 1)]
        if f >= n:
            hits += [(f - n, g) for _, _, by0, by1, g in window
                     if g < n and by0 <= y1 and y0 <= by1]
            continue
        pax, pay, paz, dxa, dya, dza, oa, na, pa, qa, fpa, fqa = recs[f]
        at = None  # f's crossings: reduced parameter along f -> a partner
        again = []  # (parameter, partner) for each further crossing there
        lines = []  # segments on f's line in projection
        for _, _, by0, by1, g in window:
            if by0 > y1 or y0 > by1:
                continue
            if g >= n:
                hits.append((g - n, f))
                continue
            pbx, pby, pbz, dxb, dyb, dzb, ob, nb, pb, qb, fpb, fqb = recs[g]
            wx, wy = pbx - pax, pby - pay
            # twice the signed areas of (pa, qa, pb), (pa, qa, qb), (pb, qb,
            # pa) and (pb, qb, qa), as qb - pa = w + db and qa - pb = da - w,
            # with a the outer segment f and b the segment g in its window
            o_r = dxa * wy - dya * wx
            o_s = dxa * (wy + dyb) - dya * (wx + dxb)
            if (o_r > 0 and o_s > 0) or (o_r < 0 and o_s < 0):
                continue
            o_p = wx * dyb - wy * dxb
            o_q = o_p - o_s + o_r
            if (o_p > 0 and o_q > 0) or (o_p < 0 and o_q < 0):
                continue
            if o_r and o_s and o_p and o_q:
                # a proper crossing, at t = t_num/den along f and
                # u = u_num/den along g, with heights zf/den and zg/den
                cross = o_s - o_r  # d_f x d_g
                if cross > 0:
                    den, t_num, u_num = cross, o_p, -o_r
                else:
                    den, t_num, u_num = -cross, -o_p, o_r
                zf = paz * den + t_num * dza
                zg = pbz * den + u_num * dzb
                if zf == zg:
                    i, j = (f, g) if f < g else (g, f)
                    pt = seg3_relation(*recs[i][8:10], *recs[j][8:10])[1]
                    events.append((i, j, "meet", pt))
                elif crossings is not None:
                    over = zf > zg
                    sign = 1 if (cross > 0) == over else -1
                    crossings.append(
                        (f, g, t_num, u_num, den, over, sign) if f < g
                        else (g, f, u_num, t_num, den, not over, sign)
                    )
                d = gcd(t_num, den)
                key = (t_num // d, den // d)
                if at is None:
                    at = {key: g}
                elif key in at:
                    again.append((key, g))
                else:
                    at[key] = g
                continue
            if g == na or f == nb:
                # consecutive segments: at their joint, not folding back on
                # one line in projection
                if o_r or o_s or dxa * dxb + dya * dyb > 0:
                    continue
            elif (o_r or o_s) and oa != ob:
                # the ends are not all collinear in projection, so a shared
                # end is the only one
                if (fpa and (pa == pb and fpb or pa == qb and fqb)) or (
                    fqa and (qa == pb and fpb or qa == qb and fqb)
                ):
                    continue
            if not (o_r or o_s):
                lines.append(g)
            events += _contact(f, g, recs) if f < g else _contact(g, f, recs)
        if at is not None and (again or lines):
            triples += _triples_on(f, recs, at, again, lines, found)
    return events, hits, triples


def _contact(i: int, j: int, recs: list) -> list:
    """The events of :func:`_pair_walk` for segments i < j that touch,
    overlap or are vertical: the general predicates and the contact rule,
    which permits the joint of consecutive segments, or an end of two
    owners that both flag it."""
    _, _, _, _, _, _, oa, na, pa, qa, fpa, fqa = recs[i]
    _, _, _, _, _, _, ob, nb, pb, qb, fpb, fqb = recs[j]
    kind, data = seg2_relation(pa, qa, pb, qb)
    if kind == "none":
        return []
    if j == na or i == nb:
        ok = (qa if j == na else pa,)
    else:
        ok = [x for x, fx in ((pa, fpa), (qa, fqa))
              if fx and oa != ob and (x == pb and fpb or x == qb and fqb)]
    out = []
    kind3, pt = seg3_relation(pa, qa, pb, qb)
    if kind3 != "none" and not (kind3 == "point" and pt in ok):
        out.append((i, j, "meet", pt))
    if kind == "overlap" or all(data != (a[0], a[1]) for a in ok):
        out.append((i, j, kind, data))
    return out


def _triples_on(f: int, recs: list, at: dict, again: list, lines: list, found: set) -> list:
    """The triples of :func:`_pair_walk` at the crossings on segment f:
    ``at`` maps each reduced parameter (t, d) along f where f crosses a
    segment to one such segment, ``again`` holds the further ones, and
    ``lines`` the segments on f's line in projection.  A point already in
    ``found`` was reported from an earlier segment through it."""
    px, py, _, dx, dy = recs[f][:5]
    length = dx * dx + dy * dy
    out = []
    for key, g in at.items():
        t, d = key
        through = [f, g, *(h for k, h in again if k == key)]
        for h in lines:
            # h's ends along f's line, against the point at t*length
            r = recs[h]
            s0 = (r[0] - px) * dx + (r[1] - py) * dy
            s1 = s0 + r[3] * dx + r[4] * dy
            if min(s0, s1) * d < t * length < max(s0, s1) * d:
                through.append(h)
        if len(through) < 3:
            continue
        point = (Fraction(px * d + t * dx, d), Fraction(py * d + t * dy, d))
        if point in found:
            continue
        found.add(point)
        # the crossings there: the pairs that are not parallel in projection
        pairs = sorted(
            (a, b) if a < b else (b, a)
            for k, a in enumerate(through) for b in through[k + 1:]
            if recs[a][3] * recs[b][4] != recs[a][4] * recs[b][3]
        )
        out.append((pairs[0], pairs[1], point))
    return out


def _gather_segments(
    arcs: dict[tuple[int, int], PolyLine]
) -> list[tuple[tuple[int, int], int, Point3, Point3]]:
    out = []
    for key in sorted(arcs):
        pts = arcs[key].points
        for i in range(len(pts) - 1):
            out.append((key, i, pts[i], pts[i + 1]))
    return out


def validate_general_position(emb: SpatialEmbedding) -> ValidationReport:
    """Check 3D disjointness and projection genericity.

    An empty report means the embedding is accepted by every downstream
    operation: arcs meet only at shared endpoint vertices, no segment is
    vertical, and the z-projection has only transversal double points away
    from vertices and bends.  Crossings are checked where the sweep finds
    them and not kept, so memory grows with the segments, not with the
    crossings.
    """
    segs = _gather_segments(emb.arcs)
    # vertices join the box sweep as zero-size boxes
    points = [(v, None, pos, pos) for v, pos in sorted(emb.vertices.items())]
    ends = {k: (a.points[0], a.points[-1]) for k, a in emb.arcs.items()}
    events, hits, triples = _pair_walk(segs, points, ends, None)
    events.sort(key=_pair)
    hits.sort()
    violations: list[Violation] = []

    # vertical segments are invisible to the projection
    for (arc, i, p, q) in segs:
        if p.x == q.x and p.y == q.y:
            violations.append(
                Violation("vertical-segment", (arc, i), f"{p}->{q}")
            )

    contacts: list[Violation] = []
    for i, j, kind, data in events:
        where = (*segs[i][:2], *segs[j][:2])
        if kind == "meet":
            text = f"meet at ({data[0]},{data[1]},{data[2]})" if data else "collinear overlap"
            violations.append(Violation("arc-intersection-3d", where, text))
        elif kind == "overlap":
            contacts.append(Violation("projection-overlap", where, "collinear in projection"))
        else:
            contacts.append(Violation("projection-tangency", where, f"touch at {data}"))

    # vertices on non-incident arcs (3D), incl. isolated vertices
    for k, s in hits:
        v, _, pos, _ = points[k]
        arc, i, p, q = segs[s]
        if (
            v not in arc
            and min(p[2], q[2]) <= pos[2] <= max(p[2], q[2])
            and _cross3(_sub(q, p), _sub(pos, p)) == (0, 0, 0)
        ):
            violations.append(Violation("vertex-on-arc-3d", (v, arc, i), f"vertex {v}"))

    violations += contacts
    for first, second, pt in sorted(triples):
        violations.append(Violation(
            "triple-point",
            (*segs[first[0]][:2], *segs[first[1]][:2], *segs[second[0]][:2], *segs[second[1]][:2]),
            f"at {pt}",
        ))

    # projected vertices on non-incident strands
    for k, s in hits:
        v, _, pos, _ = points[k]
        arc, i, p, q = segs[s]
        if v not in arc and orient2(p, q, pos) == 0:
            violations.append(
                Violation("vertex-on-strand", (v, arc, i), f"vertex {v} in projection")
            )

    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class LinkDiagram:
    """Generic z-projection of disjoint closed loops, as its Gauss code.

    ``crossings[k]`` is crossing k's ``(over loop, under loop, sign)``,
    crossings numbered in the order of their segment pairs.  ``gauss[l]``
    is loop l's passes in walk order, each ``(k, is_over, sign)``, so every
    crossing is passed once over and once under.  Equal inputs produce
    equal diagrams.
    """

    crossings: tuple[tuple[int, int, int], ...]
    gauss: tuple[tuple[tuple[int, bool, int], ...], ...]


def _closed_segments(loops) -> list[tuple[int, int, Point3, Point3]]:
    """(loop, index, p, q) for every segment of the closed loops."""
    for li, lp in enumerate(loops):
        if len(lp) < 3:
            raise DisjointnessViolated(f"loop {li} has fewer than 3 points")
    all_segs: list[tuple[int, int, Point3, Point3]] = []
    for li, lp in enumerate(loops):
        for i, (p, q) in enumerate(zip(lp, lp[1:] + lp[:1])):
            if p == q:
                raise DisjointnessViolated(f"loop {li} repeats a point")
            all_segs.append((li, i, p, q))
    return all_segs


def check_loops_disjoint(loop_points: Sequence[Sequence[Point3]]) -> list | None:
    """Raise :class:`DisjointnessViolated` unless the closed loops are
    simple and pairwise disjoint in space.  Returns the walk's crossing
    records, which :func:`gauss_diagram` reads, when the projection is
    generic (no vertical segment, touch, overlap or triple point), and
    None when it is not."""
    loops = tuple(tuple(lp) for lp in loop_points)
    all_segs = _closed_segments(loops)
    crossings: list = []
    events, _, triples = _pair_walk(all_segs, (), {}, crossings)
    _raise_first_meet(all_segs, events)
    if events or triples or any(p[:2] == q[:2] for _, _, p, q in all_segs):
        return None
    return crossings


def _raise_first_meet(all_segs: Sequence[_Seg], events: list) -> None:
    """Raise :class:`DisjointnessViolated` for the first meet of
    :func:`_pair_walk`'s events in pair order, if there is one."""
    meets = [e for e in events if e[2] == "meet"]
    if meets:
        i, j = _pair(min(meets, key=_pair))
        sa, sb = all_segs[i], all_segs[j]
        raise DisjointnessViolated(
            f"loops {sa[0]} and {sb[0]} intersect in space (segments {sa[1]},{sb[1]})"
        )


def arc_strands(label, points: Sequence[Point3]) -> tuple:
    """An arc prepared for :func:`arc_pair_crossings`: ``(label, segments,
    box)``.  Each segment is ``(x0, y0, x1, y1, px, py, pz, dx, dy, dz, p,
    q)``: its xy box, its start p, its deltas q - p and its ends; ``box`` is
    the whole arc's xy box.  A vertical segment stays, with a box of one
    point: it is degenerate only where it touches the other arc's
    projection, which :func:`arc_pair_crossings` reports.
    """
    segs = []
    for p, q in zip(points, points[1:]):
        px, py, pz = p
        qx, qy = q[0], q[1]
        segs.append((
            min(px, qx), min(py, qy), max(px, qx), max(py, qy),
            px, py, pz, qx - px, qy - py, q[2] - pz, p, q,
        ))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return label, segs, (min(xs), min(ys), max(xs), max(ys))


def arc_pair_crossings(a: tuple, b: tuple) -> int:
    """Signed count of the crossings between the projections of two arcs
    (from :func:`arc_strands`) with no common end, each run from its first
    point to its last.

    Raises :class:`DisjointnessViolated` when the arcs meet in space, and
    :class:`DegenerateProjection` on any other touch or overlap of their
    projections.  Only segment boxes are tested here: callers skip the
    pairs whose arc boxes miss.

    Each segment pair is decided as in :func:`_pair_walk`, from the four
    orientations of its ends in projection: ends strictly on one side of
    the other segment's line miss it, and four nonzero orientations of
    alternating signs are a proper crossing, whose heights and sign are
    read off them.  Only a touch, an overlap or a vertical segment goes to
    :func:`seg2_relation` and :func:`seg3_relation`.
    """
    e, segs_e, _ = a
    f, segs_f, _ = b
    total = 0
    for ax0, ay0, ax1, ay1, pax, pay, paz, dxa, dya, dza, pa, qa in segs_e:
        for bx0, by0, bx1, by1, pbx, pby, pbz, dxb, dyb, dzb, pb, qb in segs_f:
            if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
                continue
            wx, wy = pbx - pax, pby - pay
            # twice the signed areas of (pa, qa, pb), (pa, qa, qb),
            # (pb, qb, pa) and (pb, qb, qa)
            o_r = dxa * wy - dya * wx
            o_s = dxa * (wy + dyb) - dya * (wx + dxb)
            if (o_r > 0 and o_s > 0) or (o_r < 0 and o_s < 0):
                continue
            o_p = wx * dyb - wy * dxb
            o_q = o_p - o_s + o_r
            if (o_p > 0 and o_q > 0) or (o_p < 0 and o_q < 0):
                continue
            if o_r and o_s and o_p and o_q:
                # a proper crossing, at t = o_p/den along a and u = -o_r/den
                # along b, with den = da x db; za/den and zb/den are the
                # heights there, so a passes over b iff (za > zb) == (den > 0),
                # and the sign is +1 iff za > zb
                den = o_s - o_r
                za = paz * den + o_p * dza
                zb = pbz * den - o_r * dzb
                if za == zb:
                    raise DisjointnessViolated(
                        "segments meet in space where their projections cross"
                    )
                total += 1 if za > zb else -1
                continue
            kind, _ = seg2_relation(pa, qa, pb, qb)
            if kind != "none":
                if seg3_relation(pa, qa, pb, qb)[0] != "none":
                    raise DisjointnessViolated(f"arcs {e} and {f} meet in space")
                raise DegenerateProjection(
                    f"arcs {e} and {f} {kind} in projection",
                    (Violation("projection-" + kind, (e, f)),),
                )
    return total


def project_to_diagram(loop_points: Sequence[tuple[Point3, ...]]) -> LinkDiagram:
    """Project closed loops to a crossing diagram, exactly.

    Raises :class:`DegenerateProjection` when the projection is not generic
    and :class:`DisjointnessViolated` when the loops meet in space.
    """
    loops = tuple(tuple(p for p in lp) for lp in loop_points)
    all_segs = _closed_segments(loops)

    for (li, i, p, q) in all_segs:
        if p.x == q.x and p.y == q.y:
            raise DegenerateProjection(
                f"vertical segment on loop {li}",
                (Violation("vertical-segment", (li, i)),),
            )

    crossings: list = []
    events, _, triples = _pair_walk(all_segs, (), {}, crossings)
    # a space meet wins over any degenerate contact; of those, the first in
    # pair order is raised: a touch or overlap, or the second crossing at
    # one point
    _raise_first_meet(all_segs, events)
    bad = [(i, j, "projection-" + kind, None) for i, j, kind, _ in events]
    bad += [(*second, "triple-point", pt) for _, second, pt in triples]
    if bad:
        i, j, kind, pt = min(bad)
        where = (*all_segs[i][:2], *all_segs[j][:2])
        if pt is None:
            text = (
                f"non-transversal contact between loop {where[0]} seg {where[1]} "
                f"and loop {where[2]} seg {where[3]}"
            )
        else:
            text = f"triple point at ({pt[0]},{pt[1]})"
        raise DegenerateProjection(text, (Violation(kind, where),))

    return gauss_diagram([s[0] for s in all_segs], crossings)


def gauss_diagram(owners: Sequence[int], crossings: list) -> LinkDiagram:
    """The diagram of a generic projection from :func:`_pair_walk`'s
    crossing records, with ``owners[i]`` the loop of segment i."""
    # the segments run loop by loop in walk order, so a loop's passes sort
    # along it by (segment, parameter)
    table = []
    passes: list[list] = [[] for _ in range(owners[-1] + 1)]
    for k, (i, j, t_num, u_num, den, i_over, sign) in enumerate(sorted(crossings)):
        li, lj = owners[i], owners[j]
        table.append((li, lj, sign) if i_over else (lj, li, sign))
        passes[li].append((i, Fraction(t_num, den), k, i_over, sign))
        passes[lj].append((j, Fraction(u_num, den), k, not i_over, sign))
    gauss = tuple(tuple(p[2:] for p in sorted(ps)) for ps in passes)
    return LinkDiagram(tuple(table), gauss)


# ---------------------------------------------------------------------------
# shearing


def shear_points(points: Iterable[Point3], kx: int, ky: int = 0) -> tuple[Point3, ...]:
    """Apply (x, y, z) -> (x + kx*z, y + ky*z, z) to a point sequence.

    Both slopes are needed: a degeneracy lying in a plane y = const
    survives every pure x-shear, and vice versa.
    """
    out = []
    for p in points:
        nx = p[0] + kx * p[2]
        ny = p[1] + ky * p[2]
        if abs(nx) > COORD_LIMIT or abs(ny) > COORD_LIMIT:
            raise CoordinateOverflow("shear pushed a coordinate past the exact bound")
        out.append(Point3(nx, ny, p[2]))
    return tuple(out)
