"""Reference geometry kernel: the rational-arithmetic predicates that
``dilink.geom`` replaced with integer ones, kept as an independent route.

The projected relation is decided by four orientation signs, every
segment pair is tested (no box prefilter), a meeting point is a tuple of
Fractions, proper crossings are keyed by their Fraction point, and the
vertex checks loop over every vertex and segment.  ``validate_reference``
and ``diagram_reference`` must agree exactly with
``validate_general_position`` and ``project_to_diagram``.

``arc_pair_crossings_reference`` is ``geom.arc_pair_crossings`` with
every segment pair whose boxes meet decided by the predicates here.  It
must give the same total, or raise the same exception with the same
message.  ``pair_walk_reference`` is ``geom._pair_walk`` on segments that
each have their own owner and no permitted contact.

Nothing here comes from ``dilink.geom`` but its data types and the two
functions that list a geometry's segments: a crossing's over/under and
sign are read off its heights as Fractions and the module's convention
(``crossing_reference``), not off the kernel's integer rule.

``shear`` tilts a whole embedding with ``geom.shear_points``, for tests
that re-measure an embedding under a shear.
"""

from fractions import Fraction

from dilink.errors import CoordinateOverflow, DegenerateProjection, DisjointnessViolated
from dilink.geom import (
    COORD_LIMIT,
    LinkDiagram,
    Point3,
    PolyLine,
    SpatialEmbedding,
    ValidationReport,
    Violation,
    _closed_segments,
    _gather_segments,
    shear_points,
)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _between(lo, hi, v):
    return min(lo, hi) <= v <= max(lo, hi)


def orient2(p, q, r):
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _on_seg2(p, q, r):
    return _between(p[0], q[0], r[0]) and _between(p[1], q[1], r[1])


def seg2_relation_reference(p, q, r, s):
    """The projected relation of closed segments pq and rs, from four
    orientation signs; the same return values as ``geom.seg2_relation``."""
    if p[0] == q[0] and p[1] == q[1]:
        return ("touch", (p[0], p[1])) if orient2(r, s, p) == 0 and _on_seg2(r, s, p) else ("none", None)
    if r[0] == s[0] and r[1] == s[1]:
        return ("touch", (r[0], r[1])) if orient2(p, q, r) == 0 and _on_seg2(p, q, r) else ("none", None)
    o1 = orient2(p, q, r)
    o2 = orient2(p, q, s)
    o3 = orient2(r, s, p)
    o4 = orient2(r, s, q)
    if o1 == 0 and o2 == 0:
        touches = []
        for pt, a, b in ((r, p, q), (s, p, q), (p, r, s), (q, r, s)):
            if _on_seg2(a, b, pt) and (pt[0], pt[1]) not in touches:
                touches.append((pt[0], pt[1]))
        if not touches:
            return ("none", None)
        return ("touch", touches[0]) if len(touches) == 1 else ("overlap", None)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        d1x, d1y = q[0] - p[0], q[1] - p[1]
        d2x, d2y = s[0] - r[0], s[1] - r[1]
        wx, wy = r[0] - p[0], r[1] - p[1]
        den = d1x * d2y - d1y * d2x
        t_num = wx * d2y - wy * d2x
        u_num = wx * d1y - wy * d1x
        if den < 0:
            den, t_num, u_num = -den, -t_num, -u_num
        return ("proper", (t_num, u_num, den))
    for o, pt, a, b in ((o1, r, p, q), (o2, s, p, q), (o3, p, r, s), (o4, q, r, s)):
        if o == 0 and _on_seg2(a, b, pt):
            return ("touch", (pt[0], pt[1]))
    return ("none", None)


def seg3_relation_reference(p, q, r, s):
    """("none", None), ("point", (Fraction, Fraction, Fraction)) or
    ("overlap", None) for closed 3D segments pq and rs."""
    d1 = _sub(q, p)
    d2 = _sub(s, r)
    w = _sub(r, p)
    c = _cross3(d1, d2)
    if c == (0, 0, 0):
        if _cross3(d1, w) != (0, 0, 0):
            return ("none", None)
        length = _dot3(d1, d1)
        t_r = _dot3(d1, w)
        t_s = _dot3(d1, _sub(s, p))
        lo = max(0, min(t_r, t_s))
        hi = min(length, max(t_r, t_s))
        if lo > hi:
            return ("none", None)
        if lo < hi:
            return ("overlap", None)
        t = Fraction(lo, length)
        return ("point", tuple(p[k] + t * d1[k] for k in range(3)))
    if _dot3(w, c) != 0:
        return ("none", None)
    den = _dot3(c, c)
    t_num = _dot3(_cross3(w, d2), c)
    u_num = _dot3(_cross3(w, d1), c)
    if not (0 <= t_num <= den and 0 <= u_num <= den):
        return ("none", None)
    t = Fraction(t_num, den)
    return ("point", tuple(p[k] + t * d1[k] for k in range(3)))


def crossing_reference(pa, qa, pb, qb, t_num, u_num, den):
    """Whether segment pa-qa passes over pb-qb where their projections
    cross, at t = t_num/den along the first and u = u_num/den along the
    second, and the crossing's sign: +1 when the under-strand's direction
    is counterclockwise from the over-strand's in projection."""
    za = Fraction(pa[2] * den + t_num * (qa[2] - pa[2]), den)
    zb = Fraction(pb[2] * den + u_num * (qb[2] - pb[2]), den)
    if za == zb:
        raise DisjointnessViolated("segments meet in space where their projections cross")
    over, under = ((pa, qa), (pb, qb)) if za > zb else ((pb, qb), (pa, qa))
    turn = orient2((0, 0), _sub(over[1], over[0]), _sub(under[1], under[0]))
    return za > zb, turn


def arc_contacts(arcs):
    """The contact rule of ``validate_general_position``: segments of arcs
    may touch at the joint of consecutive segments of one arc, or at an
    end vertex of two arcs where both segments end."""
    ends = {k: (a.points[0], a.points[-1]) for k, a in arcs.items()}

    def allowed(sa, sb):
        (arc_a, ia, pa, qa), (arc_b, ib, pb, qb) = sa, sb
        if arc_a == arc_b:
            return (qa if ia < ib else pa,) if abs(ia - ib) == 1 else ()
        return tuple(
            pt for pt in (pa, qa)
            if pt in (pb, qb) and pt in ends[arc_a] and pt in ends[arc_b]
        )

    return allowed


def loop_corners(loops):
    """The contact rule of ``project_to_diagram``: segments of closed loops
    may touch only at the corner two consecutive segments of one loop
    share, the last and first included."""

    def allowed(sa, sb):
        if sa[0] != sb[0]:
            return ()
        n = len(loops[sa[0]])
        if (sa[1] + 1) % n == sb[1]:
            return (sa[3],)
        if (sb[1] + 1) % n == sa[1]:
            return (sb[3],)
        return ()

    return allowed


def _all_pairs(segs):
    return [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))]


def meetings_3d_reference(segs, allowed):
    for i, j in _all_pairs(segs):
        sa, sb = segs[i], segs[j]
        kind, pt = seg3_relation_reference(sa[2], sa[3], sb[2], sb[3])
        if kind == "none" or (kind == "point" and pt in allowed(sa, sb)):
            continue
        yield sa, sb, pt


def contacts_2d_reference(segs, allowed):
    """The projection events of ``geom._pair_walk``, with a proper
    crossing's point as a tuple of Fractions."""
    for i, j in _all_pairs(segs):
        sa, sb = segs[i], segs[j]
        kind, data = seg2_relation_reference(sa[2], sa[3], sb[2], sb[3])
        if kind == "none":
            continue
        if kind == "proper":
            t = Fraction(data[0], data[2])
            pa, qa = sa[2], sa[3]
            yield kind, sa, sb, data, (pa[0] + t * (qa[0] - pa[0]), pa[1] + t * (qa[1] - pa[1]))
        elif kind == "overlap" or all(data != (a[0], a[1]) for a in allowed(sa, sb)):
            yield kind, sa, sb, data, None


def validate_reference(emb):
    arcs = emb.arcs
    segs = _gather_segments(arcs)
    allowed = arc_contacts(arcs)
    out = []
    for (arc, i, p, q) in segs:
        if p.x == q.x and p.y == q.y:
            out.append(Violation("vertical-segment", (arc, i), f"{p}->{q}"))
    for sa, sb, pt in meetings_3d_reference(segs, allowed):
        out.append(Violation(
            "arc-intersection-3d",
            (sa[0], sa[1], sb[0], sb[1]),
            "collinear overlap" if pt is None else f"meet at ({pt[0]},{pt[1]},{pt[2]})",
        ))
    for v, pos in sorted(emb.vertices.items()):
        for (arc, i, p, q) in segs:
            if v in arc or not all(_between(p[k], q[k], pos[k]) for k in range(3)):
                continue
            if _cross3(_sub(q, p), _sub(pos, p)) == (0, 0, 0):
                out.append(Violation("vertex-on-arc-3d", (v, arc, i), f"vertex {v}"))
    cross_points = {}
    for kind, sa, sb, data, pt in contacts_2d_reference(segs, allowed):
        where = (sa[0], sa[1], sb[0], sb[1])
        if kind == "overlap":
            out.append(Violation("projection-overlap", where, "collinear in projection"))
        elif kind == "touch":
            out.append(Violation("projection-tangency", where, f"touch at {data}"))
        else:
            cross_points.setdefault(pt, []).append(where)
    for pt, hits in cross_points.items():
        if len(hits) > 1:
            out.append(Violation("triple-point", tuple(hits[0] + hits[1]), f"at {pt}"))
    for v, pos in sorted(emb.vertices.items()):
        for (arc, i, p, q) in segs:
            if v in arc or not all(_between(p[k], q[k], pos[k]) for k in range(2)):
                continue
            if orient2(p, q, pos) == 0:
                out.append(Violation("vertex-on-strand", (v, arc, i), f"vertex {v} in projection"))
    return ValidationReport(tuple(out))


def diagram_reference(loop_points):
    loops = tuple(tuple(lp) for lp in loop_points)
    all_segs = _closed_segments(loops)
    for (li, i, p, q) in all_segs:
        if p.x == q.x and p.y == q.y:
            raise DegenerateProjection(
                f"vertical segment on loop {li}", (Violation("vertical-segment", (li, i)),)
            )
    rule = loop_corners(loops)
    for sa, sb, _ in meetings_3d_reference(all_segs, rule):
        raise DisjointnessViolated(
            f"loops {sa[0]} and {sb[0]} intersect in space (segments {sa[1]},{sb[1]})"
        )
    crossings, passes = [], [[] for _ in loops]
    seen = set()
    for kind, sa, sb, data, pt in contacts_2d_reference(all_segs, rule):
        where = (sa[0], sa[1], sb[0], sb[1])
        if kind != "proper":
            raise DegenerateProjection(
                f"non-transversal contact between loop {sa[0]} seg {sa[1]} "
                f"and loop {sb[0]} seg {sb[1]}",
                (Violation("projection-" + kind, where),),
            )
        t_num, u_num, den = data
        a_over, sign = crossing_reference(sa[2], sa[3], sb[2], sb[3], t_num, u_num, den)
        if pt in seen:
            raise DegenerateProjection(
                f"triple point at ({pt[0]},{pt[1]})", (Violation("triple-point", where),)
            )
        seen.add(pt)
        # pairs come in segment-pair order, which numbers the crossings
        k = len(crossings)
        crossings.append((sa[0], sb[0], sign) if a_over else (sb[0], sa[0], sign))
        passes[sa[0]].append(((sa[1], Fraction(t_num, den)), (k, a_over, sign)))
        passes[sb[0]].append(((sb[1], Fraction(u_num, den)), (k, not a_over, sign)))
    gauss = tuple(tuple(entry for _, entry in sorted(ps)) for ps in passes)
    return LinkDiagram(tuple(crossings), gauss)


def arc_pair_crossings_reference(e, points_e, f, points_f):
    """Signed crossing count of the projections of arcs e and f, given as
    point sequences, each segment pair decided by the general predicates."""
    def boxed(points):
        return [
            (p, q, min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))
            for p, q in zip(points, points[1:])
        ]

    total = 0
    for pa, qa, ax0, ay0, ax1, ay1 in boxed(points_e):
        for pb, qb, bx0, by0, bx1, by1 in boxed(points_f):
            if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
                continue
            kind, data = seg2_relation_reference(pa, qa, pb, qb)
            if kind == "proper":
                total += crossing_reference(pa, qa, pb, qb, *data)[1]
            elif kind != "none":
                if seg3_relation_reference(pa, qa, pb, qb)[0] != "none":
                    raise DisjointnessViolated(f"arcs {e} and {f} meet in space")
                raise DegenerateProjection(
                    f"arcs {e} and {f} {kind} in projection",
                    (Violation("projection-" + kind, (e, f)),),
                )
    return total


def pair_walk_reference(segs, points):
    """``geom._pair_walk(segs, points, {}, crossings)`` for segments that
    are each their own owner, so that no contact is permitted, from every
    pair: the events sorted by (i, j, kind), the hits sorted, and the
    crossings sorted, as ``(i, j, t_num, u_num, den, i_over, sign)``."""
    boxes = [(*sorted((p[0], q[0])), *sorted((p[1], q[1]))) for _, _, p, q in segs]
    events, crossings = [], []
    for i, j in _all_pairs(segs):
        (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) = boxes[i], boxes[j]
        if ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1:
            continue  # apart in projection, so apart in space
        pa, qa, pb, qb = segs[i][2], segs[i][3], segs[j][2], segs[j][3]
        kind, data = seg2_relation_reference(pa, qa, pb, qb)
        if kind == "none":
            continue
        kind3, pt = seg3_relation_reference(pa, qa, pb, qb)
        if kind3 != "none":
            events.append((i, j, "meet", pt))
        if kind != "proper":
            events.append((i, j, kind, data))
        elif kind3 == "none":
            crossings.append((i, j, *data, *crossing_reference(pa, qa, pb, qb, *data)))
    hits = [
        (k, i)
        for k, (_, _, (x, y, _), _) in enumerate(points)
        for i, (x0, x1, y0, y1) in enumerate(boxes)
        if x0 <= x <= x1 and y0 <= y <= y1
    ]
    return sorted(events, key=lambda e: e[:3]), hits, sorted(crossings)


def shear(emb: SpatialEmbedding, kx: int, ky: int = 0) -> SpatialEmbedding:
    """Shear a whole embedding.  Height (z) is untouched, so every over/under
    relation, and hence every invariant, is preserved."""
    new_vertices = {
        v: Point3(p.x + kx * p.z, p.y + ky * p.z, p.z) for v, p in emb.vertices.items()
    }
    new_arcs = {key: PolyLine(shear_points(arc.points, kx, ky)) for key, arc in emb.arcs.items()}
    new_box = 0
    for p in new_vertices.values():
        new_box = max(new_box, abs(p.x), abs(p.y), abs(p.z))
    for a in new_arcs.values():
        for p in a.points:
            new_box = max(new_box, abs(p.x), abs(p.y), abs(p.z))
    if new_box > COORD_LIMIT:
        raise CoordinateOverflow("shear pushed a coordinate past the exact bound")
    return SpatialEmbedding(vertices=new_vertices, arcs=new_arcs, box=max(new_box, emb.box))
