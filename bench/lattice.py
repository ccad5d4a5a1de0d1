"""Exact lattice geometry for the benchmark, written without dilink.

Instance files are read and rewritten as plain JSON, and linking numbers
and crossing counts are recomputed here from scratch, so the benchmark's
output checks do not share code with the geometry kernel they measure.
Everything is integer arithmetic; a projection that is not generic raises
``Degenerate`` and callers try the next shear.
"""

from __future__ import annotations

import json

# Shears (kx, ky) for (x, y, z) -> (x + kx*z, y + ky*z, z), tried in order.
# (0, 0) is left out: the checks project in a direction the program did not.
SHEARS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (5, 3), (3, 5))


class Degenerate(Exception):
    """The projection is not generic enough to read crossings from."""


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _mapped(doc: dict, fn) -> dict:
    out = dict(doc)
    out["vertices"] = [fn(p) for p in doc["vertices"]]
    out["edges"] = [dict(e, bends=[fn(p) for p in e["bends"]]) for e in doc["edges"]]
    return out


def max_coord(doc: dict) -> int:
    pts = doc["vertices"] + [b for e in doc["edges"] for b in e["bends"]]
    return max(abs(c) for p in pts for c in p)


def translated(doc: dict, d: tuple[int, int, int]) -> dict:
    return _mapped(doc, lambda p: [p[0] + d[0], p[1] + d[1], p[2] + d[2]])


def sheared(doc: dict, kx: int, ky: int) -> dict:
    return _mapped(doc, lambda p: [p[0] + kx * p[2], p[1] + ky * p[2], p[2]])


def relabeled(doc: dict, perm: list[int]) -> dict:
    """Vertex i becomes perm[i]; edges and stored cycles follow."""
    vertices = [None] * len(perm)
    for i, p in enumerate(doc["vertices"]):
        vertices[perm[i]] = p
    edges = sorted(
        (dict(e, tail=perm[e["tail"]], head=perm[e["head"]]) for e in doc["edges"]),
        key=lambda e: (e["tail"], e["head"]),
    )
    cycles = [dict(c, vertices=[perm[v] for v in c["vertices"]]) for c in doc["cycles"]]
    return dict(doc, vertices=vertices, edges=edges, cycles=cycles)


def arc_points(doc: dict) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    vs = [tuple(p) for p in doc["vertices"]]
    return {
        (e["tail"], e["head"]): [vs[e["tail"]]] + [tuple(b) for b in e["bends"]] + [vs[e["head"]]]
        for e in doc["edges"]
    }


def realize(arcs: dict, vertices, edge_choices) -> list[tuple[int, int, int]]:
    """Closed polyline of a stored cycle (the last point is not repeated).

    Step i runs from vertices[i] to vertices[i+1], along the arc pointing
    that way when edge_choices[i] is set and against the reverse arc
    otherwise.
    """
    pts: list[tuple[int, int, int]] = []
    k = len(vertices)
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        seq = arcs[(a, b)] if edge_choices[i] else arcs[(b, a)][::-1]
        pts.extend(seq[:-1])
    return pts


def _segments(points, kx: int, ky: int) -> list[tuple]:
    q = [(x + kx * z, y + ky * z, z) for x, y, z in points]
    out = []
    for i in range(len(q)):
        a, b = q[i], q[(i + 1) % len(q)]
        out.append((a, b, min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])))
    return out


def _orient(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _within(s, p) -> bool:
    return s[2] <= p[0] <= s[3] and s[4] <= p[1] <= s[5]


def _crossing(s, t) -> int:
    """Signed crossing of two projected segments: 0 if they miss.

    The sign is +1 for a right-handed crossing: turning the over strand
    counterclockwise by less than a half turn aligns it with the under one.
    """
    if s[3] < t[2] or t[3] < s[2] or s[5] < t[4] or t[5] < s[4]:
        return 0
    a0, a1 = s[0], s[1]
    b0, b1 = t[0], t[1]
    o1, o2 = _orient(a0, a1, b0), _orient(a0, a1, b1)
    o3, o4 = _orient(b0, b1, a0), _orient(b0, b1, a1)
    if not (o1 and o2 and o3 and o4):
        # an endpoint on the other segment's line: a contact if it lies
        # within that segment, otherwise the two cannot cross
        if ((not o1 and _within(s, b0)) or (not o2 and _within(s, b1))
                or (not o3 and _within(t, a0)) or (not o4 and _within(t, a1))):
            raise Degenerate("projected segments touch or overlap")
        return 0
    if (o1 > 0) == (o2 > 0) or (o3 > 0) == (o4 > 0):
        return 0
    # heights at the crossing: t on s is o3/(o3-o4), u on t is o1/(o1-o2)
    da, db = o3 - o4, o1 - o2
    za = a0[2] * da + o3 * (a1[2] - a0[2])
    zb = b0[2] * db + o1 * (b1[2] - b0[2])
    gap = _sign(za * db - zb * da) * _sign(da * db)
    if gap == 0:
        raise Degenerate("curves meet in space")
    turn = _sign(_orient((0, 0), (a1[0] - a0[0], a1[1] - a0[1]), (b1[0] - b0[0], b1[1] - b0[1])))
    return turn if gap > 0 else -turn


def _linking(a, b, kx: int, ky: int) -> int:
    sa, sb = _segments(a, kx, ky), _segments(b, kx, ky)
    total = sum(_crossing(s, t) for s in sa for t in sb)
    if total % 2:
        raise Degenerate("odd signed crossing sum")
    return total // 2


def linking_number(a, b) -> int:
    """Linking number of two disjoint closed polylines, read off the first
    generic sheared projection in ``SHEARS``."""
    for kx, ky in SHEARS:
        try:
            return _linking(a, b, kx, ky)
        except Degenerate:
            continue
    raise Degenerate("no generic shear found")


def crossing_count(points, kx: int = 0, ky: int = 0) -> int:
    """Self-crossings of one closed polyline under the given shear."""
    segs = _segments(points, kx, ky)
    n = len(segs)
    count = 0
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            count += _crossing(segs[i], segs[j]) != 0
    return count
