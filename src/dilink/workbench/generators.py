"""Builders for embedded instances the rest of the package operates on.

Every generator returns a :class:`GeneratedInstance` whose embedding has
already passed :func:`dilink.geom.validate_general_position`, so downstream
code never needs to re-check genericity before projecting.  Structured
builders (stacked ring/key lattices, braid closures) are deterministic;
the random ones consume a 64-bit seed that is split per purpose with
labeled hashing so adding a new draw never shifts an existing one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from dilink.digraph import (
    DiCycle,
    check_closure,
    closure_for_delta,
    direction_change_vertices,
    directionality,
)
from dilink.errors import GenerationFailed
from dilink.geom import (
    Point3,
    PolyLine,
    SpatialEmbedding,
    validate_general_position,
)
from dilink.invariants import LinkTable

__all__ = [
    "GeneratedInstance",
    "big_z_instance",
    "bipar_instance",
    "braid_closure",
    "braid_instance",
    "coiled_braid_pair",
    "grid_link",
    "lemma1_dk6m",
    "prop1_instance",
    "random_complete",
    "ring_wrap_instance",
    "split_seed",
    "theorem1_instance",
    "torus_style",
    "with_chain",
]

MAX_RESAMPLES = 64

# largest s (rings, and as many keys, each threading every ring) that
# theorem1_instance builds; s = 434 takes about 10 s and 250 MiB on a
# 2-vCPU machine, and time and memory grow about quadratically in s
MAX_THEOREM1_SIZE = 512


def split_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit stream seed for one labeled purpose."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    digest = hashlib.sha256(seed.to_bytes(8, "big") + label.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


@dataclass
class GeneratedInstance:
    """A validated embedding plus the role-tagged cycles built into it."""

    embedding: SpatialEmbedding
    cycles: dict[str, tuple[DiCycle, ...]]
    seed: Optional[int]
    resamples: int
    meta: dict = field(default_factory=dict)

    def role(self, name: str) -> tuple[DiCycle, ...]:
        return self.cycles[name]


def _validated_or_raise(emb: SpatialEmbedding, what: str) -> None:
    report = validate_general_position(emb)
    if not report.ok:
        head = "; ".join(
            f"{v.kind}{v.where}" for v in report.violations[:4]
        )
        raise GenerationFailed(
            f"{what}: construction is degenerate ({len(report.violations)} "
            f"violations: {head})"
        )


# ---------------------------------------------------------------------------
# random complete symmetric digraphs


def random_complete(p: int, seed: int, box: int = 2**20) -> GeneratedInstance:
    """Random generic embedding of the doubled complete digraph on p vertices.

    Every ordered pair gets its own arc with one random interior bend, so
    antiparallel arcs are disjoint curves.  Resamples the whole picture on
    any degeneracy, up to MAX_RESAMPLES times.
    """
    if p < 3:
        raise ValueError("need at least 3 vertices")
    if box < 16:
        raise ValueError("box too small to sample distinct geometry")
    rng = random.Random(split_seed(seed, f"random_complete:{p}:{box}"))

    def rand_point() -> Point3:
        return Point3(
            rng.randrange(-box, box + 1),
            rng.randrange(-box, box + 1),
            rng.randrange(-box, box + 1),
        )

    last_report = None
    for attempt in range(MAX_RESAMPLES + 1):
        pts: list[Point3] = []
        seen: set[Point3] = set()
        while len(pts) < p:
            cand = rand_point()
            if cand not in seen:
                seen.add(cand)
                pts.append(cand)
        vertices = dict(enumerate(pts))
        arcs: dict[tuple[int, int], PolyLine] = {}
        off = max(4, box // 4)
        for t in range(p):
            for h in range(p):
                if t == h:
                    continue
                a, b = pts[t], pts[h]
                while True:
                    bend = Point3(
                        (a.x + b.x) // 2 + rng.randrange(-off, off + 1),
                        (a.y + b.y) // 2 + rng.randrange(-off, off + 1),
                        (a.z + b.z) // 2 + rng.randrange(-off, off + 1),
                    )
                    if bend != a and bend != b and bend not in seen:
                        break
                arcs[(t, h)] = PolyLine([a, bend, b])
        emb = SpatialEmbedding(vertices, arcs, box=2 * box)
        report = validate_general_position(emb)
        if report.ok:
            return GeneratedInstance(
                embedding=emb,
                cycles={},
                seed=seed,
                resamples=attempt,
                meta={"kind": "random_complete", "p": p, "box": box},
            )
        last_report = report
    raise GenerationFailed(
        f"random_complete(p={p}): still degenerate after {MAX_RESAMPLES} "
        f"resamples; last violation kinds {last_report.kinds()[:3]}"
    )


def lemma1_dk6m(m: int, seed: int, box: int = 2**20) -> GeneratedInstance:
    """Random embedding sized for the odd-pair search: 6m vertices."""
    if m < 1:
        raise ValueError("m must be positive")
    inst = random_complete(6 * m, seed, box=box)
    inst.meta = {"kind": "lemma1_dk6m", "m": m, "box": box}
    return inst


# ---------------------------------------------------------------------------
# braid closures (tight integer diagrams for small knots and links)


def _drop_collinear_closed(points: list[Point3]) -> tuple[Point3, ...]:
    """Remove duplicate and straight-through points of a closed polygon."""
    pts = [points[0]]
    for q in points[1:]:
        if q != pts[-1]:
            pts.append(q)
    if len(pts) > 1 and pts[-1] == pts[0]:
        pts.pop()
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            a = pts[i - 1]
            b = pts[i]
            c = pts[(i + 1) % len(pts)]
            ab = (b.x - a.x, b.y - a.y, b.z - a.z)
            bc = (c.x - b.x, c.y - b.y, c.z - b.z)
            cross = (
                ab[1] * bc[2] - ab[2] * bc[1],
                ab[2] * bc[0] - ab[0] * bc[2],
                ab[0] * bc[1] - ab[1] * bc[0],
            )
            dot = ab[0] * bc[0] + ab[1] * bc[1] + ab[2] * bc[2]
            if cross == (0, 0, 0) and dot > 0:
                pts.pop(i)
                changed = True
                break
    return tuple(pts)


def braid_closure(word: Sequence[int], strands: int) -> list[tuple[Point3, ...]]:
    """Closed integer loops realizing a braid word's standard closure.

    Strands run along +y at x = 0, 4, 8, ...; the letter k (1-based, signed)
    exchanges strands k-1 and k inside its own 4-tall window with exactly one
    projected crossing, the sign deciding which mover is lifted.  Closures
    are nested flat lanes on the left, so they add no crossings at all.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ValueError(f"letter {g} invalid for {strands} strands")
    wires: list[list[Point3]] = [[Point3(4 * s, 0, 0)] for s in range(strands)]
    at_slot = list(range(strands))
    for li, g in enumerate(word):
        p = abs(g)
        sgn = 1 if g > 0 else -1
        y0 = 4 * li
        wa, wb = at_slot[p - 1], at_slot[p]
        wires[wa].append(Point3(4 * p - 2, y0 + 1, 2 * sgn))
        wires[wa].append(Point3(4 * p, y0 + 4, 0))
        wires[wb].append(Point3(4 * p - 2, y0 + 3, -2 * sgn))
        wires[wb].append(Point3(4 * (p - 1), y0 + 4, 0))
        at_slot[p - 1], at_slot[p] = wb, wa
    ymax = 4 * len(word)
    wire_end = [0] * strands
    for s in range(strands):
        w = at_slot[s]
        wire_end[w] = s
        if wires[w][-1].y != ymax:
            wires[w].append(Point3(4 * s, ymax, 0))

    loops: list[tuple[Point3, ...]] = []
    visited: set[int] = set()
    for start in range(strands):
        if start in visited:
            continue
        pts: list[Point3] = []
        slot = start
        while slot not in visited:
            visited.add(slot)
            pts.extend(wires[slot])
            e = wire_end[slot]
            pts.append(Point3(4 * e, ymax + 2 + 2 * e, 0))
            pts.append(Point3(-4 - 4 * e, ymax + 2 + 2 * e, 0))
            pts.append(Point3(-4 - 4 * e, -2 - 2 * e, 0))
            pts.append(Point3(4 * e, -2 - 2 * e, 0))
            slot = e
        loops.append(_drop_collinear_closed(pts))
    return loops


def _loops_to_instance(
    loops: list[tuple[Point3, ...]], role: str, meta: dict
) -> GeneratedInstance:
    """Promote closed point loops to an embedding with 3 vertices per loop."""
    vertices: dict[int, Point3] = {}
    arcs: dict[tuple[int, int], PolyLine] = {}
    cycles: list[DiCycle] = []
    base = 0
    for pts in loops:
        n = len(pts)
        if n < 3:
            raise GenerationFailed("loop too short to promote to a cycle")
        idxs = (0, n // 3, (2 * n) // 3)
        ids = (base, base + 1, base + 2)
        for vid, i in zip(ids, idxs):
            vertices[vid] = pts[i]
        for k in range(3):
            i0, i1 = idxs[k], idxs[(k + 1) % 3]
            if k < 2:
                piece = pts[i0 : i1 + 1]
            else:
                piece = pts[i0:] + pts[: idxs[0] + 1]
            arcs[(ids[k], ids[(k + 1) % 3])] = PolyLine(piece)
        cycles.append(DiCycle(ids, (True, True, True)))
        base += 3
    emb = SpatialEmbedding(vertices, arcs)
    _validated_or_raise(emb, meta.get("kind", role))
    return GeneratedInstance(
        embedding=emb,
        cycles={role: tuple(cycles)},
        seed=None,
        resamples=0,
        meta=meta,
    )


def braid_instance(word: Sequence[int], strands: int) -> GeneratedInstance:
    """Embedding of an arbitrary braid closure, one cycle per component."""
    loops = braid_closure(word, strands)
    return _loops_to_instance(
        loops,
        "components",
        {"kind": "braid", "word": tuple(word), "strands": strands},
    )


def torus_style(p: int, q: int) -> GeneratedInstance:
    """Deterministic embedding of a (p,q) torus-braid closure, p in {2,3}."""
    if p == 2:
        word = [1] * q
    elif p == 3:
        word = [1, 2] * q
    else:
        raise ValueError("only 2- and 3-strand families are built here")
    if q < 1:
        raise ValueError("q must be positive")
    loops = braid_closure(word, p)
    return _loops_to_instance(
        loops, "components", {"kind": "torus_style", "p": p, "q": q}
    )


# ---------------------------------------------------------------------------
# stacked ring/key lattices
#
# Rings are nested axis-aligned squares in parallel planes z = i*H; key k is
# a tall tilted quadrilateral whose inner upright climbs through the holes of
# the contiguous ring interval it is built to link and whose outer upright
# returns outside every square.  All constants below keep distinct structures
# on distinct coordinate lines so the projection stays generic.


@dataclass(frozen=True)
class _Frame:
    rings: int
    keys: int
    spacing: int          # vertical gap between ring planes
    extents: tuple[int, ...]
    planes: tuple[int, ...]
    lane0: int            # first free x-lane for chain arcs
    depth0: int           # z level just below every built corner
    wrap_reserve: int

    @property
    def a_max(self) -> int:
        return self.extents[-1]


def _frame(rings: int, keys: int, wrap_reserve: int = 0) -> _Frame:
    spacing = 2 * keys + 8
    e0 = 8 * (keys + wrap_reserve) + 16
    extents = tuple(e0 + 4 * i for i in range(rings))
    planes = tuple(spacing * i for i in range(rings))
    lane0 = extents[-1] + 2 * keys + 12
    depth0 = -(keys + 10)
    return _Frame(rings, keys, spacing, extents, planes, lane0, depth0, wrap_reserve)


# a ring runs three sides with its traversal and one against, so it is
# 2-directional
_RING_EC = (True, True, True, False)


def _ring_geometry(fr: _Frame, i: int, base: int):
    a, z = fr.extents[i], fr.planes[i]
    ids = (base, base + 1, base + 2, base + 3)
    pos = (
        Point3(a, a, z),
        Point3(-a, a, z),
        Point3(-a, -a, z),
        Point3(a, -a, z),
    )
    arcs = {}
    for k in range(4):
        t, h = ids[k], ids[(k + 1) % 4]
        pts = [pos[k], pos[(k + 1) % 4]]
        if _RING_EC[k]:
            arcs[(t, h)] = PolyLine(pts)
        else:
            arcs[(h, t)] = PolyLine(list(reversed(pts)))
    return DiCycle(ids, _RING_EC), dict(zip(ids, pos)), arcs


def _key_geometry(fr: _Frame, k: int, base: int, lo: int, hi: int):
    y = 8 * k + 5
    x_in = 2 * k + 1
    x_out = fr.a_max + 3 + 2 * k
    zb = fr.planes[lo] - 3 - k
    zt = fr.planes[hi] + 3 + k
    ids = (base, base + 1, base + 2, base + 3)     # corners a, d, c, b
    pos = (
        Point3(x_in, y, zb),
        Point3(x_in + 1, y + 1, zt),
        Point3(x_out, y + 1, zt),
        Point3(x_out + 1, y, zb),
    )
    ec = (True, True, True, False)
    arcs = {
        (ids[0], ids[1]): PolyLine([pos[0], pos[1]]),
        (ids[1], ids[2]): PolyLine([pos[1], pos[2]]),
        (ids[2], ids[3]): PolyLine([pos[2], pos[3]]),
        (ids[0], ids[3]): PolyLine([pos[0], pos[3]]),
    }
    return DiCycle(ids, ec), dict(zip(ids, pos)), arcs


def grid_link(
    rings: int,
    keys: Sequence[tuple[int, int]],
    wrap_reserve: int = 0,
) -> GeneratedInstance:
    """Stacked rings plus keys threading contiguous ring intervals.

    ``keys[k] = (lo, hi)`` makes key k link exactly rings lo..hi, each with
    absolute linking number 1; every other pair of built cycles is unlinked.
    The returned table of pairwise linking numbers is recomputed from the
    embedding, not assumed.
    """
    if rings < 1:
        raise ValueError("need at least one ring")
    keys = [(int(lo), int(hi)) for lo, hi in keys]
    for lo, hi in keys:
        if not (0 <= lo <= hi < rings):
            raise ValueError(f"key interval ({lo},{hi}) out of range")

    fr = _frame(rings, len(keys), wrap_reserve)
    vertices: dict[int, Point3] = {}
    arcs: dict[tuple[int, int], PolyLine] = {}
    ring_cycles: list[DiCycle] = []
    key_cycles: list[DiCycle] = []
    for i in range(rings):
        cyc, vs, ars = _ring_geometry(fr, i, 4 * i)
        ring_cycles.append(cyc)
        vertices.update(vs)
        arcs.update(ars)
    kbase = 4 * rings
    for k, (lo, hi) in enumerate(keys):
        cyc, vs, ars = _key_geometry(fr, k, kbase + 4 * k, lo, hi)
        key_cycles.append(cyc)
        vertices.update(vs)
        arcs.update(ars)

    emb = SpatialEmbedding(vertices, arcs)
    _validated_or_raise(emb, "grid_link")

    inst = GeneratedInstance(
        embedding=emb,
        cycles={"rings": tuple(ring_cycles), "keys": tuple(key_cycles)},
        seed=None,
        resamples=0,
        meta={
            "kind": "grid_link",
            "threading": tuple(keys),
            "wrap_reserve": wrap_reserve,
            "next_track": 0,
            "chains": [],
        },
    )
    inst.meta["lk_table"] = _verify_grid_pattern(inst)
    return inst


def _verify_grid_pattern(inst: GeneratedInstance) -> dict:
    """Recompute all pairwise linking numbers and check them against intent."""
    rings = inst.cycles["rings"]
    cycles = rings + inst.cycles["keys"]
    links = LinkTable(inst.embedding)
    table = {
        (i, j): links.lk(cycles[i], cycles[j]) for i, j in combinations(range(len(cycles)), 2)
    }
    nr = len(rings)
    intended = {}
    for k, (lo, hi) in enumerate(inst.meta["threading"]):
        for i in range(nr):
            intended[(i, nr + k)] = 1 if lo <= i <= hi else 0
    for (i, j), lk in table.items():
        want = intended.get((i, j), 0)
        if abs(lk) != want:
            raise GenerationFailed(
                f"grid_link: pair {(i, j)} has linking number {lk}, "
                f"expected magnitude {want}"
            )
    return table


# chain arcs ----------------------------------------------------------------


def _corner_port(
    kind: str,
    pos: Point3,
    o: int,
    lane_x: int,
    depth: int,
    aux: dict,
) -> list[Point3]:
    """Points from a junction corner out to its deep lane anchor."""
    if kind == "ring_u":
        a, z = aux["a"], pos.z
        return [
            pos,
            Point3(a + o + 1, a + o, z - o),
            Point3(lane_x, a + o, depth),
        ]
    if kind == "ring_w":
        a, z = aux["a"], pos.z
        return [
            pos,
            Point3(a + o + 1, -a - o, z - o),
            Point3(lane_x, -a - o, depth),
        ]
    if kind == "key_u":
        return [
            pos,
            Point3(pos.x + 1, pos.y - o, pos.z - o),
            Point3(lane_x - 1, pos.y - o, pos.z - o),
            Point3(lane_x, pos.y - o, depth),
        ]
    if kind == "key_w":
        # +y side: the -y side belongs to the key_u approach bands, whose
        # (y, z) diagonal this corner's step-off would otherwise pierce
        oo = o + 1
        return [
            pos,
            Point3(pos.x + 1, pos.y + oo, pos.z - oo),
            Point3(lane_x, pos.y + oo, depth),
        ]
    if kind == "extra":
        return [
            pos,
            Point3(pos.x + 2, pos.y + o, pos.z + o),
            Point3(lane_x, pos.y + o, depth),
        ]
    raise ValueError(f"unknown corner kind {kind}")


def _wrap_points(
    fr: _Frame,
    turns: int,
    lane_x: int,
    depth: int,
    head_port: list[Point3],
) -> list[Point3]:
    """Closure detour threading ring 0's hole ``turns`` times, then landing.

    ``head_port`` must be a key_u port list; its deep anchor is replaced by
    a below-plane approach so the landing adds no extra hole passes.
    """
    y0 = 8 * fr.keys + 9
    zdeep = depth - 1
    out_x = fr.a_max + 7
    pts = [
        Point3(lane_x, y0 - 1, depth),
        Point3(lane_x + 1, y0, 3),
        Point3(3, y0, 3),
    ]
    for j in range(turns):
        yj = y0 + 8 * j
        pts.append(Point3(4, yj + 2, zdeep))
        if j < turns - 1:
            pts.append(Point3(out_x, yj + 2, zdeep))
            pts.append(Point3(out_x + 1, yj + 4, 3))
            pts.append(Point3(3, yj + 8, 3))
        else:
            pts.append(Point3(lane_x + 3, yj + 2, zdeep))
    # land on the key_u band run: skip the head port's deep anchor
    step, band, _anchor = head_port[1], head_port[2], head_port[3]
    pts.append(Point3(band.x, band.y, band.z))
    pts.append(step)
    pts.append(head_port[0])
    return pts


class _ChainRouter:
    """Allocates disjoint lanes, depths, and per-corner offsets for arcs."""

    def __init__(self, fr: _Frame, next_track: int, port_use: dict[int, int]):
        self.fr = fr
        self.track = next_track
        self.port_use = dict(port_use)

    def _offset(self, vid: int) -> int:
        o = self.port_use.get(vid, 0) + 1
        if o > 3:
            raise GenerationFailed(f"corner {vid} hosts too many chain arcs")
        self.port_use[vid] = o
        return o

    def route(
        self,
        tail: int,
        head: int,
        corners: dict[int, tuple[str, Point3, dict]],
        wrap_turns: int = 0,
    ) -> PolyLine:
        lane = self.fr.lane0 + 4 * self.track
        depth = self.fr.depth0 - 2 * self.track
        self.track += 1
        tk, tp, taux = corners[tail]
        hk, hp, haux = corners[head]
        tport = _corner_port(tk, tp, self._offset(tail), lane, depth, taux)
        hport = _corner_port(hk, hp, self._offset(head), lane + 2, depth, haux)
        if wrap_turns:
            if hk != "key_u":
                raise GenerationFailed("wrapped closure must land on a key")
            mid = _wrap_points(self.fr, wrap_turns, lane, depth, hport)
            return PolyLine(tport + mid)
        return PolyLine(tport + list(reversed(hport)))


def _chain_corner_map(
    inst: GeneratedInstance, order: Sequence[tuple[str, int]]
) -> tuple[list[tuple[int, int]], dict[int, tuple[str, Point3, dict]]]:
    """The (u, w) junctions of the chained cycles, and the corner each
    junction vertex sits on."""
    corners: dict[int, tuple[str, Point3, dict]] = {}
    junctions: list[tuple[int, int]] = []
    for role, idx in order:
        cyc = inst.cycles[role + "s"][idx]
        d = directionality(cyc)
        if d != 2:
            raise GenerationFailed(f"{role} {idx} is {d}-directional, cannot chain")
        u, w = direction_change_vertices(cyc)
        junctions.append((u, w))
        kind = "ring" if role == "ring" else "key"
        aux = {"a": inst.embedding.vertices[u].x} if kind == "ring" else {}
        corners[u] = (kind + "_u", inst.embedding.vertices[u], aux)
        corners[w] = (kind + "_w", inst.embedding.vertices[w], aux)
    return junctions, corners


def with_chain(
    inst: GeneratedInstance,
    order: Sequence[tuple[str, int]],
    closure: str = "one_directional",
    extra_count: int = 0,
    wrap_turns: int = 0,
) -> GeneratedInstance:
    """Add the junction arcs a connector cycle over ``order`` will traverse.

    ``order`` lists ("ring"|"key", index) pairs; consecutive entries get a
    w-to-u joining arc, and the closure kind decides the arcs back from the
    last cycle to the first (via fresh low vertices when extra_count > 0).
    A positive ``wrap_turns`` reroutes the one-directional closure arc
    through ring 0's hole that many times.
    """
    if len(order) < 2:
        raise ValueError("a chain needs at least two cycles")
    check_closure(closure, extra_count)
    if wrap_turns and closure != "one_directional":
        raise ValueError("wrapped closures are one-directional only")
    if wrap_turns > inst.meta.get("wrap_reserve", 0):
        raise ValueError("grid was not built with enough wrap_reserve")

    junctions, corners = _chain_corner_map(inst, order)
    fr = _frame(
        len(inst.cycles["rings"]),
        len(inst.cycles["keys"]),
        inst.meta.get("wrap_reserve", 0),
    )
    vertices = dict(inst.embedding.vertices)
    arcs = dict(inst.embedding.arcs)

    extras: list[int] = []
    if extra_count:
        nbase = max(vertices) + 1
        used = inst.meta.get("extras_used", 0)
        for j in range(extra_count):
            e = used + j
            vid = nbase + j
            pos = Point3(
                -(fr.lane0 + 4 * e),
                -(11 + 4 * e),
                fr.depth0 - 40 - 4 * e,
            )
            vertices[vid] = pos
            corners[vid] = ("extra", pos, {})
            extras.append(vid)

    router = _ChainRouter(fr, inst.meta.get("next_track", 0), inst.meta.get("port_use", {}))
    new_arcs: list[tuple[int, int]] = []

    def add(tail: int, head: int, wrap: int = 0) -> None:
        if (tail, head) in arcs:
            raise GenerationFailed(f"chain arc ({tail},{head}) already present")
        arcs[(tail, head)] = router.route(tail, head, corners, wrap_turns=wrap)
        new_arcs.append((tail, head))

    for i in range(len(junctions) - 1):
        add(junctions[i][1], junctions[i + 1][0])
    u1, w_last = junctions[0][0], junctions[-1][1]
    if closure == "one_directional":
        add(w_last, u1, wrap=wrap_turns)
    elif closure == "two_directional":
        add(u1, w_last)
    else:
        add(extras[0], w_last)
        for j in range(extra_count - 1):
            a, b = extras[j], extras[j + 1]
            if j % 2 == 0:
                add(a, b)
            else:
                add(b, a)
        add(u1, extras[-1])

    emb = SpatialEmbedding(vertices, arcs)
    _validated_or_raise(emb, "with_chain")
    meta = dict(inst.meta)
    meta["next_track"] = router.track
    meta["port_use"] = router.port_use
    meta["extras_used"] = inst.meta.get("extras_used", 0) + extra_count
    meta["chains"] = list(inst.meta.get("chains", ())) + [
        {
            "order": tuple((r, i) for r, i in order),
            "closure": closure,
            "extras": tuple(extras),
            "wrap_turns": wrap_turns,
            "junctions": tuple((u, w) for u, w in junctions),
            "arcs": tuple(new_arcs),
        }
    ]
    return GeneratedInstance(
        embedding=emb,
        cycles=dict(inst.cycles),
        seed=inst.seed,
        resamples=inst.resamples,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# packaged instances for the construction engine


def big_z_instance(
    n: int,
    target_delta: int = 1,
    intervals: Optional[Sequence[tuple[int, int]]] = None,
    seed: Optional[int] = None,
) -> GeneratedInstance:
    """2n rings and 2n chained keys; key i always threads its own ring i.

    Without explicit intervals (and with a seed) each key threads a random
    contiguous ring interval containing its own index, so the parity matrix
    is a random contiguous-row matrix with an all-ones diagonal.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count = 2 * n
    if intervals is None:
        if seed is None:
            intervals = [(i, i) for i in range(count)]
        else:
            rng = random.Random(split_seed(seed, f"big_z_instance:{n}"))
            intervals = [
                (rng.randint(0, i), rng.randint(i, count - 1)) for i in range(count)
            ]
    intervals = [(lo, hi) for lo, hi in intervals]
    if len(intervals) != count or any(
        not lo <= i <= hi for i, (lo, hi) in enumerate(intervals)
    ):
        raise ValueError("need one interval per key, each containing its index")
    inst = grid_link(count, intervals)
    closure, extras = closure_for_delta(target_delta)
    inst = with_chain(
        inst, [("key", i) for i in range(count)], closure, extra_count=extras
    )
    inst.meta["target_delta"] = target_delta
    inst.meta["n"] = n
    return inst


def bipar_instance(
    m: int,
    n: int,
    lam: int,
    r: int,
    q: int,
    target_delta: int = 1,
) -> GeneratedInstance:
    """m+n rings; r keys thread all the first m, q keys thread the last n.

    Chain arcs are laid for the post-discard prefixes (m(2lam+1) of the
    first family, (m+n)(2lam+1) of the second), which is exactly what the
    uniform-sign discard phases keep on this geometry.
    """
    if min(m, n, lam, r, q) < 1:
        raise ValueError("all size parameters must be positive")
    intervals = [(0, m - 1)] * r + [(m, m + n - 1)] * q
    inst = grid_link(m + n, intervals)
    keep_j = m * (2 * lam + 1)
    keep_l = (m + n) * (2 * lam + 1)
    if keep_j > r or keep_l > q:
        raise ValueError("r or q too small for the requested m, n, lam")
    order = [("key", i) for i in range(keep_j)]
    order += [("key", r + j) for j in range(keep_l)]
    closure, extras = closure_for_delta(target_delta)
    inst = with_chain(inst, order, closure, extra_count=extras)
    inst.meta.update(
        {"m": m, "n": n, "lam": lam, "r": r, "q": q, "target_delta": target_delta}
    )
    return inst


def prop1_instance(
    n: int,
    rings: int,
    target_delta: int = 1,
) -> GeneratedInstance:
    """``rings`` disjoint keyrings of n keys each, chains laid per round.

    Round j will chain the j-th key of every ring; each such chain gets its
    own junction arcs and closure so the rounds stay disjoint.
    """
    if n < 1 or rings < 2:
        raise ValueError("need n >= 1 and at least two rings")
    intervals = []
    for j in range(n):
        intervals += [(i, i) for i in range(rings)]
    inst = grid_link(rings, intervals)
    closure, extras = closure_for_delta(target_delta)
    for j in range(n):
        order = [("key", j * rings + i) for i in range(rings)]
        inst = with_chain(inst, order, closure, extra_count=extras)
    inst.meta.update({"rounds": n, "target_delta": target_delta})
    return inst


def theorem1_instance(m: int, lam: int, n: int = 0, target_delta: int = 1) -> GeneratedInstance:
    """Complete bipartite ring/key lattice sized for one induction step.

    Builds s rings and s keys with s = m + q and q = (2m+n)(2lam+1)3^m 2^(m+n),
    every key threading every ring, and chain arcs for the prefixes the
    discard phases keep.
    """
    if m < 1 or lam < 1 or n < 0:
        raise ValueError("need m, lam >= 1 and n >= 0")
    q = (2 * m + n) * (2 * lam + 1) * 3**m * 2 ** (m + n)
    s = m + q
    if s > MAX_THEOREM1_SIZE:
        raise ValueError(
            f"s = m + q = {s} rings exceeds the limit of {MAX_THEOREM1_SIZE}"
        )
    intervals = [(0, s - 1)] * s
    inst = grid_link(s, intervals)
    keep_j = m * (2 * lam + 1)
    keep_l = (m + (m + n)) * (2 * lam + 1)
    # chained: keys m..m+keep_j-1 play the first family, rings m..m+keep_l-1
    # the second (ring 0..m-1 and key 0..m-1 are the X and Y cycles).
    order = [("key", m + i) for i in range(keep_j)]
    order += [("ring", m + j) for j in range(keep_l)]
    closure, extras = closure_for_delta(target_delta)
    inst = with_chain(inst, order, closure, extra_count=extras)
    inst.meta.update(
        {"m": m, "n": n, "lam": lam, "q": q, "target_delta": target_delta}
    )
    return inst


def ring_wrap_instance(
    key_count: int = 4, wrap_turns: int = 5
) -> GeneratedInstance:
    """One ring, ``key_count`` chained keys, closure wrapping the hole.

    The connector cycle over the keys (short-path policy) then links the
    ring ``wrap_turns`` times on its own, while each key surgery shifts
    that count by one toward zero.
    """
    if key_count < 2 or wrap_turns < 1:
        raise ValueError("need at least two keys and one wrap")
    inst = grid_link(1, [(0, 0)] * key_count, wrap_reserve=wrap_turns)
    inst = with_chain(
        inst,
        [("key", k) for k in range(key_count)],
        "one_directional",
        wrap_turns=wrap_turns,
    )
    inst.meta["wrap_turns"] = wrap_turns
    return inst


# ---------------------------------------------------------------------------
# braid pair with an encircling coil (search fixture)


def coiled_braid_pair(lam: int = 4) -> GeneratedInstance:
    """Two braid-closure loops linking lam times, coiled by a lam-turn target.

    The two components of a (2, 2*lam) torus-style closure get junction arcs
    (so connector cycles over them exist), and a square coil wraps the braid
    cable lam times, linking each component lam times.
    """
    if lam < 1:
        raise ValueError("lam must be positive")
    loops = braid_closure([1] * (2 * lam), 2)
    if len(loops) != 2:
        raise GenerationFailed("even power should close to two components")
    ymax = 8 * lam

    vertices: dict[int, Point3] = {}
    arcs: dict[tuple[int, int], PolyLine] = {}
    comps: list[DiCycle] = []
    for c, pts in enumerate(loops):
        lane_x = -4 - 4 * c
        top_y = ymax + 2 + 2 * c
        bot_y = -2 - 2 * c
        tl = Point3(lane_x, top_y, 0)
        bl = Point3(lane_x, bot_y, 0)
        bb = Point3(4 * c, 0, 0)
        bt = Point3(4 * c, ymax, 0)
        order = [bl, bb, bt, tl]
        idx = {p: i for i, p in enumerate(pts)}
        for p in order:
            if p not in idx:
                raise GenerationFailed("closure corner missing from loop")
        ids = tuple(4 * c + j for j in range(4))
        for vid, p in zip(ids, order):
            vertices[vid] = p

        def slice_loop(p0: Point3, p1: Point3) -> list[Point3]:
            i0, i1 = idx[p0], idx[p1]
            if i0 <= i1:
                return list(pts[i0 : i1 + 1])
            return list(pts[i0:]) + list(pts[: i1 + 1])

        arcs[(ids[0], ids[1])] = PolyLine(slice_loop(bl, bb))
        arcs[(ids[1], ids[2])] = PolyLine(slice_loop(bb, bt))
        arcs[(ids[2], ids[3])] = PolyLine(slice_loop(bt, tl))
        arcs[(ids[0], ids[3])] = PolyLine(list(reversed(slice_loop(tl, bl))))
        comps.append(DiCycle(ids, (True, True, True, False)))

    # coil: lam square turns around the braid cable, then an outside return
    yc = 2
    coil_pts: list[Point3] = []
    for j in range(lam):
        y = yc + 4 * j
        coil_pts += [
            Point3(6, y, -4),
            Point3(6, y + 1, 4),
            Point3(-2, y + 2, 4),
            Point3(-2, y + 3, -4),
        ]
    coil_pts += [
        Point3(6, yc + 4 * lam, -4),
        Point3(8, yc + 4 * lam - 1, -6),
        Point3(8, yc + 1, -6),
    ]
    coil_ids = (8, 9, 10, 11)
    for vid, p in zip(coil_ids, coil_pts[:4]):
        vertices[vid] = p
    arcs[(8, 9)] = PolyLine(coil_pts[0:2])
    arcs[(9, 10)] = PolyLine(coil_pts[1:3])
    arcs[(10, 11)] = PolyLine(coil_pts[2:4])
    arcs[(11, 8)] = PolyLine(coil_pts[3:] + [coil_pts[0]])
    coil = DiCycle(coil_ids, (True, True, True, True))

    # junction arcs between the two components, lifted above everything
    tl0, bl1 = vertices[3], vertices[4]
    tl1, bl0 = vertices[7], vertices[0]
    arcs[(3, 4)] = PolyLine(
        [
            tl0,
            Point3(tl0.x - 1, tl0.y + 1, 6),
            Point3(bl1.x - 1, bl1.y - 1, 6),
            bl1,
        ]
    )
    arcs[(7, 0)] = PolyLine(
        [
            tl1,
            Point3(tl1.x - 2, tl1.y + 1, 8),
            Point3(bl0.x - 2, bl0.y - 1, 8),
            bl0,
        ]
    )

    emb = SpatialEmbedding(vertices, arcs)
    _validated_or_raise(emb, "coiled_braid_pair")
    return GeneratedInstance(
        embedding=emb,
        cycles={"targets": (coil,), "loops": tuple(comps)},
        seed=None,
        resamples=0,
        meta={"kind": "coiled_braid_pair", "lam": lam},
    )
