"""Directed cycles, directionality, cycle surgery, and realization.

A cycle in a digraph is a cyclic vertex sequence together with a choice, for
every step, of which of the two possible directed edges realizes it.  The
sequence order is the cycle's traversal (and, once realized, the orientation
used by the linking number); the chosen edge may point with or against it.
Vertices where the two incident chosen edges both point in or both point out
are the direction changes, and their count (or 1 when there are none) is the
cycle's directionality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DisjointnessViolated,
    HypothesisViolated,
    Impossible,
    MissingArc,
    NotACycle,
    NotApplicable,
)
from .geom import Point3, SpatialEmbedding

__all__ = [
    "DiCycle",
    "OrientedLoop",
    "directionality",
    "direction_change_vertices",
    "u_to_w_paths",
    "nabla",
    "nabla_eps",
    "extra_count",
    "connector_arcs",
    "connector_cycle",
    "realize",
]


@dataclass(frozen=True)
class DiCycle:
    """Simple cycle with per-step directed-edge choices.

    ``vertices`` is the traversal order (at least 3, all distinct) and
    ``edge_choices[i]`` says whether step i, from vertices[i] to
    vertices[i+1], is realized by the arc pointing along the traversal
    (True) or by the reverse arc (False).  Construction rotates the
    traversal so it starts at the smallest vertex id, making equal cycles
    compare equal regardless of the rotation they were built with.
    """

    vertices: tuple[int, ...]
    edge_choices: tuple[bool, ...]

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        ecs = tuple(bool(c) for c in self.edge_choices)
        if len(verts) < 3:
            raise NotACycle("a cycle needs at least 3 vertices")
        if len(set(verts)) != len(verts):
            raise NotACycle("cycle vertices repeat")
        if len(ecs) != len(verts):
            raise NotACycle("one edge choice per step is required")
        r = verts.index(min(verts))
        if r:
            verts = verts[r:] + verts[:r]
            ecs = ecs[r:] + ecs[:r]
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edge_choices", ecs)

    def __len__(self) -> int:
        return len(self.vertices)

    def step(self, i: int) -> tuple[int, int]:
        """Traversal step i as (from, to)."""
        k = len(self.vertices)
        return self.vertices[i % k], self.vertices[(i + 1) % k]

    def arc(self, i: int) -> tuple[int, int]:
        """Directed edge realizing step i."""
        a, b = self.step(i)
        return (a, b) if self.edge_choices[i % len(self.vertices)] else (b, a)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.arc(i) for i in range(len(self.vertices)))

    def arc_multiset(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs())

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def reversed(self) -> "DiCycle":
        """Same cycle traversed the other way; arcs are untouched."""
        k = len(self.vertices)
        verts = (self.vertices[0],) + self.vertices[:0:-1]
        ecs = tuple(not self.edge_choices[(k - 1 - i) % k] for i in range(k))
        return DiCycle(verts, ecs)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edge_choices": [1 if c else 0 for c in self.edge_choices],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiCycle":
        return cls(tuple(obj["vertices"]), tuple(bool(c) for c in obj["edge_choices"]))


def _change_flags(c: DiCycle) -> list[bool]:
    # vertex i changes direction iff the arcs of steps i-1 and i disagree
    # about pointing along the traversal
    k = len(c.vertices)
    return [c.edge_choices[i - 1] != c.edge_choices[i] for i in range(k)]


def directionality(c: DiCycle) -> int:
    """Number of maximal consistently directed paths of the cycle.

    1 for a consistently directed cycle, otherwise the (even) number of
    vertices where direction changes.
    """
    changes = sum(_change_flags(c))
    return changes if changes else 1


def direction_change_vertices(c: DiCycle) -> list[int]:
    """The direction-change vertices, in traversal order starting with a
    vertex whose two cycle edges both point out.

    For a 2-directional cycle this returns [u, w] where every directed
    sub-path runs from u to w.  Raises NotApplicable for consistently
    directed cycles, which have no such vertices.
    """
    flags = _change_flags(c)
    if not any(flags):
        raise NotApplicable("consistently directed cycle has no direction changes")
    k = len(c.vertices)
    idxs = [i for i in range(k) if flags[i]]
    # both-out means the step leaving the vertex points along the traversal
    start = next(j for j, i in enumerate(idxs) if c.edge_choices[i])
    idxs = idxs[start:] + idxs[:start]
    return [c.vertices[i] for i in idxs]


def u_to_w_paths(c: DiCycle) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a 2-directional cycle, the two directed paths from u to w.

    The first runs along the traversal, the second against it; both are
    returned u first.  Raises NotApplicable unless directionality is 2.
    """
    if directionality(c) != 2:
        raise NotApplicable("u/w paths exist only for 2-directional cycles")
    u, w = direction_change_vertices(c)
    k = len(c.vertices)
    a = c.vertices.index(u)
    b = c.vertices.index(w)
    forward = [c.vertices[a]]
    i = a
    while i != b:
        i = (i + 1) % k
        forward.append(c.vertices[i])
    backward = [c.vertices[a]]
    i = a
    while i != b:
        i = (i - 1) % k
        backward.append(c.vertices[i])
    return tuple(forward), tuple(backward)


# ---------------------------------------------------------------------------
# surgery


def _shared_path_or_raise(
    j_arcs: frozenset[tuple[int, int]], l_arcs: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    shared = j_arcs & l_arcs
    if not shared:
        raise NotACycle("cycles share no arcs")
    und = lambda s: {frozenset(a) for a in s}
    if und(j_arcs) & und(l_arcs) != und(shared):
        # both cycles cover some edge but via opposite arcs; geometrically
        # those are different curves, so treating them as shared would lie
        raise NotACycle("cycles overlap through antiparallel arcs")
    deg: dict[int, int] = {}
    for (a, b) in shared:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    ends = [v for v, d in deg.items() if d == 1]
    if any(d > 2 for d in deg.values()) or len(ends) != 2:
        raise NotACycle("shared arcs do not form a single path")
    # connectivity walk over the shared edges
    adj: dict[int, list[int]] = {}
    for (a, b) in shared:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {ends[0]}
    stack = [ends[0]]
    while stack:
        v = stack.pop()
        for nb in adj[v]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(deg):
        raise NotACycle("shared arcs do not form a single path")
    return shared


def nabla(j: DiCycle, l: Optional[DiCycle]) -> DiCycle:
    """Closure of the symmetric difference of two cycles sharing one path.

    The second argument may be None, in which case the first is returned
    unchanged.  The two cycles must share exactly one nonempty contiguous
    run of arcs (the same directed arcs in both); the result walks the
    remaining arcs, traversed so that the first argument's orientation is
    preserved on the arcs it contributed.
    """
    if l is None:
        return j
    j_arcs = j.arc_multiset()
    l_arcs = l.arc_multiset()
    shared = _shared_path_or_raise(j_arcs, l_arcs)
    sym = (j_arcs | l_arcs) - shared
    if not sym or not (j_arcs - shared):
        raise NotACycle("symmetric difference is empty or drops the first cycle")

    adj: dict[int, list[tuple[int, int]]] = {}
    for arc in sym:
        a, b = arc
        adj.setdefault(a, []).append(arc)
        adj.setdefault(b, []).append(arc)
    bad = [v for v, arcs in adj.items() if len(arcs) != 2]
    if bad:
        raise NotACycle(f"vertex {min(bad)} has degree != 2 in the symmetric difference")

    start = min(adj)
    walk = [start]
    used: set[tuple[int, int]] = set()
    ecs: list[bool] = []
    v = start
    while True:
        arc = next(a for a in adj[v] if a not in used)
        used.add(arc)
        nxt = arc[1] if arc[0] == v else arc[0]
        ecs.append(arc[0] == v)
        if nxt == start:
            break
        walk.append(nxt)
        v = nxt
    if len(used) != len(sym) or len(walk) != len(adj):
        raise NotACycle("symmetric difference is disconnected")

    out = DiCycle(tuple(walk), tuple(ecs))
    # orient like j: j must traverse one of its surviving arcs the same way
    probe = next(iter(sorted(j_arcs - shared)))
    j_dir = None
    for i in range(len(j)):
        if j.arc(i) == probe:
            j_dir = j.step(i)
            break
    if j_dir is None:
        raise Impossible(f"cycle j does not run its own arc {probe}")
    for i in range(len(out)):
        if out.arc(i) == probe:
            if out.step(i) != j_dir:
                out = out.reversed()
            break
    return out


def nabla_eps(j: DiCycle, l: Optional[DiCycle], eps: int) -> DiCycle:
    """nabla(j, l) when eps is 1, j unchanged when eps is 0."""
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    return nabla(j, l) if eps else j


# ---------------------------------------------------------------------------
# connector cycles


def extra_count(delta: int) -> int:
    """The number of extra vertices a connector of directionality
    ``delta`` closes through: none for 1 and 2, ``delta - 2`` above."""
    if delta == 1 or (delta >= 2 and delta % 2 == 0):
        return max(delta - 2, 0)
    raise HypothesisViolated(
        "target directionality must be 1 or an even number >= 2"
    )


def connector_arcs(
    junctions: Sequence[tuple[int, int]],
    delta: int,
    extra_vertices: Sequence[int],
) -> list[tuple[int, int]]:
    """The joining and closing arcs of a connector, in walk order.

    ``junctions`` are the chained cycles' (u, w) pairs.  Consecutive
    cycles are joined by the arc (w_i, u_{i+1}); the walk then returns
    from the last w to the first u:

      delta 1    by the arc (w_last, u_1), so every step runs along its arc
      delta 2    by the arc (u_1, w_last), against the walk
      delta 4+   through the extra vertices x_1..x_k, k = delta - 2, by the
                 arcs (x_1, w_last), then (x_1, x_2), (x_3, x_2), (x_3, x_4),
                 ... alternating, and (u_1, x_k), so the direction changes
                 at every x and at both ends
    """
    need = extra_count(delta)
    xs = [int(v) for v in extra_vertices]
    if len(xs) != need:
        raise HypothesisViolated(
            f"target directionality {delta} needs exactly {need} "
            f"extra vertices, got {len(xs)}"
        )
    u1, w_last = junctions[0][0], junctions[-1][1]
    arcs = [(w, u) for (_, w), (u, _) in zip(junctions, junctions[1:])]
    if delta == 1:
        arcs.append((w_last, u1))
    elif delta == 2:
        arcs.append((u1, w_last))
    else:
        arcs.append((xs[0], w_last))
        for j, (a, b) in enumerate(zip(xs, xs[1:])):
            arcs.append((a, b) if j % 2 == 0 else (b, a))
        arcs.append((u1, xs[-1]))
    return arcs


def connector_cycle(
    cycles: Sequence[DiCycle],
    delta: int = 1,
    q_policy: str = "lex",
    extra_vertices: Sequence[int] = (),
) -> DiCycle:
    """Chain 2-directional cycles into one cycle of directionality ``delta``.

    From each input cycle one of its two directed u-to-w paths is taken
    (u both-out, w both-in); the arcs between those paths are
    :func:`connector_arcs`, whose closure runs through ``extra_vertices``
    when ``delta`` is 4 or more.

    q_policy "lex" picks the u-to-w path with the lexicographically
    smaller vertex sequence; "opposite" picks the one whose arcs point
    against the cycle's traversal.

    The ambient digraph is assumed complete symmetric, so every joining
    edge exists.
    """
    if len(cycles) < 2:
        raise ValueError("need at least two cycles to chain")
    if q_policy not in ("lex", "opposite"):
        raise ValueError(f"unknown q policy {q_policy!r}")

    seen: set[int] = set()
    for idx, c in enumerate(cycles):
        if directionality(c) != 2:
            raise NotApplicable(f"cycle {idx} is not 2-directional")
        overlap = seen & c.vertex_set()
        if overlap:
            raise DisjointnessViolated(f"cycles share vertex {min(overlap)}")
        seen |= c.vertex_set()

    extras = tuple(int(v) for v in extra_vertices)
    if len(set(extras)) != len(extras) or seen & set(extras):
        raise DisjointnessViolated("extra vertices must be fresh and distinct")

    junctions = [tuple(direction_change_vertices(c)) for c in cycles]
    joins = iter(connector_arcs(junctions, delta, extras))
    verts: list[int] = []
    ecs: list[bool] = []
    for c in cycles:
        along, against = u_to_w_paths(c)
        q = min(along, against) if q_policy == "lex" else against
        verts.extend(q)
        ecs.extend([True] * (len(q) - 1))
        # the step out of w runs along its arc when the arc leaves w
        ecs.append(next(joins)[0] == q[-1])
    for x in extras:
        verts.append(x)
        ecs.append(next(joins)[0] == x)
    return DiCycle(tuple(verts), tuple(ecs))


# ---------------------------------------------------------------------------
# geometric realization


@dataclass(frozen=True)
class OrientedLoop:
    """A cycle's closed polyline in a specific embedding.

    ``points`` is the closed traversal (last point joins the first) in the
    cycle's traversal order, the direction invariants use.
    """

    cycle: DiCycle
    points: tuple[Point3, ...]

    def __len__(self) -> int:
        return len(self.points)


def realize(c: DiCycle, emb: SpatialEmbedding) -> OrientedLoop:
    """Concatenate the embedded arcs of a cycle into a closed polyline."""
    pts: list[Point3] = []
    for i in range(len(c)):
        key = c.arc(i)
        arc = emb.arcs.get(key)
        if arc is None:
            raise MissingArc(f"no embedded arc for {key}")
        seq = arc.points if c.edge_choices[i] else arc.points[::-1]
        a, _ = c.step(i)
        if seq[0] != emb.vertices[a]:
            raise ValueError(f"arc of {key} does not join its endpoints")
        pts.extend(seq[:-1])
    return OrientedLoop(cycle=c, points=tuple(pts))
