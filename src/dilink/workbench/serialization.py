"""Canonical JSON file format for instances: an embedding, its cycles and
their role tags.

:class:`Instance` is the one instance type: every generator returns one,
``save_instance`` writes it, and ``load_instance`` gives it back.  One
UTF-8 JSON document per instance: integer coordinates only, vertex ids
implicit in list position, keys sorted, compact separators, trailing
newline.  Writing the same instance twice yields identical bytes, and
``parse_instance(serialize_instance(x)) == x`` for every field the file
stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from dilink.digraph import DiCycle
from dilink.errors import CoordinateOverflow, FormatError, NotACycle
from dilink.geom import Point3, PolyLine, SpatialEmbedding

__all__ = [
    "FORMAT_VERSION",
    "Instance",
    "load_instance",
    "parse_instance",
    "save_instance",
    "serialize_instance",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Instance:
    """An embedding, the cycles stored on it with their orientations, and
    role tags naming cycles by index.

    ``resamples`` counts the degenerate draws a random generator threw away;
    the file does not store it, so it takes no part in equality.
    """

    embedding: SpatialEmbedding
    cycles: tuple[DiCycle, ...] = ()
    orientations: tuple[int, ...] = ()
    roles: dict[str, tuple[int, ...]] = field(default_factory=dict)
    resamples: int = field(default=0, compare=False)

    def role(self, name: str) -> tuple[DiCycle, ...]:
        return tuple(self.cycles[i] for i in self.roles[name])


def _int3(p) -> list[int]:
    return [int(p.x), int(p.y), int(p.z)]


def serialize_instance(inst: Instance) -> str:
    """Render an instance to its canonical JSON text.

    Vertex ids must be exactly 0..n-1 (the format stores positions by
    index), every cycle needs an orientation of +1 or -1, and every role
    index must name a cycle.
    """
    emb, cycles = inst.embedding, inst.cycles
    ids = sorted(emb.vertices)
    if ids != list(range(len(ids))):
        raise FormatError("vertex ids must be dense 0..n-1 for serialization")
    orientations = [int(o) for o in inst.orientations]
    if len(orientations) != len(cycles):
        raise FormatError("one orientation per cycle is required")
    if any(o not in (-1, 1) for o in orientations):
        raise FormatError("orientations must be +1 or -1")
    roles = {k: [int(i) for i in v] for k, v in inst.roles.items()}
    for name, idxs in roles.items():
        if any(not 0 <= i < len(cycles) for i in idxs):
            raise FormatError(f"role {name!r} references a missing cycle")

    doc = {
        "format_version": FORMAT_VERSION,
        "box": emb.box,
        "vertices": [_int3(emb.vertices[i]) for i in ids],
        "edges": [
            {
                "tail": t,
                "head": h,
                "bends": [_int3(p) for p in arc.points[1:-1]],
            }
            for (t, h), arc in sorted(emb.arcs.items())
        ],
        "cycles": [
            {
                "vertices": list(c.vertices),
                "edge_choices": [1 if e else 0 for e in c.edge_choices],
                "orientation": o,
            }
            for c, o in zip(cycles, orientations)
        ],
        "roles": {k: list(v) for k, v in sorted(roles.items())},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _point(obj) -> Optional[Point3]:
    """The lattice point a list of three integers names, or None.  On
    ``json.loads`` output, ``type(c) is int`` is an int that is not a bool."""
    if isinstance(obj, list) and len(obj) == 3:
        x, y, z = obj
        if type(x) is int and type(y) is int and type(z) is int:
            return Point3(x, y, z)
    return None


def parse_instance(text: str) -> Instance:
    """Parse canonical JSON text back into an instance.

    Structural problems (bad JSON, wrong version, missing fields,
    non-integer coordinates, coordinates outside ``box``, dangling
    references) raise FormatError;
    geometric validity is the caller's concern.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise FormatError(f"not valid JSON: {ex}") from ex
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    ver = doc.get("format_version")
    if ver != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {ver!r}, expected {FORMAT_VERSION}")
    box = doc.get("box")
    if not (type(box) is int and box > 0):
        raise FormatError("box must be a positive integer")
    raw_vs = doc.get("vertices")
    if not (isinstance(raw_vs, list) and raw_vs):
        raise FormatError("vertices must be a nonempty list")
    vertices: dict[int, Point3] = {}
    for i, p in enumerate(raw_vs):
        pt = _point(p)
        if pt is None:
            raise FormatError(f"vertex {i} must be a list of three integers")
        vertices[i] = pt
    n = len(vertices)

    raw_es = doc.get("edges")
    if not isinstance(raw_es, list):
        raise FormatError("edges must be a list")
    arcs: dict[tuple[int, int], PolyLine] = {}
    for k, e in enumerate(raw_es):
        if not isinstance(e, dict):
            raise FormatError(f"edge {k} must be an object")
        t, h, bends = e.get("tail"), e.get("head"), e.get("bends")
        for name, v in (("tail", t), ("head", h)):
            if not (type(v) is int and 0 <= v < n):
                raise FormatError(f"edge {k} {name} must name a vertex")
        if t == h:
            raise FormatError(f"edge {k} is a loop")
        if (t, h) in arcs:
            raise FormatError(f"edge ({t},{h}) appears twice")
        if not isinstance(bends, list):
            raise FormatError(f"edge {k} bends must be a list")
        pts = [vertices[t]]
        for j, p in enumerate(bends):
            pt = _point(p)
            if pt is None:
                raise FormatError(f"edge {k} bend {j} must be a list of three integers")
            pts.append(pt)
        pts.append(vertices[h])
        try:
            arcs[(t, h)] = PolyLine(pts)
        except ValueError as ex:
            raise FormatError(f"edge {k} ({t},{h}): {ex}") from ex

    try:
        emb = SpatialEmbedding(vertices=vertices, arcs=arcs, box=box)
    except (ValueError, CoordinateOverflow) as ex:
        raise FormatError(str(ex)) from ex

    raw_cs = doc.get("cycles", [])
    if not isinstance(raw_cs, list):
        raise FormatError("cycles must be a list")
    cycles: list[DiCycle] = []
    orientations: list[int] = []
    for k, c in enumerate(raw_cs):
        if not isinstance(c, dict):
            raise FormatError(f"cycle {k} must be an object")
        vs, ecs = c.get("vertices"), c.get("edge_choices")
        if not (isinstance(vs, list) and all(type(v) is int and 0 <= v < n for v in vs)):
            raise FormatError(f"cycle {k} vertices must name vertices")
        if not (isinstance(ecs, list) and all(type(e) is int and e in (0, 1) for e in ecs)):
            raise FormatError(f"cycle {k} edge_choices must be 0/1 flags")
        o = c.get("orientation", 1)
        if type(o) is not int or o not in (-1, 1):
            raise FormatError(f"cycle {k} orientation must be +1 or -1")
        try:
            cyc = DiCycle(tuple(vs), tuple(bool(e) for e in ecs))
        except NotACycle as ex:
            raise FormatError(f"cycle {k}: {ex}") from ex
        for a in cyc.arcs():
            if a not in arcs:
                raise FormatError(f"cycle {k} uses missing arc {a}")
        cycles.append(cyc)
        orientations.append(o)

    raw_roles = doc.get("roles", {})
    if not isinstance(raw_roles, dict):
        raise FormatError("roles must be an object")
    roles: dict[str, tuple[int, ...]] = {}
    for name, idxs in raw_roles.items():
        if not (
            isinstance(idxs, list)
            and all(type(i) is int and 0 <= i < len(cycles) for i in idxs)
        ):
            raise FormatError(f"role {name!r} must list cycle indices")
        roles[str(name)] = tuple(idxs)

    return Instance(
        embedding=emb,
        cycles=tuple(cycles),
        orientations=tuple(orientations),
        roles=roles,
    )


def save_instance(path: str, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as ex:
        raise FormatError(f"cannot read {path}: {ex}") from ex
