"""Canonical JSON file format for embeddings, cycles, and role tags.

One UTF-8 JSON document per instance: integer coordinates only, vertex ids
implicit in list position, keys sorted, compact separators, trailing
newline.  Writing the same instance twice yields identical bytes, and
``parse_instance(serialize_instance(x))`` reproduces every field bit for
bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from dilink.digraph import DiCycle
from dilink.errors import FormatError, NotACycle
from dilink.geom import PolyLine, SpatialEmbedding

__all__ = [
    "FORMAT_VERSION",
    "ParsedInstance",
    "load_instance",
    "parse_instance",
    "save_instance",
    "serialize_instance",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ParsedInstance:
    """An embedding plus the cycles and role tags stored alongside it."""

    embedding: SpatialEmbedding
    cycles: tuple[DiCycle, ...] = ()
    orientations: tuple[int, ...] = ()
    roles: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def role_cycles(self, name: str) -> tuple[DiCycle, ...]:
        return tuple(self.cycles[i] for i in self.roles[name])


def _int3(p) -> list[int]:
    return [int(p.x), int(p.y), int(p.z)]


def serialize_instance(
    emb: SpatialEmbedding,
    cycles: Sequence[DiCycle] = (),
    orientations: Optional[Sequence[int]] = None,
    roles: Optional[dict[str, Sequence[int]]] = None,
) -> str:
    """Render an instance to its canonical JSON text.

    Vertex ids must be exactly 0..n-1 (the format stores positions by
    index).  ``orientations`` defaults to +1 per cycle; ``roles`` maps a
    name to cycle indices.
    """
    ids = sorted(emb.vertices)
    if ids != list(range(len(ids))):
        raise FormatError("vertex ids must be dense 0..n-1 for serialization")
    if orientations is None:
        orientations = [1] * len(cycles)
    orientations = [int(o) for o in orientations]
    if len(orientations) != len(cycles):
        raise FormatError("one orientation per cycle is required")
    if any(o not in (-1, 1) for o in orientations):
        raise FormatError("orientations must be +1 or -1")
    roles = {k: [int(i) for i in v] for k, v in (roles or {}).items()}
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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _point(obj, what: str) -> tuple[int, int, int]:
    _require(
        isinstance(obj, list)
        and len(obj) == 3
        and all(isinstance(c, int) and not isinstance(c, bool) for c in obj),
        f"{what} must be a list of three integers",
    )
    return (obj[0], obj[1], obj[2])


def parse_instance(text: str) -> ParsedInstance:
    """Parse canonical JSON text back into an instance.

    Structural problems (bad JSON, wrong version, missing fields,
    non-integer coordinates, dangling references) raise FormatError;
    geometric validity is the caller's concern.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise FormatError(f"not valid JSON: {ex}") from ex
    _require(isinstance(doc, dict), "top level must be an object")
    ver = doc.get("format_version")
    _require(
        ver == FORMAT_VERSION,
        f"unsupported format_version {ver!r}, expected {FORMAT_VERSION}",
    )
    box = doc.get("box")
    _require(
        isinstance(box, int) and not isinstance(box, bool) and box > 0,
        "box must be a positive integer",
    )
    raw_vs = doc.get("vertices")
    _require(isinstance(raw_vs, list) and raw_vs, "vertices must be a nonempty list")
    vertices = {
        i: _point(p, f"vertex {i}") for i, p in enumerate(raw_vs)
    }
    n = len(vertices)

    raw_es = doc.get("edges")
    _require(isinstance(raw_es, list), "edges must be a list")
    arcs: dict[tuple[int, int], PolyLine] = {}
    for k, e in enumerate(raw_es):
        _require(isinstance(e, dict), f"edge {k} must be an object")
        t, h, bends = e.get("tail"), e.get("head"), e.get("bends")
        for name, v in (("tail", t), ("head", h)):
            _require(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n,
                f"edge {k} {name} must name a vertex",
            )
        _require(t != h, f"edge {k} is a loop")
        _require((t, h) not in arcs, f"edge ({t},{h}) appears twice")
        _require(isinstance(bends, list), f"edge {k} bends must be a list")
        pts = (
            [vertices[t]]
            + [_point(p, f"edge {k} bend {j}") for j, p in enumerate(bends)]
            + [vertices[h]]
        )
        try:
            arcs[(t, h)] = PolyLine(pts)
        except ValueError as ex:
            raise FormatError(f"edge {k} ({t},{h}): {ex}") from ex

    try:
        emb = SpatialEmbedding(
            vertices={i: p for i, p in vertices.items()}, arcs=arcs, box=box
        )
    except ValueError as ex:
        raise FormatError(str(ex)) from ex

    raw_cs = doc.get("cycles", [])
    _require(isinstance(raw_cs, list), "cycles must be a list")
    cycles: list[DiCycle] = []
    orientations: list[int] = []
    for k, c in enumerate(raw_cs):
        _require(isinstance(c, dict), f"cycle {k} must be an object")
        vs, ecs = c.get("vertices"), c.get("edge_choices")
        _require(
            isinstance(vs, list)
            and all(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n
                for v in vs
            ),
            f"cycle {k} vertices must name vertices",
        )
        _require(
            isinstance(ecs, list) and all(e in (0, 1) for e in ecs),
            f"cycle {k} edge_choices must be 0/1 flags",
        )
        o = c.get("orientation", 1)
        _require(o in (-1, 1), f"cycle {k} orientation must be +1 or -1")
        try:
            cyc = DiCycle(tuple(vs), tuple(bool(e) for e in ecs))
        except NotACycle as ex:
            raise FormatError(f"cycle {k}: {ex}") from ex
        for a in cyc.arcs():
            _require(a in arcs, f"cycle {k} uses missing arc {a}")
        cycles.append(cyc)
        orientations.append(o)

    raw_roles = doc.get("roles", {})
    _require(isinstance(raw_roles, dict), "roles must be an object")
    roles: dict[str, tuple[int, ...]] = {}
    for name, idxs in raw_roles.items():
        _require(
            isinstance(idxs, list)
            and all(
                isinstance(i, int) and not isinstance(i, bool)
                and 0 <= i < len(cycles)
                for i in idxs
            ),
            f"role {name!r} must list cycle indices",
        )
        roles[str(name)] = tuple(idxs)

    return ParsedInstance(
        embedding=emb,
        cycles=tuple(cycles),
        orientations=tuple(orientations),
        roles=roles,
    )


def save_instance(
    path: str,
    emb: SpatialEmbedding,
    cycles: Sequence[DiCycle] = (),
    orientations: Optional[Sequence[int]] = None,
    roles: Optional[dict[str, Sequence[int]]] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(emb, cycles, orientations, roles))


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as ex:
        raise FormatError(f"cannot read {path}: {ex}") from ex
