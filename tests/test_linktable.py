"""The box-pruned :class:`LinkTable` against the full-product table it
replaced (tests/linktable_reference.py).

Both tables answer the same query sequence on random small embeddings,
where vertical segments, touches and overlaps in projection, arcs that
meet in space and shared vertices are common.  Each query must give the
same lk, or the same exception with the same message, and leave the same
shear.
"""

import pytest
from hypothesis import given, settings, strategies as st

import dilink.invariants as invariants
from dilink.digraph import DiCycle
from dilink.engine import big_z, replay_certificate
from dilink.errors import DilinkError, DisjointnessViolated
from dilink.geom import Point3, PolyLine, SpatialEmbedding
from dilink.invariants import LinkTable
from dilink.workbench.generators import big_z_instance

from linktable_reference import LinkTable as ReferenceTable


def _answer(table, a, b):
    try:
        got = table.lk(a, b)
    except DilinkError as ex:
        got = (type(ex).__name__, str(ex))
    return got, table.shear


@st.composite
def tangles(draw):
    """Ten vertices on a small lattice, three cycles (the first two on
    disjoint vertex sets, the third anywhere) whose arcs bend through up to
    two lattice points, and a sequence of queries between them."""
    span = draw(st.sampled_from([3, 6, 12]))
    coord = st.builds(
        Point3, st.integers(0, span), st.integers(0, span), st.integers(-2, 2)
    )
    verts = dict(enumerate(draw(st.lists(coord, min_size=10, max_size=10, unique=True))))
    cycles = []
    for pool in (range(0, 4), range(4, 8), range(10)):
        vs = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=4, unique=True))
        along = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        cycles.append(DiCycle(tuple(vs), tuple(along)))
    arcs = {}
    for c in cycles:
        for t, h in c.arcs():
            if (t, h) in arcs:
                continue
            pts = [verts[t]]
            for p in draw(st.lists(coord, max_size=2)) + [verts[h]]:
                if p != pts[-1]:
                    pts.append(p)
            arcs[(t, h)] = PolyLine(pts)
    query = st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans())
    queries = draw(st.lists(query.filter(lambda q: q[0] != q[1]), min_size=1, max_size=6))
    return SpatialEmbedding(verts, arcs, box=64), cycles, queries


@settings(max_examples=300, deadline=None)
@given(tangles())
def test_pruned_table_answers_like_the_full_product(case):
    emb, cycles, queries = case
    table, reference = LinkTable(emb), ReferenceTable(emb)
    for i, j, flip in queries:
        a, b = cycles[i], cycles[j]
        if flip:
            a = a.reversed()
        assert _answer(table, a, b) == _answer(reference, a, b)


def test_meet_in_space_on_the_first_pair_wins_over_a_later_vertical_segment():
    # B's first arc (3, 4) passes through (5, 0, 0) on A's first arc (0, 1);
    # B's last arc (5, 3) starts with a vertical segment.  Preparing all of
    # B before visiting (e0, f0) would shear first and end on another shear.
    verts = {
        0: Point3(0, 0, 0),
        1: Point3(10, 0, 0),
        2: Point3(0, 10, 0),
        3: Point3(5, -4, 2),
        4: Point3(5, 4, -2),
        5: Point3(8, -6, 4),
    }
    arcs = {
        (0, 1): PolyLine([verts[0], verts[1]]),
        (1, 2): PolyLine([verts[1], verts[2]]),
        (2, 0): PolyLine([verts[2], verts[0]]),
        (3, 4): PolyLine([verts[3], verts[4]]),
        (4, 5): PolyLine([verts[4], verts[5]]),
        (5, 3): PolyLine([verts[5], Point3(8, -6, 6), verts[3]]),
    }
    emb = SpatialEmbedding(verts, arcs, box=64)
    tri_a = DiCycle((0, 1, 2), (True, True, True))
    tri_b = DiCycle((3, 4, 5), (True, True, True))
    want = _answer(ReferenceTable(emb), tri_a, tri_b)
    assert want[0][0] == "DisjointnessViolated" and want[1] == (0, 0)
    assert _answer(LinkTable(emb), tri_a, tri_b) == want
    with pytest.raises(DisjointnessViolated, match=want[0][1]):
        LinkTable(emb).lk(tri_a, tri_b)


@pytest.mark.parametrize("z,want", [(1, "shears"), (0, "DisjointnessViolated")])
def test_boxes_that_only_touch_are_still_visited(z, want):
    # A's box ends at x = 4, where its corner (4, 2, 0) sits; B's box starts
    # there, with a bend of arc (3, 4) at (4, 2, z): a touch in projection
    # above the corner, or a meet in space.  Each triangle is placed by a
    # query against the far triangle C before lk(A, B) is asked.
    pts = {
        0: (0, 0, 0), 1: (4, 2, 0), 2: (0, 4, 0),
        3: (6, 0, 0), 4: (6, 4, 0), 5: (8, 2, 0),
        6: (20, 20, 0), 7: (24, 20, 0), 8: (20, 24, 0),
    }
    verts = {v: Point3(*p) for v, p in pts.items()}
    arcs = {
        (t, h): PolyLine([verts[t], verts[h]])
        for t, h in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 3), (6, 7), (7, 8), (8, 6)]
    }
    arcs[(3, 4)] = PolyLine([verts[3], Point3(4, 2, z), verts[4]])
    emb = SpatialEmbedding(verts, arcs, box=64)
    tri_a, tri_b, tri_c = (DiCycle((i, i + 1, i + 2), (True,) * 3) for i in (0, 3, 6))
    table, reference = LinkTable(emb), ReferenceTable(emb)
    for a, b in [(tri_a, tri_c), (tri_b, tri_c), (tri_a, tri_b)]:
        got = _answer(table, a, b)
        assert got == _answer(reference, a, b)
    if want == "shears":
        assert got == (0, (1, 0))
    else:
        assert got[0][0] == want and got[1] == (0, 0)


def test_big_z_fills_only_pairs_whose_boxes_meet(monkeypatch):
    tables, calls = [], []
    init, crossings = LinkTable.__init__, invariants.arc_pair_crossings

    def recording_init(self, emb):
        tables.append(self)
        init(self, emb)

    def counted(a, b):
        calls.append((a[0], b[0]))
        return crossings(a, b)

    inst = big_z_instance(16, seed=5)
    monkeypatch.setattr(LinkTable, "__init__", recording_init)
    monkeypatch.setattr(invariants, "arc_pair_crossings", counted)
    res = big_z(inst.role("keys"), inst.role("rings"), LinkTable(inst.embedding))
    replay_certificate(res.certificate, LinkTable(inst.embedding))

    assert len(tables) == 2 and all(t.shear == (0, 0) for t in tables)
    filled = [key for t in tables for key in t._pairs]
    # the full product of arc pairs made 32 832 calls here, 4 112 of them
    # with meeting boxes
    assert len(calls) == len(filled) <= 4112
    for t in tables:
        for e, f in t._pairs:
            ex0, ey0, ex1, ey1 = t._arcs[e][2]
            fx0, fy0, fx1, fy1 = t._arcs[f][2]
            assert ex0 <= fx1 and fx0 <= ex1 and ey0 <= fy1 and fy0 <= ey1
