"""The box-pruned :class:`LinkTable` against the full-product table it
replaced (tests/linktable_reference.py) and against the whole-link
diagram route (``linking_number``).

Both tables answer the same query sequence on random small embeddings,
where vertical segments, touches and overlaps in projection, arcs that
meet in space and shared vertices are common.  Each query must give the
same lk, or the same exception with the same message, and leave the same
shear; an lk must also equal the one ``linking_number`` reads off the
realized loops whenever that succeeds.  ``LinkTable.lk_pairs`` must answer
like the full-product table's loop of lk calls, and keep no arc pair.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dilink.invariants as invariants
from dilink.digraph import DiCycle, realize
from dilink.engine import big_z, replay_certificate
from dilink.errors import DilinkError, DisjointnessViolated
from dilink.geom import Point3, PolyLine, SpatialEmbedding
from dilink.invariants import LinkTable, linking_number
from dilink.patterns import compute_pattern
from dilink.workbench.generators import big_z_instance, grid_link, random_complete

from linktable_reference import LinkTable as ReferenceTable


def _answer(table, a, b):
    try:
        got = table.lk(a, b)
    except DilinkError as ex:
        got = (type(ex).__name__, str(ex))
    return got, table.shear


def _diagram_lk(emb, a, b):
    """lk of the realized loops from one whole-link projection, or None
    when that route fails."""
    try:
        return linking_number(realize(a, emb), realize(b, emb))
    except DilinkError:
        return None


def tangle(seed):
    """Ten vertices on a small lattice, three cycles (the first two on
    disjoint vertex sets, the third anywhere) whose arcs bend through up to
    two lattice points, and a sequence of queries between them, all drawn
    from one seed."""
    rng = random.Random(seed)
    span = rng.choice([3, 6, 12])

    def coord():
        return Point3(rng.randint(0, span), rng.randint(0, span), rng.randint(-2, 2))

    points = []
    while len(points) < 10:
        p = coord()
        if p not in points:
            points.append(p)
    verts = dict(enumerate(points))
    cycles = []
    for pool in (range(0, 4), range(4, 8), range(10)):
        vs = rng.sample(pool, rng.randint(3, 4))
        cycles.append(DiCycle(tuple(vs), tuple(rng.random() < 0.5 for _ in vs)))
    arcs = {}
    for c in cycles:
        for t, h in c.arcs():
            if (t, h) in arcs:
                continue
            pts = [verts[t]]
            for p in [coord() for _ in range(rng.randint(0, 2))] + [verts[h]]:
                if p != pts[-1]:
                    pts.append(p)
            arcs[(t, h)] = PolyLine(pts)
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    queries = [(*rng.choice(pairs), rng.random() < 0.5) for _ in range(rng.randint(1, 6))]
    return SpatialEmbedding(verts, arcs, box=64), cycles, queries


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_pruned_table_answers_like_the_full_product(seed):
    emb, cycles, queries = tangle(seed)
    table, reference = LinkTable(emb), ReferenceTable(emb)
    for i, j, flip in queries:
        a, b = cycles[i], cycles[j]
        if flip:
            a = a.reversed()
        got = _answer(table, a, b)
        assert got == _answer(reference, a, b)
        if isinstance(got[0], int):
            assert _diagram_lk(emb, a, b) in (None, got[0])


def test_meet_in_space_on_the_first_pair_wins_over_a_later_vertical_segment():
    # B's first arc (3, 4) passes through (5, 0, 0) on A's first arc (0, 1);
    # B's last arc (5, 3) starts with a vertical segment at (8, -6), which
    # lies on no arc of A in projection, so it moves no shear: the meet in
    # space is raised on the first shear, as the full product raises it.
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


def _triangle_and_quad(quad):
    """Triangle A flat at z = 0 and a four-vertex loop B through ``quad``,
    each arc a straight segment."""
    verts = {0: Point3(0, 0, 0), 1: Point3(10, 0, 0), 2: Point3(0, 10, 0)}
    verts.update({3 + i: Point3(*p) for i, p in enumerate(quad)})
    arcs = {
        (t, h): PolyLine([verts[t], verts[h]])
        for t, h in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    }
    emb = SpatialEmbedding(verts, arcs, box=64)
    return emb, DiCycle((0, 1, 2), (True,) * 3), DiCycle((3, 4, 5, 6), (True,) * 4)


def test_a_vertical_segment_off_the_other_projection_keeps_the_shear():
    # B's arc (3, 4) is vertical above (2, 2), inside A's triangle in
    # projection but on none of its sides; B crosses over A's hypotenuse
    # and under its base
    emb, tri_a, quad_b = _triangle_and_quad(
        [(2, 2, -3), (2, 2, 3), (20, 5, 3), (20, -5, -3)]
    )
    table = LinkTable(emb)
    got = _answer(table, tri_a, quad_b)
    assert got == (_diagram_lk(emb, tri_a, quad_b), (0, 0))
    assert abs(got[0]) == 1
    assert got == _answer(ReferenceTable(emb), tri_a, quad_b)


def test_a_vertical_segment_on_the_other_projection_shears():
    # B's arc (3, 4) is vertical above (4, 6), a point of A's hypotenuse
    # in projection, and passes over it without meeting it in space
    emb, tri_a, quad_b = _triangle_and_quad(
        [(4, 6, 1), (4, 6, 3), (20, 5, 3), (20, -5, -3)]
    )
    table = LinkTable(emb)
    got = _answer(table, tri_a, quad_b)
    assert got[1] != (0, 0)
    assert got[0] == _diagram_lk(emb, tri_a, quad_b)
    assert got == _answer(ReferenceTable(emb), tri_a, quad_b)


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


def _counting(monkeypatch):
    """The arc pairs of every arc_pair_crossings call from now on."""
    calls = []
    crossings = invariants.arc_pair_crossings

    def counted(a, b):
        calls.append((a[0], b[0]))
        return crossings(a, b)

    monkeypatch.setattr(invariants, "arc_pair_crossings", counted)
    return calls


def test_big_z_fills_only_pairs_whose_boxes_meet(monkeypatch):
    tables = []
    init = LinkTable.__init__

    def recording_init(self, emb):
        tables.append(self)
        init(self, emb)

    inst = big_z_instance(16, seed=5)
    monkeypatch.setattr(LinkTable, "__init__", recording_init)
    calls = _counting(monkeypatch)
    res = big_z(inst.role("keys"), inst.role("rings"), LinkTable(inst.embedding))
    replay_certificate(res.certificate, LinkTable(inst.embedding))

    assert len(tables) == 2 and all(t.shear == (0, 0) for t in tables)
    filled = [key for t in tables for key in t._pairs]
    # the full product of arc pairs made 32 896 calls here, 4 128 of them
    # with meeting boxes (replay's diagonal check adds 64 and 16)
    assert len(calls) == len(filled) <= 4128
    for t in tables:
        for e, f in t._pairs:
            ex0, ey0, ex1, ey1 = t._arcs[e][2]
            fx0, fy0, fx1, fy1 = t._arcs[f][2]
            assert ex0 <= fx1 and fx0 <= ex1 and ey0 <= fy1 and fy0 <= ey1


def _answers(pairs, table):
    """The (i, j, lk) a pair iterator gives up to its first error, that
    error's type and message, and the table's shear after it."""
    out = []
    try:
        for got in pairs:
            out.append(got)
    except DilinkError as ex:
        out.append((type(ex).__name__, str(ex)))
    return out, table.shear


def _lk_loop(table, cycles):
    for c in cycles:
        table.loop(c)
    for i, j in combinations(range(len(cycles)), 2):
        yield i, j, table.lk(cycles[i], cycles[j])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_lk_pairs_answers_like_a_loop_of_lk(seed):
    # the three cycles in a drawn order, each maybe reversed; the third
    # shares arcs with the others in some draws
    emb, cycles, _ = tangle(seed)
    rng = random.Random(seed)
    order = [c.reversed() if rng.random() < 0.5 else c for c in rng.sample(cycles, 3)]
    table, reference = LinkTable(emb), ReferenceTable(emb)
    got = _answers(table.lk_pairs(order), table)
    assert got == _answers(_lk_loop(reference, order), reference)
    # finished or not, the call stored no arc pair
    assert table._pairs == {}


def test_lk_pairs_keeps_no_pair_of_vertex_disjoint_lattice_cycles(monkeypatch):
    inst = grid_link(3, [(0, 1), (1, 2), (0, 2)])
    calls = _counting(monkeypatch)
    table = LinkTable(inst.embedding)
    compute_pattern(inst.role("rings") + inst.role("keys"), table)
    assert calls and table._pairs == {}


def test_lk_pairs_stores_no_pair_of_cycles_that_share_arcs(monkeypatch):
    # tri_b and tri_c share the arcs (3, 4) and (4, 5); the pattern reads
    # their pairs with tri_a's arcs twice, then fails on the pair (b, c),
    # which shares the arcs' ends, and keeps none of the pairs it read
    emb = random_complete(6, seed=0).embedding
    tri_a = DiCycle((0, 1, 2), (True, True, True))
    tri_b = DiCycle((3, 4, 5), (True, True, True))
    tri_c = DiCycle((3, 4, 5), (True, True, False))
    shared = {(3, 4), (4, 5)}
    calls = _counting(monkeypatch)
    table = LinkTable(emb)
    for run in range(2):
        with pytest.raises(DisjointnessViolated, match="share vertices"):
            compute_pattern([tri_a, tri_b, tri_c], table)
        assert any(shared & set(p) for p in calls), run
        assert table._pairs == {}, run
        calls.clear()
