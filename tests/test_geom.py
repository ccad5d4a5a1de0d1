"""Exact predicates, embedding validation, projection, shearing."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

import dilink

from dilink import geom
from dilink.errors import (
    CoordinateOverflow,
    DegenerateProjection,
    DilinkError,
    DisjointnessViolated,
)
from dilink.geom import (
    COORD_LIMIT,
    LinkDiagram,
    Point3,
    PolyLine,
    SpatialEmbedding,
    _pair_walk,
    arc_pair_crossings,
    arc_strands,
    orient2,
    project_to_diagram,
    seg2_relation,
    seg3_relation,
    shear_points,
    validate_general_position,
)
from dilink.engine import big_z, replay_certificate
from dilink.invariants import LinkTable
from dilink.workbench.generators import big_z_instance, lemma1_dk6m

from conftest import hand_hopf, square_loop, tiny_embedding
from geom_reference import (
    arc_pair_crossings_reference,
    diagram_reference,
    pair_walk_reference,
    shear,
    validate_reference,
)

P = Point3


# ---------------------------------------------------------------------------
# container validation


def test_polyline_needs_two_points():
    with pytest.raises(ValueError):
        PolyLine([P(0, 0, 0)])


def test_polyline_rejects_repeated_point():
    with pytest.raises(ValueError):
        PolyLine([P(0, 0, 0), P(1, 0, 0), P(1, 0, 0)])


def test_embedding_rejects_coincident_vertices():
    with pytest.raises(ValueError, match="coincide"):
        SpatialEmbedding({0: P(0, 0, 0), 1: P(0, 0, 0)}, {}, box=8)


def test_embedding_rejects_detached_arc():
    v = {0: P(0, 0, 0), 1: P(4, 0, 0)}
    with pytest.raises(ValueError, match="join"):
        SpatialEmbedding(v, {(0, 1): PolyLine([P(1, 1, 1), v[1]])}, box=8)


def test_embedding_rejects_out_of_box():
    with pytest.raises(CoordinateOverflow):
        SpatialEmbedding({0: P(100, 0, 0), 1: P(0, 1, 0)}, {}, box=8)


def test_embedding_rejects_loop_edge():
    v = {0: P(0, 0, 0)}
    with pytest.raises(ValueError, match="loop"):
        SpatialEmbedding(v, {(0, 0): PolyLine([v[0], P(1, 1, 1), v[0]])}, box=8)


def test_segment_count(grid13):
    emb = grid13.embedding
    assert emb.segment_count() == sum(
        len(a.points) - 1 for a in emb.arcs.values()
    )


# ---------------------------------------------------------------------------
# 3D segment predicate


def test_seg3_skew():
    kind, data = seg3_relation(P(0, 0, 0), P(4, 0, 0), P(1, 1, 1), P(1, 4, 3))
    assert (kind, data) == ("none", None)


def test_seg3_proper_point_is_exact():
    kind, data = seg3_relation(P(0, 0, 0), P(2, 2, 0), P(0, 2, 0), P(2, 0, 0))
    assert kind == "point"
    assert data == (Fraction(1), Fraction(1), Fraction(0))


def test_seg3_interior_point_fractional():
    kind, data = seg3_relation(P(0, 0, 0), P(3, 0, 0), P(1, -1, 0), P(1, 2, 0))
    assert kind == "point" and data == (1, 0, 0)


def test_seg3_collinear_overlap():
    kind, _ = seg3_relation(P(0, 0, 0), P(4, 0, 0), P(2, 0, 0), P(6, 0, 0))
    assert kind == "overlap"


def test_seg3_collinear_disjoint():
    kind, _ = seg3_relation(P(0, 0, 0), P(1, 0, 0), P(3, 0, 0), P(5, 0, 0))
    assert kind == "none"


def test_seg3_collinear_endpoint_touch():
    kind, data = seg3_relation(P(0, 0, 0), P(2, 0, 0), P(2, 0, 0), P(5, 0, 0))
    assert kind == "point" and data == (2, 0, 0)


def test_seg3_parallel_offset():
    kind, _ = seg3_relation(P(0, 0, 0), P(4, 0, 0), P(0, 1, 0), P(4, 1, 0))
    assert kind == "none"


def test_seg3_coplanar_crossing_out_of_range():
    # lines meet, segments stop short
    kind, _ = seg3_relation(P(0, 0, 0), P(1, 0, 0), P(3, -1, 0), P(3, 1, 0))
    assert kind == "none"


# ---------------------------------------------------------------------------
# projected predicate


def test_seg2_proper_parameters():
    kind, (t_num, u_num, den) = seg2_relation(
        P(0, 0, 0), P(4, 0, 9), P(1, -2, 3), P(1, 2, -5)
    )
    assert kind == "proper"
    assert den > 0
    assert Fraction(t_num, den) == Fraction(1, 4)
    assert Fraction(u_num, den) == Fraction(1, 2)


def test_seg2_touch_endpoint_on_interior():
    kind, data = seg2_relation(P(0, 0, 0), P(4, 0, 0), P(2, 0, 5), P(2, 3, 5))
    assert kind == "touch" and data == (2, 0)


def test_seg2_overlap_and_none():
    assert seg2_relation(P(0, 0, 0), P(4, 0, 1), P(1, 0, 7), P(6, 0, 7))[0] == "overlap"
    assert seg2_relation(P(0, 0, 0), P(1, 0, 0), P(5, 5, 0), P(6, 5, 0))[0] == "none"


def test_seg2_vertical_segment_is_a_point():
    up = (P(0, 0, 0), P(0, 0, 1))
    assert seg2_relation(*up, P(0, 1, 0), P(1, 0, 0)) == ("none", None)
    assert seg2_relation(P(0, 1, 0), P(1, 0, 0), *up) == ("none", None)
    assert seg2_relation(*up, P(-1, 1, 4), P(1, -1, 4)) == ("touch", (0, 0))
    assert seg2_relation(P(-1, 1, 4), P(1, -1, 4), *up) == ("touch", (0, 0))


def test_seg2_collinear_single_touch():
    kind, data = seg2_relation(P(0, 0, 0), P(2, 0, 0), P(2, 0, 9), P(6, 0, 9))
    assert kind == "touch" and data == (2, 0)


@given(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_orient2_antisymmetry(p, q, r):
    assert orient2(p, q, r) == -orient2(q, p, r)
    assert orient2(p, q, r) == orient2(q, r, p)


@given(
    st.tuples(
        st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
    ),
    st.tuples(
        st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
    ),
    st.tuples(
        st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
    ),
    st.tuples(
        st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
    ),
)
@example((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
def test_seg2_symmetric_in_arguments(a, b, c, d):
    p, q, r, s = (P(*a), P(*b), P(*c), P(*d))
    if p == q or r == s:
        return
    k1, _ = seg2_relation(p, q, r, s)
    k2, _ = seg2_relation(r, s, p, q)
    assert k1 == k2


# ---------------------------------------------------------------------------
# general position validation


def test_validate_clean_embedding():
    assert validate_general_position(tiny_embedding()).ok


def test_validate_flags_vertical_segment():
    v = {0: P(0, 0, 0), 1: P(0, 0, 5)}
    emb = SpatialEmbedding(
        v, {(0, 1): PolyLine([v[0], v[1]])}, box=8
    )
    kinds = validate_general_position(emb).kinds()
    assert "vertical-segment" in kinds


def test_validate_flags_3d_intersection():
    v = {0: P(0, 0, 0), 1: P(4, 0, 0), 2: P(2, -2, 0), 3: P(2, 2, 0)}
    emb = SpatialEmbedding(
        v,
        {
            (0, 1): PolyLine([v[0], v[1]]),
            (2, 3): PolyLine([v[2], v[3]]),
        },
        box=8,
    )
    assert "arc-intersection-3d" in validate_general_position(emb).kinds()


def test_validate_flags_projection_tangency():
    # arcs disjoint in space but touching in the shadow
    v = {0: P(0, 0, 0), 1: P(4, 0, 0), 2: P(2, -2, 5), 3: P(2, 2, 5)}
    emb = SpatialEmbedding(
        v,
        {
            (0, 1): PolyLine([v[0], v[1]]),
            (2, 3): PolyLine([v[2], Point3(2, 0, 6), v[3]]),
        },
        box=8,
    )
    kinds = validate_general_position(emb).kinds()
    assert "projection-tangency" in kinds


def test_validate_flags_vertex_on_arc():
    v = {0: P(0, 0, 0), 1: P(4, 0, 0), 2: P(2, 0, 0), 3: P(2, 5, 1)}
    emb = SpatialEmbedding(
        v,
        {
            (0, 1): PolyLine([v[0], v[1]]),
            (2, 3): PolyLine([v[2], v[3]]),
        },
        box=8,
    )
    assert "vertex-on-arc-3d" in validate_general_position(emb).kinds()


def test_generated_instances_validate(grid13, grid22, bigz_n2, wrap45, coil4):
    for inst in (grid13, grid22, bigz_n2, wrap45, coil4):
        assert validate_general_position(inst.embedding).ok


# ---------------------------------------------------------------------------
# the pair walk's sweep, pair by pair


def _assert_walk_matches(ends):
    # each segment its own owner with no permitted contact, so the walk
    # reports every pair whose boxes meet that touches, meets or crosses;
    # a pair the sweep missed or decided twice shows in the sorted lists
    segs = [(i, 0, p, q) for i, (p, q) in enumerate(ends)]
    points = [(k, None, p, p) for k, (p, _) in enumerate(ends[::2])]
    crossings = []
    events, hits, _ = _pair_walk(segs, points, {}, crossings)
    got = sorted(events, key=itemgetter(0, 1, 2)), sorted(hits), sorted(crossings)
    assert got == pair_walk_reference(segs, points)


def _random_segments(n, seed, half):
    """Segments in a small cube, so boxes often touch at one coordinate;
    a third are vertical (a point box in the projection) and a third run
    along x (zero y and z extent)."""
    rng = random.Random(seed)
    ends = []
    for i in range(n):
        p = P(*(rng.randint(-half, half) for _ in range(3)))
        shape = i % 3
        if shape == 0:
            q = P(p.x, p.y, p.z + rng.randint(1, half))
        elif shape == 1:
            q = P(p.x + rng.randint(1, half), p.y, p.z)
        else:
            q = p
            while q == p:
                q = P(*(rng.randint(-half, half) for _ in range(3)))
        ends.append((p, q))
    return ends


@given(
    n=st.sampled_from([0, 1, 2, 17, 60, 150, 300]),
    seed=st.integers(min_value=0, max_value=2**32),
    half=st.sampled_from([2, 6, 60]),
)
@settings(max_examples=25, deadline=None)
def test_pair_walk_matches_brute_force(n, seed, half):
    _assert_walk_matches(_random_segments(n, seed, half))


_small_pt = st.builds(
    P, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
)


@given(ends=st.lists(st.tuples(_small_pt, _small_pt).filter(lambda e: e[0] != e[1]), max_size=30))
@example(ends=[(P(0, 0, 0), P(1, 0, 0)), (P(1, 0, 0), P(2, 3, 0))])
@example(ends=[(P(0, 0, 0), P(1, 1, 0)), (P(1, 1, 5), P(2, 3, 9))])
@example(ends=[(P(0, 0, 0), P(0, 0, 3)), (P(0, 0, 1), P(0, 0, 2)), (P(-1, 0, 2), P(1, 0, 2))])
def test_pair_walk_small_sets(ends):
    _assert_walk_matches(ends)


def test_validation_does_not_import_numpy():
    # lemma1_dk6m(3) has 612 segments, past the size where a numpy path
    # used to take over the prefilter
    script = textwrap.dedent(
        """
        import sys
        from dilink.geom import validate_general_position
        from dilink.workbench.generators import lemma1_dk6m
        emb = lemma1_dk6m(3, seed=5).embedding
        print(emb.segment_count(), validate_general_position(emb).ok)
        print("numpy" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(dilink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    count, ok, numpy_loaded = out.stdout.split()
    assert int(count) > 512 and ok == "True"
    assert numpy_loaded == "False"


# ---------------------------------------------------------------------------
# the integer kernel against the rational reference (tests/geom_reference.py)


@st.composite
def _cube_embeddings(draw):
    """Up to 7 vertices and 10 arcs with up to 2 bends each, all in a cube
    of side 2 to 4: arcs share ends, run collinear or vertical, and cross
    three at a point in projection."""
    side = draw(st.integers(2, 4))
    coord = st.builds(P, *[st.integers(0, side - 1)] * 3)
    verts = dict(enumerate(draw(st.lists(coord, min_size=2, max_size=7, unique=True))))
    index = st.integers(0, len(verts) - 1)
    arcs = {}
    for t, h, bends in draw(st.lists(st.tuples(index, index, st.lists(coord, max_size=2)), max_size=10)):
        if t == h or (t, h) in arcs:
            continue
        pts = [verts[t], *bends, verts[h]]
        arcs[(t, h)] = PolyLine([p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]])
    return SpatialEmbedding(verts, arcs, box=8)


_triple = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(2, 2, 0), 2: P(0, 2, 1), 3: P(2, 0, 1), 4: P(1, 0, 2), 5: P(1, 2, 2)},
    {(0, 1): PolyLine([P(0, 0, 0), P(2, 2, 0)]), (2, 3): PolyLine([P(0, 2, 1), P(2, 0, 1)]),
     (4, 5): PolyLine([P(1, 0, 2), P(1, 2, 2)])},
    box=8,
)
_fan = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(3, 0, 0), 2: P(0, 3, 1), 3: P(3, 3, 3), 4: P(1, 0, 0)},
    {(0, 1): PolyLine([P(0, 0, 0), P(3, 0, 0)]), (0, 2): PolyLine([P(0, 0, 0), P(0, 3, 1)]),
     (0, 3): PolyLine([P(0, 0, 0), P(1, 1, 0), P(1, 1, 2), P(3, 3, 3)]),
     (2, 0): PolyLine([P(0, 3, 1), P(0, 0, 0)])},
    box=8,
)

# arcs (0,1) and (2,3) cross properly in projection and meet in space
# there, at an interior point of both; (4,5) crosses them at that point
_meet_at_crossing = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(3, 3, 3), 2: P(0, 3, 3), 3: P(3, 0, 0), 4: P(1, 0, 5), 5: P(2, 3, 5)},
    {(0, 1): PolyLine([P(0, 0, 0), P(3, 3, 3)]), (2, 3): PolyLine([P(0, 3, 3), P(3, 0, 0)]),
     (4, 5): PolyLine([P(1, 0, 5), P(2, 3, 5)])},
    box=8,
)
# a bend of (2,3) lies on (0,1): both its segments touch (0,1) in
# projection and meet it in space at a point no rule permits
_touch_meet = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(4, 0, 0), 2: P(0, 4, 1), 3: P(3, 4, 2)},
    {(0, 1): PolyLine([P(0, 0, 0), P(4, 0, 0)]),
     (2, 3): PolyLine([P(0, 4, 1), P(2, 0, 0), P(3, 4, 2)])},
    box=8,
)

# arcs (0,1) and (0,2) leave vertex 0 in opposite directions along one
# line in projection, (0,1) and (0,3) in the same direction
_collinear_fork = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(-2, 0, 1), 3: P(3, 0, 2)},
    {(0, 1): PolyLine([P(0, 0, 0), P(2, 0, 0)]), (0, 2): PolyLine([P(0, 0, 0), P(-2, 0, 1)]),
     (0, 3): PolyLine([P(0, 0, 0), P(3, 0, 2)])},
    box=8,
)
# the bends of (0,1) and (2,3) are one point, an end of no arc
_bend_on_bend = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(0, 2, 0), 3: P(2, 2, 0)},
    {(0, 1): PolyLine([P(0, 0, 0), P(1, 1, 1), P(2, 0, 0)]),
     (2, 3): PolyLine([P(0, 2, 0), P(1, 1, 1), P(2, 2, 0)])},
    box=8,
)
# the third bend of (0,1) is at its own tail: an arc end, but not one its
# first segment may share with its third or fourth; (0,2) may meet all
# three there
_bend_at_tail = SpatialEmbedding(
    {0: P(0, 0, 0), 1: P(2, 2, 2), 2: P(-2, 1, 0)},
    {(0, 1): PolyLine([P(0, 0, 0), P(2, 1, 1), P(1, 2, 1), P(0, 0, 0), P(2, 2, 2)]),
     (0, 2): PolyLine([P(0, 0, 0), P(-2, 1, 0)])},
    box=8,
)


def _straight_arcs(*ends):
    """An embedding whose arcs are the given straight segments, one arc
    each, with a vertex at every end."""
    ids: dict = {}
    for p, q in ends:
        ids.setdefault(p, len(ids))
        ids.setdefault(q, len(ids))
    return SpatialEmbedding(
        {v: p for p, v in ids.items()},
        {(ids[p], ids[q]): PolyLine([p, q]) for p, q in ends},
        box=16,
    )


# one crossing on the first segment in sweep order at (11/2, 0); the
# second crossing there is on a segment that runs on its line in
# projection, so grouping its crossings by parameter alone finds one
_collinear_partner = _straight_arcs(
    (P(0, 0, 0), P(10, 0, 0)), (P(2, 0, 5), P(12, 0, 5)), (P(5, -5, 2), P(6, 5, 2))
)
# four segments through (2, 2), six crossings there
_four_through = _straight_arcs(
    (P(0, 0, 0), P(4, 4, 0)), (P(0, 4, 1), P(4, 0, 1)),
    (P(2, 0, 2), P(2, 4, 2)), (P(0, 2, 3), P(4, 2, 3)),
)
# the first segment crosses two at (6, 0), and so does the segment on its
# line that comes after it in sweep order: the point is reported once
_found_again = _straight_arcs(
    (P(0, 0, 0), P(10, 0, 0)), (P(2, 0, 5), P(12, 0, 5)),
    (P(5, -5, 2), P(7, 5, 2)), (P(6, -3, 3), P(6, 3, 4)),
)


@given(emb=_cube_embeddings())
@example(emb=_collinear_partner)
@example(emb=_four_through)
@example(emb=_found_again)
@example(emb=_triple)
@example(emb=_fan)
@example(emb=_meet_at_crossing)
@example(emb=_touch_meet)
@example(emb=_collinear_fork)
@example(emb=_bend_on_bend)
@example(emb=_bend_at_tail)
@settings(max_examples=300, deadline=None)
def test_validation_matches_rational_reference(emb):
    assert validate_general_position(emb) == validate_reference(emb)


def _outcome(fn, loops):
    try:
        return fn(loops)
    except DilinkError as ex:
        return type(ex), str(ex), getattr(ex, "violations", None)


@given(loops=st.lists(st.lists(_small_pt, min_size=3, max_size=6), min_size=1, max_size=3))
@example(loops=[[P(0, 0, 0), P(2, 2, 0), P(2, 0, 0)], [P(0, 2, 1), P(2, 0, 1), P(0, 0, 1)],
                [P(1, -1, 2), P(1, 3, 2), P(3, 3, 2)]])
# the first two segments meet in space where their projections cross
@example(loops=[[P(0, 0, 0), P(3, 3, 3), P(3, 0, 3)], [P(0, 3, 3), P(3, 0, 0), P(0, 0, -2)]])
# a tangency (loop 1's corner over loop 0's first side) comes before, in
# pair order, a space meet (loop 1's corner (2,4,0) on loop 0's third side)
@example(loops=[[P(0, 0, 0), P(4, 0, 0), P(4, 4, 0), P(0, 4, 0)],
                [P(2, 0, 5), P(6, 2, 5), P(2, 4, 0)]])
# the loop's last and first segments run on one line in projection, on
# in one direction, then folding back
@example(loops=[[P(0, 0, 0), P(2, 0, 1), P(1, 1, 0), P(-2, 0, 2)]])
@example(loops=[[P(0, 0, 0), P(2, 0, 1), P(1, 1, 0), P(3, 0, 2)]])
# the triple points of _collinear_partner, _four_through and _found_again,
# each segment closed into a loop
@example(loops=[[P(5, -5, 2), P(6, 5, 2), P(6, 9, 2)], [P(0, 0, 0), P(10, 0, 0), P(5, -8, 1)],
                [P(2, 0, 5), P(12, 0, 5), P(7, 9, 5)]])
@example(loops=[[P(0, 0, 0), P(4, 4, 0), P(4, -3, 0)], [P(0, 4, 1), P(4, 0, 1), P(-2, -3, 1)],
                [P(2, 0, 2), P(2, 4, 2), P(9, 9, 2)], [P(0, 2, 3), P(4, 2, 3), P(9, -9, 3)]])
@example(loops=[[P(5, -5, 2), P(7, 5, 2), P(7, 9, 2)], [P(6, -3, 3), P(6, 3, 4), P(-1, -9, 4)],
                [P(0, 0, 0), P(10, 0, 0), P(5, -8, 1)], [P(2, 0, 5), P(12, 0, 5), P(7, 9, 5)]])
@settings(max_examples=300, deadline=None)
def test_diagram_matches_rational_reference(loops):
    assert _outcome(project_to_diagram, loops) == _outcome(diagram_reference, loops)


def test_triple_points_are_reported_once_at_their_first_crossings():
    for emb, where, point in (
        (_collinear_partner, ((0, 1), 0, (4, 5), 0, (2, 3), 0, (4, 5), 0), "(11, 2), Fraction(0, 1)"),
        (_four_through, ((0, 1), 0, (2, 3), 0, (0, 1), 0, (4, 5), 0), "(2, 1), Fraction(2, 1)"),
        (_found_again, ((0, 1), 0, (4, 5), 0, (0, 1), 0, (6, 7), 0), "(6, 1), Fraction(0, 1)"),
    ):
        triples = [v for v in validate_general_position(emb).violations if v.kind == "triple-point"]
        assert [(v.where, v.detail) for v in triples] == [(where, f"at (Fraction{point})")]


@pytest.mark.parametrize("far_y,triple", [(2, False), (1, True)])
def test_crossings_whose_parameters_round_to_one_float(far_y, triple):
    # crossings on one segment are grouped by their exact parameter, not
    # by its float.  f runs along the diagonal of the whole box; g crosses
    # it at (1, 1)/(k - 1), and h from (1, 0) to (3 - k, far_y) crosses it
    # at (2, 2)/k when far_y = 2, or through g's crossing when far_y = 1.
    # Both parameters along f are 1/2 plus less than 2**-59, so they round
    # to one float whether or not they are equal.
    b, k = 2**30, 2**29
    ends = [(P(-b, -b, 0), P(b, b, 0)), (P(0, -1, 1), P(1, k - 1, 1)),
            (P(1, 0, 2), P(3 - k, far_y, 2))]
    emb = SpatialEmbedding(
        {v: p for v, p in enumerate(p for end in ends for p in end)},
        {(2 * i, 2 * i + 1): PolyLine(end) for i, end in enumerate(ends)},
        box=b,
    )
    t_g = (Fraction(1, k - 1) + b) / (2 * b)
    t_h = t_g if triple else (Fraction(2, k) + b) / (2 * b)
    assert float(t_g) == float(t_h) == 0.5
    report = validate_general_position(emb)
    assert report == validate_reference(emb)
    assert report.kinds() == (("triple-point",) if triple else ())


def _weave(k: int) -> SpatialEmbedding:
    """k arcs running along x above k arcs running along y, each tilted by
    one step so that no segment is axis-parallel: every pair crosses once
    in projection, at its own point, so each segment has k crossings."""
    half = k + 2
    vertices, arcs = {}, {}
    for i in range(k):
        w = 2 * i - k
        for v, a, b in ((4 * i, (-half, w, i + 1), (half, w + 1, i + 1)),
                        (4 * i + 2, (w, -half, -i - 1), (w + 1, half, -i - 1))):
            vertices[v], vertices[v + 1] = Point3(*a), Point3(*b)
            arcs[(v, v + 1)] = PolyLine([Point3(*a), Point3(*b)])
    return SpatialEmbedding(vertices, arcs, box=2 * half)


def test_validation_memory_stays_small():
    # 240 segments and 14 400 crossings in projection, 120 per segment
    # (lemma1_dk6m(4) has 65); validation keeps none of them past their
    # segment, where a list of every crossing peaks above 4 MiB
    emb = _weave(120)
    tracemalloc.start()
    try:
        assert validate_general_position(emb).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_validating_a_valid_embedding_builds_no_fraction(monkeypatch, grid13, bigz_n2):
    def refuse(*args):
        raise AssertionError("Fraction built while validating a valid embedding")

    monkeypatch.setattr(geom, "Fraction", refuse)
    for emb in (grid13.embedding, bigz_n2.embedding, lemma1_dk6m(2, seed=5).embedding):
        assert validate_general_position(emb).ok

    # on a complete digraph's embedding every pair is decided by the
    # walk's fast path: a strict side, a proper crossing, a joint or a fork
    # at a permitted end
    calls = _count_calls(monkeypatch, "seg2_relation", "seg3_relation")
    assert validate_general_position(lemma1_dk6m(2, seed=5).embedding).ok
    assert calls == []


def _count_calls(monkeypatch, *names):
    """Record in the returned list the name of each call to the named
    ``geom`` functions."""
    calls = []

    def counted(name, fn):
        def run(*args):
            calls.append(name)
            return fn(*args)
        return run

    for name in names:
        monkeypatch.setattr(geom, name, counted(name, getattr(geom, name)))
    return calls


def test_big_z_settles_every_arc_pair_in_the_walk(monkeypatch):
    # a bigz and its replay on a valid instance: every segment pair is a
    # strict side, a proper crossing or a joint
    calls = _count_calls(monkeypatch, "seg2_relation", "seg3_relation")
    inst = big_z_instance(16, seed=5)
    table = LinkTable(inst.embedding)
    res = big_z(inst.role("keys"), inst.role("rings"), table)
    replay_certificate(res.certificate, table)
    assert table._pairs and calls == []


def _random_arc(rng, n):
    # small coordinates, so vertical segments, shared lines, end touches
    # and meets in space are common; no point repeats the one before it
    pts = [P(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))]
    while len(pts) < n:
        p = P(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
        if p != pts[-1]:
            pts.append(p)
    return pts


def test_arc_pair_crossings_match_the_reference():
    rng = random.Random(20181)
    seen = set()
    for _ in range(3000):
        pe, pf = _random_arc(rng, rng.randint(2, 4)), _random_arc(rng, rng.randint(2, 4))
        outcomes = []
        for fn, args in ((arc_pair_crossings, (arc_strands("e", pe), arc_strands("f", pf))),
                         (arc_pair_crossings_reference, ("e", pe, "f", pf))):
            try:
                outcomes.append(("total", fn(*args)))
            except DilinkError as ex:
                outcomes.append((type(ex), str(ex), getattr(ex, "violations", None)))
        assert outcomes[0] == outcomes[1], (pe, pf)
        got = outcomes[0]
        if got[0] == "total":
            seen.add("crossings" if got[1] else "no crossings")
        elif got[0] is DegenerateProjection:
            seen.add(got[2][0].kind)
        else:
            seen.add(got[1])
    # every branch was taken
    assert seen == {"crossings", "no crossings", "arcs e and f meet in space",
                    "segments meet in space where their projections cross",
                    "projection-touch", "projection-overlap"}


def test_seg3_endpoint_meets_return_the_endpoint():
    # interior of one segment against an end of the other, both ways, and
    # a shared corner: the point is the lattice end itself
    for args, end in (
        ((P(0, 0, 0), P(4, 0, 0), P(2, 0, 0), P(2, 3, 1)), P(2, 0, 0)),
        ((P(2, 0, 0), P(2, 3, 1), P(0, 0, 0), P(4, 0, 0)), P(2, 0, 0)),
        ((P(0, 0, 0), P(3, 1, 0), P(3, 1, 0), P(3, 5, 2)), P(3, 1, 0)),
        ((P(0, 0, 0), P(2, 0, 0), P(5, 0, 0), P(2, 0, 0)), P(2, 0, 0)),
    ):
        kind, pt = seg3_relation(*args)
        assert kind == "point" and pt == end
        assert all(type(c) is int for c in pt)


@given(loops=st.lists(st.lists(_small_pt, min_size=3, max_size=6), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_arc_pair_crossings_match_the_diagram(loops):
    # each closed loop run as one arc from its first point back to it
    diagram = _outcome(project_to_diagram, loops)
    if not isinstance(diagram, LinkDiagram):
        return
    arcs = [arc_strands(k, lp + [lp[0]]) for k, lp in enumerate(loops)]
    between = sum(sign for over, under, sign in diagram.crossings if over != under)
    assert arc_pair_crossings(*arcs) == between


# ---------------------------------------------------------------------------
# diagrams


def test_hand_hopf_has_two_equal_sign_crossings():
    a, b = hand_hopf()
    d = project_to_diagram([a, b])
    inter = [sign for over, under, sign in d.crossings if over != under]
    assert len(inter) == 2
    assert abs(sum(inter)) == 2


def test_planar_square_has_no_crossings():
    d = project_to_diagram([square_loop()])
    assert d.crossings == ()


def test_diagram_is_deterministic(trefoil_points):
    d1 = project_to_diagram([trefoil_points])
    d2 = project_to_diagram([trefoil_points])
    assert d1 == d2
    assert len(d1.crossings) == 3


def test_project_rejects_intersecting_loops():
    sq = square_loop(z=0)
    with pytest.raises(DisjointnessViolated):
        project_to_diagram([sq, square_loop(z=0, dx=5)])


def test_project_rejects_vertical_segment():
    loop = (P(0, 0, 0), P(4, 0, 0), P(4, 0, 3), P(0, 2, 1))
    with pytest.raises(DegenerateProjection):
        project_to_diagram([loop])


def test_project_rejects_shadow_overlap():
    # stacked identical squares: every segment overlaps in projection
    with pytest.raises(DegenerateProjection):
        project_to_diagram([square_loop(z=0), square_loop(z=7)])


def test_gauss_code_passes_each_crossing_over_and_under(trefoil_points):
    # a three-crossing knotted diagram alternates over and under along
    # the walk, and each pass carries its crossing's sign
    d = project_to_diagram([trefoil_points])
    (code,) = d.gauss
    assert sorted((k, over) for k, over, _ in code) == [
        (k, over) for k in range(3) for over in (False, True)
    ]
    assert [over for _, over, _ in code] == [code[0][1], not code[0][1]] * 3
    assert all(sign == d.crossings[k][2] for k, _, sign in code)


# ---------------------------------------------------------------------------
# shearing


def test_shear_points_formula():
    pts = shear_points([P(1, 2, 3)], kx=10, ky=-2)
    assert pts == (P(31, -4, 3),)


def test_gentle_shear_keeps_crossing_structure(trefoil_points):
    base = project_to_diagram([trefoil_points])
    assert len(base.crossings) == 3
    for kx, ky in ((1, 0), (0, 1), (1, 1), (2, 1)):
        tilted = project_to_diagram([shear_points(trefoil_points, kx, ky)])
        assert sorted(tilted.crossings) == sorted(base.crossings)


def test_strong_shear_adds_cancelling_pairs(trefoil_points):
    # a steep tilt creates extra crossings, but only in +/- pairs
    tilted = project_to_diagram([shear_points(trefoil_points, 7, 3)])
    base = project_to_diagram([trefoil_points])
    assert len(tilted.crossings) > len(base.crossings)
    assert sum(sign for _, _, sign in tilted.crossings) == sum(
        sign for _, _, sign in base.crossings
    )


def test_shear_embedding_keeps_heights(grid13):
    emb = shear(grid13.embedding, kx=3, ky=2)
    for vid, p in grid13.embedding.vertices.items():
        assert emb.vertices[vid].z == p.z
    assert validate_general_position(emb).ok


def test_shear_overflow_guard():
    with pytest.raises(CoordinateOverflow):
        shear_points([P(0, 0, 2)], kx=COORD_LIMIT)


def test_shear_can_fix_degenerate_projection():
    # stacked squares overlap in the shadow until tilted
    loops = [square_loop(z=0), square_loop(z=7)]
    with pytest.raises(DegenerateProjection):
        project_to_diagram(loops)
    tilted = [shear_points(lp, 1, 2) for lp in loops]
    d = project_to_diagram(tilted)
    assert sum(sign for over, under, sign in d.crossings if over != under) == 0  # split pair
