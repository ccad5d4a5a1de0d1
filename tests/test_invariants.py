"""Linking numbers and the second Conway coefficient against known links.

Expected values were fixed ahead of time from standard knot tables
(unknot 0, trefoil 1, figure-eight -1, 5_2 and the granny/square family
2, (3,4) torus knot 5, (2,q) torus family (q^2-1)/8, (3,q) torus family
(q^2-1)/3) and every knot case is run through all three independent
routes: pair count, Alexander matrix and skein.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import dilink
from dilink.digraph import realize
from dilink.errors import TooLarge
from dilink.geom import Point3, PolyLine, SpatialEmbedding, check_loops_disjoint, shear_points
from dilink.invariants import (
    LinkTable,
    a2,
    a2_alexander,
    a2_routes,
    a2_skein,
    conway_from_diagram,
    linking_number,
    linking_table,
    project_with_retry,
    shear_schedule,
)
from dilink.workbench.generators import (
    big_z_instance,
    braid_closure,
    braid_instance,
    coiled_braid_pair,
    grid_link,
    prop1_instance,
    ring_wrap_instance,
    torus_style,
)

from conftest import hand_hopf, square_loop
from geom_reference import shear

# braid word, strands, expected second Conway coefficient
KNOT_CORPUS = [
    ("wiggled unknot", [1, 1, -1], 2, 0),
    ("trefoil", [1, 1, 1], 2, 1),
    ("trefoil, 3 strands", [1, 2, 1, 2], 3, 1),
    ("figure eight", [1, -2, 1, -2], 3, -1),
    ("(2,5) torus", [1] * 5, 2, 3),
    ("(2,7) torus", [1] * 7, 2, 6),
    ("square knot", [1, 1, 1, -2, -2, -2], 3, 2),
    ("(3,4) torus", [1, 2] * 4, 3, 5),
    ("5_2 twist knot", [1, 1, 1, 2, -1, 2], 3, 2),
]


# ---------------------------------------------------------------------------
# linking numbers


def test_hand_hopf_linking():
    a, b = hand_hopf()
    assert linking_number(a, b) == -1
    assert linking_number(b, a) == -1
    assert linking_number(a, b) & 1 == 1


def test_split_pair_unlinked():
    a = square_loop(z=0)
    b = square_loop(z=7, dx=40)
    assert linking_number(a, b) == 0
    assert linking_number(a, b) & 1 == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_two_strand_torus_links(k):
    inst = torus_style(2, 2 * k)
    loops = [realize(c, inst.embedding) for c in inst.role("components")]
    assert len(loops) == 2
    assert abs(linking_number(loops[0], loops[1])) == k


def test_linking_table_matches_pairwise(grid22):
    cycles = grid22.role("rings") + grid22.role("keys")
    loops = [realize(c, grid22.embedding) for c in cycles]
    table = linking_table(loops)
    assert set(table) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    for (i, j), lk in table.items():
        assert linking_number(loops[i], loops[j]) == lk


def test_grid13_table(grid13):
    cycles = grid13.role("rings") + grid13.role("keys")
    links = LinkTable(grid13.embedding)
    table = {(i, j): links.lk(cycles[i], cycles[j]) for i in range(4) for j in range(i + 1, 4)}
    assert table == {
        (0, 1): 1,
        (0, 2): 1,
        (0, 3): 1,
        (1, 2): 0,
        (1, 3): 0,
        (2, 3): 0,
    }


def test_linking_is_reversal_antisymmetric():
    a, b = hand_hopf()
    assert linking_number(a[::-1], b) == 1
    assert linking_number(a[::-1], b[::-1]) == -1


# ---------------------------------------------------------------------------
# the arc-pair table against the diagram route


STORED_CYCLE_FILES = {
    "grid_link": lambda: grid_link(2, [(0, 1), (1, 1)]),
    "big_z": lambda: big_z_instance(4, seed=1),
    "prop1": lambda: prop1_instance(2),
    "ring_wrap": lambda: ring_wrap_instance(4, 5),
    "coiled_braid": lambda: coiled_braid_pair(4),
    "braid_link": lambda: braid_instance([1, 1, 1, 1, 2, -1, 2], 3),
}


@pytest.mark.parametrize("kind", sorted(STORED_CYCLE_FILES))
def test_table_matches_linking_table_on_stored_cycles(kind):
    inst = STORED_CYCLE_FILES[kind]()
    cycles = [c for role in inst.cycles.values() for c in role]
    for kx, ky in [(0, 0), (1, 2), (-3, 1)]:
        emb = shear(inst.embedding, kx, ky)
        want = linking_table([realize(c, emb) for c in cycles])
        assert any(want.values())
        table = LinkTable(emb)
        for (i, j), lk in want.items():
            assert table.lk(cycles[i], cycles[j]) == lk


# ---------------------------------------------------------------------------
# a2, all three routes


@pytest.mark.parametrize("name,word,strands,expected", KNOT_CORPUS)
def test_a2_corpus(name, word, strands, expected):
    (loop,) = braid_closure(word, strands)
    assert a2(loop) == expected, name
    assert a2_alexander(loop) == expected, name
    assert a2_skein(loop) == expected, name


def test_a2_orientation_and_start_invariance(trefoil_points):
    rotated = trefoil_points[5:] + trefoil_points[:5]
    for route in (a2, a2_alexander):
        assert route(trefoil_points[::-1]) == 1
        assert route(rotated) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_a2_shear_invariance(figure8_points, kx, ky):
    assert a2_routes(shear_points(figure8_points, kx, ky)) == (-1, -1)


def _braid_knot_words(rng, count):
    """Seeded braid words on 2-4 strands whose closure is one loop."""
    out = []
    while len(out) < count:
        strands = rng.choice((2, 3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 10))]
        perm = list(range(strands))
        for g in word:
            perm[abs(g) - 1], perm[abs(g)] = perm[abs(g)], perm[abs(g) - 1]
        i, cycle = perm[0], 1
        while i != 0:
            i, cycle = perm[i], cycle + 1
        if cycle == strands:
            out.append((word, strands))
    return out


def test_a2_routes_agree_on_braid_and_torus_knots_under_shears():
    # torus knots carry a known value at every size; random braid knots
    # only the agreement of the routes.  The skein, whose cost grows about
    # 2.5x per crossing, checks every diagram of at most 12 crossings and
    # the first one of each size from 13 to 16.
    rng = random.Random(8)
    corpus = [([1] * q, 2, (q * q - 1) // 8) for q in range(3, 16, 2)]
    corpus += [([1, 2] * q, 3, (q * q - 1) // 3) for q in (1, 2, 4, 5, 7)]
    corpus += [(w, p, None) for w, p in _braid_knot_words(rng, 30)]
    skein_sizes: set[int] = set()
    above_16 = 0
    for word, strands, expected in corpus:
        (loop,) = braid_closure(word, strands)
        for kx, ky in [(0, 0)] + [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]:
            diagram = project_with_retry([shear_points(loop, kx, ky)]).diagram
            value = a2(diagram)
            assert a2_alexander(diagram) == value, (word, kx, ky)
            if expected is not None:
                assert value == expected, (word, kx, ky)
            crossings = len(diagram.crossings)
            if crossings > 16:
                above_16 += 1
            elif crossings <= 12 or crossings not in skein_sizes:
                assert a2_skein(diagram) == value, (word, kx, ky)
                skein_sizes.add(crossings)
    assert skein_sizes >= set(range(3, 17)) and above_16 >= 40, (skein_sizes, above_16)


def test_a2_routes_project_once(monkeypatch, trefoil_points):
    import dilink.invariants as inv

    calls = []
    real = inv.project_to_diagram
    monkeypatch.setattr(inv, "project_to_diagram", lambda loops: calls.append(1) or real(loops))
    assert a2_routes(trefoil_points) == (1, 1)
    assert len(calls) == 1


def test_invariants_walks_a_braid_knot_once(monkeypatch, tmp_path, capsys):
    # the table's self-check walk records the crossings that the knot's
    # diagram is read from, so a2 costs no second walk
    import dilink.geom as geom
    from dilink.workbench.cli import main

    path = str(tmp_path / "knot.json")
    assert main(["gen", "--kind", "braid", "--word=1,1,1,2,-1,2", "--p", "3", "--out", path]) == 0
    capsys.readouterr()
    calls = []
    walk = geom._pair_walk
    monkeypatch.setattr(geom, "_pair_walk", lambda *args: calls.append(1) or walk(*args))
    assert main(["invariants", path]) == 0
    assert json.loads(capsys.readouterr().out)["knotting"] == [
        {"cycle": 0, "a2": 2, "a2_alexander": 2}
    ]
    assert len(calls) == 1


@pytest.mark.parametrize("kx,ky", [(0, 0), (3, -2)])
def test_table_diagram_is_the_projected_diagram(kx, ky):
    for _, word, strands, expected in KNOT_CORPUS:
        inst = braid_instance(word, strands)
        table = LinkTable(shear(inst.embedding, kx, ky))
        (c,) = inst.role("components")
        diagram = table.diagram(c)
        assert diagram == project_with_retry([realize(c, table.emb)]).diagram, word
        assert a2_routes(diagram) == (expected, expected), word


def test_table_diagram_shears_past_a_vertical_segment():
    # the figure eight with a vertical step at the start of its first arc:
    # the self-check records no diagram, and the table projects under the
    # first generic shear instead
    inst = braid_instance([1, -2, 1, -2], 3)
    (c,) = inst.role("components")
    pts = list(inst.embedding.arcs[c.arc(0)].points)
    pts.insert(1, Point3(pts[0].x, pts[0].y, pts[0].z + 1))
    arcs = {**inst.embedding.arcs, c.arc(0): PolyLine(pts)}
    table = LinkTable(SpatialEmbedding(inst.embedding.vertices, arcs, box=inst.embedding.box))
    assert check_loops_disjoint([realize(c, table.emb).points]) is None
    diagram = table.diagram(c)
    assert diagram == project_with_retry([realize(c, table.emb)]).diagram
    assert a2_routes(diagram) == (-1, -1)


def test_interleaved_sums_need_single_loop():
    a, b = hand_hopf()
    diagram, _ = project_with_retry([a, b])
    for route in (a2, a2_alexander, a2_skein):
        with pytest.raises(ValueError):
            route(diagram)


def test_a2_square_is_planar():
    assert a2_routes(square_loop()) == (0, 0)
    assert a2_skein(square_loop()) == 0


# ---------------------------------------------------------------------------
# Conway polynomials


def conway(loops, max_crossings=16):
    return conway_from_diagram(project_with_retry(loops).diagram, max_crossings)


def test_conway_known_polynomials(trefoil_points, figure8_points, hopf_points):
    assert conway([square_loop()]) == {0: 1}
    assert conway([trefoil_points]) == {0: 1, 2: 1}
    assert conway([figure8_points]) == {0: 1, 2: -1}
    assert conway(list(hopf_points)) == {1: 1}
    split = [square_loop(z=0), square_loop(z=7, dx=40)]
    assert conway(split) == {}


def test_conway_respects_crossing_bound(trefoil_points):
    with pytest.raises(TooLarge):
        conway([trefoil_points], max_crossings=2)
    with pytest.raises(TooLarge):
        a2_skein(trefoil_points, max_crossings=2)


def test_conway_of_two_strand_torus_links():
    # the (2,4) torus link has Conway polynomial z^3 + 2z
    inst = torus_style(2, 4)
    loops = [realize(c, inst.embedding) for c in inst.role("components")]
    poly = conway(loops)
    assert set(poly) <= {1, 3}
    assert abs(poly.get(1, 0)) == 2 and abs(poly.get(3, 0)) == 1


# ---------------------------------------------------------------------------
# projection retry


def test_shear_schedule_shape():
    sched = shear_schedule(6)
    assert sched == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(shear_schedule(50)) == 50


def test_retry_skips_degenerate_projections():
    # stacked identical squares project on top of each other until sheared
    loops = [square_loop(z=0), square_loop(z=7)]
    result = project_with_retry(loops)
    assert result.shear != (0, 0)
    assert linking_number(*loops) == 0


def test_retry_keeps_plain_projection(trefoil_points):
    result = project_with_retry([trefoil_points])
    assert result.shear == (0, 0)


def test_retry_needs_a_loop():
    with pytest.raises(ValueError):
        project_with_retry([])


# ---------------------------------------------------------------------------
# result guards


def test_result_guards_survive_python_O():
    # an odd crossing sum between two components, a realized arc that
    # does not start at its cycle's vertex, and a heavy vector handed a
    # zero column past its BadColumn check, so that it ends lighter than
    # half the columns, must still raise under -O
    script = textwrap.dedent(
        """
        import sys
        import dilink.invariants as inv
        import dilink.z2linalg as z2
        from dilink.digraph import DiCycle, realize
        from dilink.errors import Impossible
        from dilink.geom import LinkDiagram, Point3, PolyLine, SpatialEmbedding

        print(sys.flags.optimize)
        lone = LinkDiagram(((0, 1, 1),), (((0, True, 1),), ((0, False, 1),)))
        inv.project_with_retry = lambda loops: inv.ProjectionResult(lone, (0, 0))
        try:
            inv.linking_table([(), ()])
        except Impossible:
            print("Impossible")

        v = {0: Point3(0, 0, 0), 1: Point3(4, 0, 1), 2: Point3(0, 4, 2)}
        arcs = {(0, 1): PolyLine([v[0], v[1]]), (1, 2): PolyLine([v[1], v[2]]),
                (2, 0): PolyLine([v[2], v[0]])}
        emb = SpatialEmbedding(v, arcs, box=8)
        emb.arcs[(1, 2)] = PolyLine([v[0], v[2]])
        try:
            realize(DiCycle((0, 1, 2), (True, True, True)), emb)
        except ValueError:
            print("ValueError")

        z2.Z2Matrix.zero_columns = lambda self: []
        try:
            z2.heavy_vector(z2.Z2Matrix((0,), 1), 0)
        except Impossible:
            print("Impossible")
        """
    )
    src = os.path.dirname(os.path.dirname(dilink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["1", "Impossible", "ValueError", "Impossible"]
