"""Cycles with per-edge arc choices, directionality, surgery, connectors."""

import pytest
from hypothesis import given, strategies as st

from dilink.digraph import (
    DiCycle,
    connector_arcs,
    connector_cycle,
    direction_change_vertices,
    directionality,
    extra_count,
    nabla,
    nabla_eps,
    realize,
    u_to_w_paths,
)
from dilink.errors import (
    DisjointnessViolated,
    HypothesisViolated,
    MissingArc,
    NotACycle,
    NotApplicable,
)

T, F = True, False


def cyc(verts, ecs):
    return DiCycle(tuple(verts), tuple(ecs))


# ---------------------------------------------------------------------------
# DiCycle basics


def test_cycle_rotates_to_smallest_vertex():
    c = cyc((2, 0, 1), (T, F, T))
    assert c.vertices == (0, 1, 2)
    assert c.edge_choices == (F, T, T)
    assert c == cyc((0, 1, 2), (F, T, T))
    assert hash(c) == hash(cyc((0, 1, 2), (F, T, T)))


def test_cycle_rejects_bad_input():
    with pytest.raises(NotACycle):
        cyc((0, 1), (T, T))
    with pytest.raises(NotACycle):
        cyc((0, 1, 1), (T, T, T))
    with pytest.raises(NotACycle):
        cyc((0, 1, 2), (T, T))


def test_steps_and_arcs():
    c = cyc((0, 1, 2), (T, F, T))
    assert [c.step(i) for i in range(3)] == [(0, 1), (1, 2), (2, 0)]
    assert c.arcs() == ((0, 1), (2, 1), (2, 0))
    assert c.arc(4) == (2, 1)
    assert c.vertex_set() == frozenset({0, 1, 2})


def test_reversal_keeps_arcs():
    c = cyc((0, 1, 2), (T, F, T))
    r = c.reversed()
    assert r.vertices == (0, 2, 1)
    assert r.arc_multiset() == c.arc_multiset()
    assert r.reversed() == c


def test_json_round_trip():
    c = cyc((0, 3, 7, 5), (T, F, F, T))
    assert DiCycle.from_json(c.to_json()) == c


# ---------------------------------------------------------------------------
# directionality


def test_directionality_hand_cases():
    assert directionality(cyc((0, 1, 2), (T, T, T))) == 1
    assert directionality(cyc((0, 1, 2), (F, F, F))) == 1
    assert directionality(cyc((0, 1, 2), (T, T, F))) == 2
    assert directionality(cyc((0, 1, 2, 3), (T, F, T, F))) == 4
    assert directionality(cyc(range(6), (T, T, F, T, F, F))) == 4


def test_direction_change_vertices_order():
    # first vertex listed has both cycle edges pointing out of it
    assert direction_change_vertices(cyc((0, 1, 2), (T, T, F))) == [0, 2]
    assert direction_change_vertices(cyc((0, 1, 2), (T, F, T))) == [2, 1]
    with pytest.raises(NotApplicable):
        direction_change_vertices(cyc((0, 1, 2), (T, T, T)))


def test_u_to_w_paths():
    along, against = u_to_w_paths(cyc((0, 1, 2, 3, 4), (T, T, T, F, F)))
    assert along == (0, 1, 2, 3)
    assert against == (0, 4, 3)
    for bad in (cyc((0, 1, 2), (T, T, T)), cyc((0, 1, 2, 3), (T, F, T, F))):
        with pytest.raises(NotApplicable):
            u_to_w_paths(bad)


# ---------------------------------------------------------------------------
# surgery


def test_nabla_square_with_triangle():
    j = cyc((0, 1, 2, 3), (T, T, T, T))
    l = cyc((1, 2, 4), (T, T, T))  # shares the single arc (1, 2)
    out = nabla(j, l)
    assert out == cyc((0, 1, 4, 2, 3), (T, F, F, T, T))
    assert (1, 2) not in out.arc_multiset()
    assert directionality(out) == 2


def test_nabla_eps_zero_is_identity():
    j = cyc((0, 1, 2), (T, T, F))
    assert nabla_eps(j, cyc((3, 4, 5), (T, T, T)), 0) is j


def test_nabla_orientation_follows_first_argument():
    j = cyc((0, 1, 2, 3), (T, T, T, T))
    l = cyc((1, 2, 4), (T, T, T))
    assert nabla(j.reversed(), l) == nabla(j, l).reversed()


def test_nabla_shared_path_of_two_arcs():
    j = cyc((0, 1, 2, 3), (T, T, T, T))
    l = cyc((0, 1, 2), (T, T, F))  # shares (0,1) and (1,2)
    out = nabla(j, l)
    assert out == cyc((0, 2, 3), (T, T, T))
    assert directionality(out) == 1


def test_nabla_rejects_disjoint_cycles():
    with pytest.raises(NotACycle, match="share no arcs"):
        nabla(cyc((0, 1, 2), (T, T, T)), cyc((3, 4, 5), (T, T, T)))


def test_nabla_rejects_antiparallel_overlap():
    j = cyc((0, 1, 2, 3), (T, T, T, T))
    l = cyc((1, 2, 3), (T, F, T))  # shares (1,2) but covers {2,3} backwards
    with pytest.raises(NotACycle, match="antiparallel"):
        nabla(j, l)


def test_nabla_rejects_split_shared_path():
    j = cyc(range(6), (T,) * 6)
    l = cyc((0, 1, 3, 4), (T, T, T, T))  # shares (0,1) and (3,4) separately
    with pytest.raises(NotACycle, match="single path"):
        nabla(j, l)


def test_nabla_rejects_equal_cycles():
    j = cyc((0, 1, 2), (T, T, T))
    with pytest.raises(NotACycle):
        nabla(j, j)


def test_nabla_rejects_degree_violation():
    j = cyc(range(6), (T,) * 6)
    l = cyc((1, 2, 4, 6), (T, T, T, T))  # symmetric difference gives 4 at vertex 4
    with pytest.raises(NotACycle, match="degree"):
        nabla(j, l)


def test_nabla_eps_validates_eps():
    j = cyc((0, 1, 2, 3), (T, T, T, T))
    l = cyc((1, 2, 4), (T, T, T))
    assert nabla_eps(j, l, 1) == nabla(j, l)
    with pytest.raises(ValueError):
        nabla_eps(j, l, 2)


# ---------------------------------------------------------------------------
# connectors


def two_dir(a, b, c):
    """Triangle with u = a, w = c: paths a->b->c and a->c."""
    return cyc((a, b, c), (T, T, F))


def test_connector_one_directional():
    c = connector_cycle([two_dir(0, 1, 2), two_dir(3, 4, 5)])
    assert c == cyc(range(6), (T,) * 6)
    assert directionality(c) == 1


def test_connector_two_directional():
    c = connector_cycle([two_dir(0, 1, 2), two_dir(3, 4, 5)], delta=2)
    assert c == cyc(range(6), (T,) * 5 + (F,))
    # the direction changes sit at the first u and the last w
    assert direction_change_vertices(c) == [0, 5]


def test_connector_extra_path():
    c = connector_cycle(
        [two_dir(0, 1, 2), two_dir(3, 4, 5)], delta=4, extra_vertices=(6, 7)
    )
    # w_last -> x_1 and x_2 -> u_1 run against their arcs, x_1 -> x_2 along
    assert c == cyc(range(8), (T,) * 5 + (F, T, F))
    assert directionality(c) == 4
    changed = direction_change_vertices(c)
    assert set(changed) == {0, 5, 6, 7}

    c6 = connector_cycle(
        [two_dir(0, 1, 2), two_dir(3, 4, 5)], delta=6, extra_vertices=(6, 7, 8, 9)
    )
    assert directionality(c6) == 6


@pytest.mark.parametrize("delta", [1, 2, 4, 6, 8])
def test_closure_for_delta_reaches_its_directionality(delta):
    count = extra_count(delta)
    assert count == max(delta - 2, 0)
    cycles = [two_dir(3 * i, 3 * i + 1, 3 * i + 2) for i in range(3)]
    c = connector_cycle(cycles, delta, extra_vertices=range(9, 9 + count))
    assert directionality(c) == delta


@pytest.mark.parametrize("delta", [-2, 0, 3, 5])
def test_closure_for_delta_rejects_unreachable_directionality(delta):
    with pytest.raises(HypothesisViolated, match="1 or an even number >= 2"):
        extra_count(delta)
    with pytest.raises(HypothesisViolated, match="1 or an even number >= 2"):
        connector_arcs([(0, 2), (3, 5)], delta, ())


def test_connector_lex_policy_picks_smaller_path():
    # against-path (0, 2) beats along-path (0, 1, 2) lexicographically? no:
    # (0, 1, 2) < (0, 2), so lex keeps the long way here
    c = connector_cycle([two_dir(0, 1, 2), two_dir(3, 4, 5)], q_policy="lex")
    assert c.vertices[:3] == (0, 1, 2)
    # renaming the middle vertex above the end swaps the choice
    c2 = connector_cycle([two_dir(0, 5, 2), two_dir(3, 4, 6)], q_policy="lex")
    assert c2.vertices[:3] == (0, 2, 3)
    assert 5 not in c2.vertices


def test_connector_opposite_policy_and_orientations():
    cycles = [two_dir(0, 1, 2), two_dir(3, 4, 5)]
    c = connector_cycle(cycles, q_policy="opposite")
    assert c == cyc((0, 2, 3, 5), (T,) * 4)


def test_connector_rejects_bad_input():
    good = [two_dir(0, 1, 2), two_dir(3, 4, 5)]
    with pytest.raises(ValueError):
        connector_cycle(good[:1])
    with pytest.raises(ValueError):
        connector_cycle(good, q_policy="random")
    with pytest.raises(NotApplicable):
        connector_cycle([cyc((0, 1, 2), (T, T, T)), two_dir(3, 4, 5)])
    with pytest.raises(DisjointnessViolated):
        connector_cycle([two_dir(0, 1, 2), two_dir(2, 3, 4)])
    with pytest.raises(HypothesisViolated, match="1 or an even number >= 2"):
        connector_cycle(good, delta=3)
    with pytest.raises(HypothesisViolated, match="4 needs exactly 2 extra vertices, got 1"):
        connector_cycle(good, delta=4, extra_vertices=(6,))
    with pytest.raises(DisjointnessViolated):
        connector_cycle(good, delta=4, extra_vertices=(5, 6))
    with pytest.raises(HypothesisViolated, match="1 needs exactly 0 extra vertices, got 2"):
        connector_cycle(good, extra_vertices=(6, 7))


# ---------------------------------------------------------------------------
# realization


def test_realize_concatenates_arcs(grid13):
    emb = grid13.embedding
    ring = grid13.role("rings")[0]
    loop = realize(ring, emb)
    assert loop[0] == emb.vertices[ring.vertices[0]]
    assert len(loop) == sum(
        len(emb.arcs[ring.arc(i)]) - 1 for i in range(len(ring))
    )
    assert loop[0] != loop[-1]  # closed implicitly, not repeated


def test_realize_missing_arc(grid13):
    with pytest.raises(MissingArc):
        realize(cyc((90, 91, 92), (T, T, T)), grid13.embedding)


# ---------------------------------------------------------------------------
# properties

random_cycle = st.integers(4, 9).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)).map(tuple),
        st.lists(st.booleans(), min_size=n, max_size=n).map(tuple),
    )
).map(lambda vc: DiCycle(*vc))


@given(random_cycle)
def test_directionality_reversal_invariant(c):
    assert directionality(c) == directionality(c.reversed())
    assert c.reversed().reversed() == c
    assert c.reversed().arc_multiset() == c.arc_multiset()


@given(random_cycle, st.integers(0, 8))
def test_rotation_invariance(c, r):
    k = len(c.vertices)
    r %= k
    rotated = DiCycle(
        c.vertices[r:] + c.vertices[:r], c.edge_choices[r:] + c.edge_choices[:r]
    )
    assert rotated == c


@given(random_cycle)
def test_paths_partition_the_cycle(c):
    # the direction-change vertices cut the cycle into directionality(c)
    # maximal runs, each pointing one way along the traversal
    d = directionality(c)
    if d == 1:
        assert len(set(c.edge_choices)) == 1
        return
    changes = direction_change_vertices(c)
    assert len(changes) == d and d % 2 == 0
    k = len(c.vertices)
    cuts = sorted(c.vertices.index(v) for v in changes)
    for a, b in zip(cuts, cuts[1:] + [cuts[0] + k]):
        assert len({c.edge_choices[i % k] for i in range(a, b)}) == 1
        assert c.edge_choices[a] != c.edge_choices[a - 1]
