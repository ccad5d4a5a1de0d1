"""Shared fixtures: small hand-built geometry plus a few generated
instances that several test modules reuse."""

import pytest

from dilink.digraph import DiCycle
from dilink.geom import Point3, PolyLine, SpatialEmbedding
from dilink.workbench.generators import (
    big_z_instance,
    bipar_instance,
    braid_closure,
    coiled_braid_pair,
    grid_link,
    ring_wrap_instance,
)


def square_loop(z=0, half=5, dx=0, dy=0):
    """Axis-aligned square in the plane of height z, as a closed tuple."""
    return (
        Point3(-half + dx, -half + dy, z),
        Point3(half + dx, -half + dy, z),
        Point3(half + dx, half + dy, z),
        Point3(-half + dx, half + dy, z),
    )


def hand_hopf():
    """Two quadrilaterals meeting like clasped rings: lk = -1 by construction.

    Loop b dives under the low edge of loop a and comes back over it, never
    meeting the rest of a's shadow, so the diagram has exactly two
    inter-component crossings of equal sign.
    """
    a = (
        Point3(-8, 0, -1),
        Point3(8, 0, -1),
        Point3(8, 4, 9),
        Point3(-8, 4, 9),
    )
    b = (
        Point3(0, -6, 3),
        Point3(2, 2, 3),
        Point3(3, 2, -4),
        Point3(1, -6, -4),
    )
    return a, b


def clasped_triangles(bend):
    """Triangle A = (0, 1, 2) in the plane z = 0, and triangle B = (3, 4, 5)
    that passes once through A's disk.  Arc (4, 5) runs through the bend
    points ``bend``; with the default bend its corner at (5, 0, -5) lies
    under A's edge (0, 1), a touch in the identity projection."""
    v = {
        0: Point3(0, 0, 0),
        1: Point3(10, 0, 0),
        2: Point3(0, 10, 0),
        3: Point3(1, 2, 5),
        4: Point3(3, 2, -5),
        5: Point3(5, -8, -5),
    }
    arcs = {
        (0, 1): PolyLine([v[0], v[1]]),
        (1, 2): PolyLine([v[1], v[2]]),
        (2, 0): PolyLine([v[2], v[0]]),
        (3, 4): PolyLine([v[3], v[4]]),
        (4, 5): PolyLine([v[4], *bend, v[5]]),
        (5, 3): PolyLine([v[5], v[3]]),
    }
    emb = SpatialEmbedding(vertices=v, arcs=arcs, box=64)
    tri_a = DiCycle((0, 1, 2), (True, True, True))
    tri_b = DiCycle((3, 4, 5), (True, True, True))
    return emb, tri_a, tri_b


@pytest.fixture(scope="session")
def trefoil_points():
    (loop,) = braid_closure([1, 1, 1], 2)
    return loop


@pytest.fixture(scope="session")
def figure8_points():
    (loop,) = braid_closure([1, -2, 1, -2], 3)
    return loop


@pytest.fixture(scope="session")
def hopf_points():
    return tuple(braid_closure([1, 1], 2))


@pytest.fixture(scope="session")
def grid13():
    # one ring threaded by three keys
    return grid_link(1, [(0, 0)] * 3)


@pytest.fixture(scope="session")
def grid22():
    # two rings, two keys, key i through ring i only
    return grid_link(2, [(0, 0), (1, 1)])


@pytest.fixture(scope="session")
def bigz_n2():
    return big_z_instance(2)


@pytest.fixture(scope="session")
def bipar111():
    return bipar_instance(1, 1, 1, 6, 36)


@pytest.fixture(scope="session")
def wrap45():
    return ring_wrap_instance(key_count=4, wrap_turns=5)


@pytest.fixture(scope="session")
def coil4():
    return coiled_braid_pair(4)


def tiny_embedding():
    """Two vertices joined both ways by disjoint bent arcs."""
    v = {0: Point3(0, 0, 0), 1: Point3(10, 0, 0)}
    arcs = {
        (0, 1): PolyLine([v[0], Point3(5, 3, 1), v[1]]),
        (1, 0): PolyLine([v[1], Point3(5, -3, -1), v[0]]),
    }
    return SpatialEmbedding(vertices=v, arcs=arcs, box=64)
