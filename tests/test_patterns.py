"""Link summaries, witness checks and keyring search."""

import pytest
from hypothesis import given, settings, strategies as st

from dilink.digraph import directionality
from dilink.errors import SearchBudgetExceeded
from dilink.invariants import LinkTable
from dilink.patterns import (
    CompleteBipartiteMod2,
    WeightedPattern,
    check_witness,
    compute_pattern,
    find_disjoint_keyrings,
)
from dilink.workbench.generators import braid_instance


# ---------------------------------------------------------------------------
# containers


def test_pattern_validation():
    with pytest.raises(ValueError):
        WeightedPattern(labels=("a", "b"), edges={(1, 0): 1})
    with pytest.raises(ValueError):
        WeightedPattern(labels=("a", "b"), edges={(0, 1): 0})
    with pytest.raises(ValueError):
        WeightedPattern(labels=("a", "b"), edges={(0, 2): 1})


def test_pattern_weight_lookup():
    p = WeightedPattern(labels=("a", "b", "c"), edges={(0, 2): 3})
    assert p.n == 3
    assert p.weight(0, 2) == 3
    assert p.weight(2, 0) == 3
    assert p.weight(0, 1) == 0
    assert p.weight(1, 1) == 0
    assert p.mod2_neighbors(0) == frozenset({2})
    assert p.mod2_neighbors(1) == frozenset()


def test_pattern_json_round_trip():
    p = WeightedPattern(
        labels=("a", "b", "c"),
        edges={(0, 1): 2, (1, 2): 1},
        knot_weights={0: 1, 1: 0, 2: 0},
        delta={0: 2, 1: 1, 2: 4},
    )
    assert WeightedPattern.from_json(p.to_json()) == p
    bare = WeightedPattern(labels=("a",))
    assert WeightedPattern.from_json(bare.to_json()) == bare
    assert WeightedPattern.from_json(bare.to_json()).knot_weights is None


# ---------------------------------------------------------------------------
# pattern computation


def test_compute_pattern_grid(grid13):
    cycles = grid13.role("rings") + grid13.role("keys")
    p = compute_pattern(cycles, LinkTable(grid13.embedding))
    assert p.labels == ("c0", "c1", "c2", "c3")
    assert p.edges == {(0, 1): 1, (0, 2): 1, (0, 3): 1}
    assert p.knot_weights is None
    assert p.delta == {i: directionality(c) for i, c in enumerate(cycles)}


def test_compute_pattern_with_knotting():
    # a trefoil on strands 1-2 and an unlinked unknot on strand 3
    inst = braid_instance([1, 1, 1], 3)
    cycles = inst.role("components")
    p = compute_pattern(cycles, LinkTable(inst.embedding), with_knotting=True)
    assert p.edges == {}
    assert p.knot_weights == {0: 1, 1: 0}
    assert p.delta == {0: 1, 1: 1}


# ---------------------------------------------------------------------------
# witnesses


def triangle_mod2():
    return WeightedPattern(
        labels=("a", "b", "c", "d"),
        edges={(0, 1): 1, (0, 2): 3, (1, 2): 1, (0, 3): 2},
    )


def test_star_containment(grid13):
    # the ring is threaded by all three keys: stars of up to three keys
    cycles = grid13.role("rings") + grid13.role("keys")
    p = compute_pattern(cycles, LinkTable(grid13.embedding))
    for k in (1, 2, 3):
        (w,) = find_disjoint_keyrings(p, count=1, keys=k)
        assert w == {"center": 0, **{f"k{i}": i + 1 for i in range(k)}}
    assert find_disjoint_keyrings(p, count=1, keys=4) is None


def test_oversized_template_is_absent_without_search():
    p = triangle_mod2()
    # no vertex has four odd neighbours: provably absent, no budget needed
    assert find_disjoint_keyrings(p, count=1, keys=4, budget=0) is None


def test_budget_exhaustion_raises():
    p = triangle_mod2()
    with pytest.raises(SearchBudgetExceeded):
        find_disjoint_keyrings(p, count=2, keys=1, budget=2)


def test_check_witness_rejects_bad_maps():
    p = triangle_mod2()
    t = CompleteBipartiteMod2(1)
    assert check_witness(p, t, {"x0": 0, "y0": 1})
    assert check_witness(p, t, {"x0": 2, "y0": 0})
    assert not check_witness(p, t, {"x0": 0})
    assert not check_witness(p, t, {"x0": 0, "y0": 0})
    assert not check_witness(p, t, {"x0": 0, "y0": 9})
    assert not check_witness(p, t, {"x0": 0, "y0": 3})  # even edge
    assert not check_witness(p, t, {"x0": 0, "wrong": 1})
    assert not check_witness(p, CompleteBipartiteMod2(2), {"x0": 0, "x1": 1, "y0": 2, "y1": 3})


# ---------------------------------------------------------------------------
# keyring packing


def test_find_disjoint_keyrings(grid22):
    cycles = grid22.role("rings") + grid22.role("keys")
    p = compute_pattern(cycles, LinkTable(grid22.embedding))
    rings = find_disjoint_keyrings(p, count=2, keys=1)
    assert rings == [{"center": 0, "k0": 2}, {"center": 1, "k0": 3}]
    for w in rings:
        assert p.weight(w["center"], w["k0"]) % 2 == 1
    assert find_disjoint_keyrings(p, count=3, keys=1) is None
    assert find_disjoint_keyrings(p, count=1, keys=2) is None
    with pytest.raises(ValueError):
        find_disjoint_keyrings(p, count=0, keys=1)
    with pytest.raises(SearchBudgetExceeded):
        find_disjoint_keyrings(p, count=2, keys=1, budget=1)


def test_keyrings_share_nothing(grid13):
    cycles = grid13.role("rings") + grid13.role("keys")
    p = compute_pattern(cycles, LinkTable(grid13.embedding))
    # the one ring is the only possible center, so two stars cannot coexist
    assert find_disjoint_keyrings(p, count=2, keys=1) is None
    assert find_disjoint_keyrings(p, count=1, keys=3) == [
        {"center": 0, "k0": 1, "k1": 2, "k2": 3}
    ]


# ---------------------------------------------------------------------------
# properties

small_pattern = st.integers(2, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {},
        optional={
            (i, j): st.integers(1, 4)
            for i in range(n)
            for j in range(i + 1, n)
        },
    ).map(lambda edges: WeightedPattern(labels=tuple(f"v{k}" for k in range(n)), edges=edges))
)


@settings(max_examples=80)
@given(small_pattern, st.integers(1, 4))
def test_star_found_iff_degree_reaches(p, k):
    found = find_disjoint_keyrings(p, count=1, keys=k)
    best = max((len(p.mod2_neighbors(i)) for i in range(p.n)), default=0)
    if found is None:
        assert best < k
    else:
        (witness,) = found
        keys = [witness[f"k{i}"] for i in range(k)]
        assert sorted(witness) == sorted(["center"] + [f"k{i}" for i in range(k)])
        assert len(set(keys)) == k and witness["center"] not in keys
        assert set(keys) <= p.mod2_neighbors(witness["center"])


@settings(max_examples=60)
@given(small_pattern, st.data())
def test_bipartite_witness_verifies(p, data):
    # check_witness against the definition on random maps of the 4 slots
    t = CompleteBipartiteMod2(2)
    vals = data.draw(st.lists(st.integers(0, p.n - 1), min_size=4, max_size=4))
    witness = dict(zip(["x0", "x1", "y0", "y1"], vals))
    want = len(set(vals)) == 4 and all(
        p.weight(witness[a], witness[b]) % 2 == 1 for a in ("x0", "x1") for b in ("y0", "y1")
    )
    assert check_witness(p, t, witness) == want
