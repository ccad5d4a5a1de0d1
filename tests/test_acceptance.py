"""Acceptance gate: one test per release criterion, one summary line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines as they print).  Each test states its claim, verifies it at
the stated tolerance, and prints a single pass line; a failure anywhere is
a release blocker.
"""

import itertools
import json
import random
import time

import pytest

from dilink.digraph import connector_cycle, directionality, realize
from dilink.engine import (
    ArithmeticOverflow,
    big_z,
    bipar_z,
    conway_gordon_parity,
    growth_function,
    lemma1_find_odd_links,
    prop1_step,
    replay_certificate,
    search_lemma7_knot,
    theorem1_step,
    theorem2_params,
    verify_lemma6_conclusion,
)
from dilink.geom import shear_points
from dilink.invariants import LinkTable, a2, a2_routes, a2_skein, linking_number
from dilink.patterns import compute_pattern
from dilink.workbench.cli import main
from dilink.workbench.generators import (
    big_z_instance,
    braid_closure,
    lemma1_dk6m,
    prop1_instance,
    random_complete,
    theorem1_instance,
    torus_style,
)
from dilink.workbench.serialization import parse_instance, serialize_instance

from conftest import hand_hopf


def passline(k: int, msg: str) -> None:
    print(f"criterion {k}: PASS — {msg}")


def test_criterion_1_parity_sweep_on_100_embeddings():
    embs = [random_complete(6, seed=k).embedding for k in range(100)]
    t0 = time.perf_counter()
    for emb in embs:
        table, parity = conway_gordon_parity(LinkTable(emb))
        assert parity == 1
        assert len(table) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    passline(1, f"100/100 embeddings have odd parity sum in {elapsed:.2f}s")


def test_criterion_2_odd_pair_finder_never_fails():
    checked = 0
    for seed in range(100):
        inst = lemma1_dk6m(1, seed=seed)
        res = lemma1_find_odd_links(LinkTable(inst.embedding), 1)
        assert len(res.pairs) == 1
        for a, b in res.pairs:
            assert directionality(a) == 2
            assert directionality(b) == 2
            assert linking_number(realize(a, inst.embedding), realize(b, inst.embedding)) & 1 == 1
        checked += 1
    for seed in range(20):
        inst = lemma1_dk6m(2, seed=seed)
        res = lemma1_find_odd_links(LinkTable(inst.embedding), 2)
        assert len(res.pairs) == 2
        seen = set()
        for a, b in res.pairs:
            verts = set(a.vertices) | set(b.vertices)
            assert not verts & seen
            seen |= verts
            assert directionality(a) == 2
            assert directionality(b) == 2
            assert linking_number(realize(a, inst.embedding), realize(b, inst.embedding)) & 1 == 1
        checked += 1
    passline(2, f"{checked} embeddings (100 one-block, 20 two-block), zero failures")


def test_criterion_3_heavy_vector_exhaustive_and_random():
    from dilink.z2linalg import Z2Matrix, heavy_vector, weight
    from z2_oracle import coset_brute_force

    def checked(rows, ncols, offset):
        res = heavy_vector(Z2Matrix(tuple(rows), ncols), offset)
        assert 2 * res.weight >= ncols
        x = 0
        for r in res.rows:
            x ^= rows[r]
        assert x == res.vector
        assert weight(offset ^ res.vector) == res.weight
        return res

    rng = random.Random(20260821)
    count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            # every matrix with no zero column, built column by column; every
            # offset up to 3x3, one seeded offset per matrix past that
            for cols in itertools.product(range(1, 2**m), repeat=n):
                rows = [0] * m
                for j, col in enumerate(cols):
                    for i in range(m):
                        if col >> i & 1:
                            rows[i] |= 1 << j
                offsets = range(2**n) if m < 4 and n < 4 else [rng.randrange(2**n)]
                for offset in offsets:
                    checked(rows, n, offset)
                    count += 1
    assert count == 59949

    done = 0
    while done < 1000:
        rows = tuple(rng.randrange(1, 2**12) for _ in range(8))
        if any(not any(r >> j & 1 for r in rows) for j in range(12)):
            continue
        offset = rng.randrange(2**12)
        hv = checked(rows, 12, offset)
        assert 12 <= 2 * hv.weight <= 2 * coset_brute_force(Z2Matrix(rows, 12), offset)
        done += 1
    passline(3, f"{count} exhaustive (matrix, offset) cases + 1000 random 8x12 cross-checks")


KNOT_CORPUS = [
    ("wiggled unknot", [1, 1, -1], 2, 0),
    ("trefoil", [1, 1, 1], 2, 1),
    ("trefoil, 3 strands", [1, 2, 1, 2], 3, 1),
    ("figure eight", [1, -2, 1, -2], 3, -1),
    ("(2,5) torus", [1] * 5, 2, 3),
    ("(2,7) torus", [1] * 7, 2, 6),
    ("square knot", [1, 1, 1, -2, -2, -2], 3, 2),
    ("(3,4) torus", [1, 2] * 4, 3, 5),
]


def test_criterion_4_invariants_agree_and_survive_shears():
    rng = random.Random(4)

    def shears(count=20):
        out = []
        while len(out) < count:
            kx, ky = rng.randint(-8, 8), rng.randint(-8, 8)
            if (kx, ky) != (0, 0):
                out.append((kx, ky))
        return out

    for name, word, strands, expected in KNOT_CORPUS:
        (loop,) = braid_closure(word, strands)
        assert a2(loop) == expected, name
        assert a2_skein(loop) == expected, name
        for kx, ky in shears():
            routes = a2_routes(shear_points(loop, kx, ky))
            assert routes == (expected, expected), (name, kx, ky)

    a, b = hand_hopf()
    assert abs(linking_number(a, b)) == 1
    for kx, ky in shears():
        assert abs(linking_number(shear_points(a, kx, ky), shear_points(b, kx, ky))) == 1
    for k in (1, 2, 3, 4):
        inst = torus_style(2, 2 * k)
        la, lb = (
            realize(c, inst.embedding).points for c in inst.role("components")
        )
        assert abs(linking_number(la, lb)) == k
        for kx, ky in shears():
            sa, sb = shear_points(la, kx, ky), shear_points(lb, kx, ky)
            assert abs(linking_number(sa, sb)) == k
    passline(4, "a2 three routes on 8 knots, lk on 5 links, 20 shears each")


def test_criterion_5_big_z_matrix_of_instances():
    runs = 0
    for n in (1, 2, 3):
        for delta in (1, 2, 4):
            for seed in (None, 0, 1, 2, 3, 4):
                inst = big_z_instance(n, target_delta=delta, seed=seed)
                extras = inst.meta["chains"][0]["extras"] if delta >= 4 else ()
                res = big_z(
                    list(inst.role("keys")),
                    list(inst.role("rings")),
                    LinkTable(inst.embedding),
                    target_delta=delta,
                    extra_vertices=extras,
                )
                assert 2 * len(res.index_set) >= n
                assert directionality(res.z) == delta
                assert res.certificate.checks["delta"] == delta
                zl = realize(res.z, inst.embedding)
                for i in res.index_set:
                    xi = list(inst.role("rings"))[i]
                    assert linking_number(zl, realize(xi, inst.embedding)) & 1 == 1
                again = replay_certificate(res.certificate.to_json(), LinkTable(inst.embedding))
                assert again.z.to_json() == res.z.to_json()
                runs += 1
    assert runs == 54
    passline(5, f"{runs} instances, coverage/directionality/replay all verified")


def test_criterion_6_bipar_ladder_within_time(bipar111):
    t0 = time.perf_counter()
    rings, keys = list(bipar111.role("rings")), list(bipar111.role("keys"))
    xs, ys = [rings[0]], [rings[1]]
    for js in (keys[:6], keys[:3] + [j.reversed() for j in keys[3:6]]):
        res = bipar_z(js, keys[6:], xs, ys, LinkTable(bipar111.embedding), lam=1)
        zl = realize(res.z, bipar111.embedding)
        assert abs(linking_number(zl, realize(xs[0], bipar111.embedding))) >= 2
        assert abs(linking_number(zl, realize(ys[0], bipar111.embedding))) >= 2
        assert directionality(res.z) == 1
        for row in res.certificate.checks["a_matrix"]:
            assert all(p < q for p, q in zip(row, row[1:]))  # ladder climbs
        for row in res.certificate.checks["b_matrix"]:
            assert all(p < q for p, q in zip(row, row[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passline(6, f"straight and reversed-tail runs pass thresholds in {elapsed:.1f}s")


def test_criterion_7_orchestration_steps():
    for n in (1, 2):
        inst = prop1_instance(n)
        cands = list(inst.role("rings")) + list(inst.role("keys"))
        res = prop1_step(LinkTable(inst.embedding), cands, n=n)
        assert len(res.index_set) >= n
        ring_cycles = list(inst.role("rings"))[:n]
        pat = compute_pattern(list(res.zs) + ring_cycles, LinkTable(inst.embedding))
        # every z_j links every picked ring oddly: the complete bipartite witness
        assert all(pat.weight(j, n + i) % 2 == 1 for j in range(n) for i in range(n))

    t1 = theorem1_instance(1, 1)
    cands = list(t1.role("keys")) + list(t1.role("rings"))
    s = len(t1.role("keys"))
    witness = {"P1": list(range(s, 2 * s)), "P2": list(range(s)), "Q": []}
    out = theorem1_step(LinkTable(t1.embedding), cands, witness, m=1, lam=1)
    assert out.witness == {"P1": [37], "P2": [0], "Q": ["new"]}
    weights = out.certificate.checks["new_weights"]
    assert all(w > 1 for part in weights.values() for w in part)

    import math

    for alpha in range(1, 101):
        lam, m = theorem2_params(alpha, 1)
        assert lam == max(alpha, math.isqrt(16 * alpha - 1) + 1)
        assert lam * lam >= 16 * alpha
        assert m == growth_function(1) == 3
    assert theorem2_params(5, 2)[1] == growth_function(growth_function(2)) == 159756
    # n = 3 and 4: the iterate leaves the representable range, by design
    assert growth_function(growth_function(3)) == 15668040695845
    with pytest.raises(ArithmeticOverflow, match="iterate 2 .* on 3"):
        theorem2_params(1, 3)
    # n=4 also dies at the third application: f(f(4)) is ~9.4e31, and the
    # next step would need a number with that many bits
    with pytest.raises(ArithmeticOverflow, match="iterate 2 .* on 4"):
        theorem2_params(1, 4)
    passline(7, "K11/K22 witnesses, H(1,1) promotion, parameters for alpha <= 100")


def test_criterion_8_verifiers_catch_injected_violations(wrap45, coil4):
    keys, rings = list(wrap45.role("keys")), list(wrap45.role("rings"))
    good = connector_cycle(keys, q_policy="opposite")
    rep = verify_lemma6_conclusion(good, keys, rings, LinkTable(wrap45.embedding), lam=1)
    assert rep.ok and len(rep.eps_table) == 16

    # injected lk-bound violation: raising the bar fails one combination
    weak = verify_lemma6_conclusion(good, keys, rings, LinkTable(wrap45.embedding), lam=2)
    assert not weak.ok
    assert [r["eps"] for r in weak.eps_table if not r["passed"]] == [[1, 1, 1, 1]]

    # injected arc-count violation: the short-path connector shares arcs wrongly
    bad_cycle = connector_cycle(keys, q_policy="lex")
    bad = verify_lemma6_conclusion(bad_cycle, keys, rings, LinkTable(wrap45.embedding), lam=1)
    assert not bad.ok
    assert [c["name"] for c in bad.checks if not c["passed"]] == [
        "arc-count-c0", "arc-count-c1", "arc-count-c2", "arc-count-c3",
    ]

    a, b = list(coil4.role("targets")), list(coil4.role("loops"))
    found = search_lemma7_knot(a, b, LinkTable(coil4.embedding), lam=4)
    assert found.status == "found"
    assert 16 * abs(found.table[0]["a2"]) >= 4 * 4
    empty = search_lemma7_knot(a, b, LinkTable(coil4.embedding), lam=4, budget=0)
    assert empty.status == "inconclusive"  # never claims a counterexample
    assert empty.reason == "budget exhausted"
    passline(8, "16 sign patterns verified, both injected faults caught, search ok")


def test_criterion_9_roundtrips_and_report_determinism(capsys, tmp_path):
    for k in range(1000):
        inst = random_complete(4 + k % 2, seed=k)
        text = serialize_instance(inst.embedding)
        parsed = parse_instance(text)
        assert parsed.embedding == inst.embedding
        assert serialize_instance(parsed.embedding) == text

    def run(*argv):
        code = main(list(argv))
        rep = json.loads(capsys.readouterr().out)
        rep.pop("timing_s", None)
        return code, rep

    first = run("cgtest", "--count", "5", "--seed", "11")
    second = run("cgtest", "--count", "5", "--seed", "11")
    assert first == second
    path = str(tmp_path / "bz.json")
    run("gen", "--kind", "big_z", "--n", "2", "--out", path)
    first = run("bigz", path)
    second = run("bigz", path)
    assert first == second
    passline(9, "1000 embeddings round-trip bit-exactly, reports repeat bit-equal")
