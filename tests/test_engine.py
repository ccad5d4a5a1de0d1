"""Construction engine: parity sweeps, chained-cycle builds, ladders, searches.

Expected values here were frozen from hand-checked runs; every linking or
directionality claim is re-verified through the invariants layer rather than
trusted from the certificate alone.
"""

import json

import pytest

from dilink.digraph import DiCycle, connector_cycle, directionality, realize
from dilink.engine import (
    ArithmeticOverflow,
    ConstructionCertificate,
    ConstructionFailed,
    HypothesisViolated,
    NotEnoughKeyrings,
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
from dilink.errors import DisjointnessViolated
from dilink.geom import Point3, PolyLine, SpatialEmbedding, shear
from dilink.invariants import LinkTable, linking_number, omega
from dilink.workbench.generators import (
    big_z_instance,
    grid_link,
    lemma1_dk6m,
    prop1_instance,
    random_complete,
    theorem1_instance,
)

from conftest import clasped_triangles


def loops_of(emb, *cycles):
    return [realize(c, emb) for c in cycles]


def one_directional(c):
    # the same vertex sequence with every step along the traversal
    return DiCycle(c.vertices, (True,) * len(c))


# the arc-pair lk table against the diagram route


class TestLkTable:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_agrees_with_linking_number_under_shears(self, n):
        inst = big_z_instance(n, seed=1)
        keys, rings = list(inst.role("keys")), list(inst.role("rings"))
        connector = connector_cycle(keys, "one_directional").cycle
        pairs = [(k, r) for k in keys + [connector] for r in rings]
        want = [
            linking_number(realize(k, inst.embedding), realize(r, inst.embedding))
            for k, r in pairs
        ]
        assert any(want) and not all(want)
        for kx, ky in [(0, 0), (1, 0), (0, -1), (2, 3), (-3, 1)]:
            table = LinkTable(shear(inst.embedding, kx, ky))
            assert [table.lk(k, r) for k, r in pairs] == want
            assert [table.lk(r, k) for k, r in pairs] == want
            assert [table.lk(k.reversed(), r) for k, r in pairs] == [-w for w in want]

    def test_touch_in_projection_advances_the_shear(self):
        emb, tri_a, tri_b = clasped_triangles([Point3(5, 0, -5)])
        want = linking_number(realize(tri_a, emb), realize(tri_b, emb))
        assert abs(want) == 1
        table = LinkTable(emb)
        assert table.lk(tri_a, tri_b) == want
        assert table.shear != (0, 0)
        assert table.lk(tri_b, tri_a.reversed()) == -want

    @pytest.mark.parametrize(
        "bend",
        [
            [Point3(5, 0, 0)],  # corner on A's edge (0, 1)
            [Point3(4, 1, -1), Point3(6, -1, 1)],  # crosses A's edge (0, 1)
        ],
    )
    def test_arcs_meeting_in_space_raise(self, bend):
        emb, tri_a, tri_b = clasped_triangles(bend)
        with pytest.raises(DisjointnessViolated):
            LinkTable(emb).lk(tri_a, tri_b)

    def test_cycles_sharing_a_vertex_raise(self):
        emb = random_complete(6, seed=0).embedding
        with pytest.raises(DisjointnessViolated):
            LinkTable(emb).lk(
                DiCycle((0, 1, 2), (True, True, False)),
                DiCycle((0, 3, 4), (True, True, False)),
            )

    def test_self_intersecting_cycle_raises(self):
        emb, tri_a, tri_b = clasped_triangles([Point3(5, 0, -5)])
        # arc (1, 2) now dips onto A's own edge (0, 1)
        arcs = dict(emb.arcs)
        arcs[(1, 2)] = PolyLine([Point3(10, 0, 0), Point3(2, 4, 1), Point3(3, 0, 0), Point3(0, 10, 0)])
        bad = SpatialEmbedding(vertices=emb.vertices, arcs=arcs, box=64)
        with pytest.raises(DisjointnessViolated):
            LinkTable(bad).lk(tri_a, tri_b)


# parity sweep over complete graphs on six vertices


class TestParitySweep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_embedding_has_an_odd_triple_pair(self, seed):
        inst = random_complete(6, seed=seed)
        table, parity = conway_gordon_parity(inst.embedding)
        assert parity == 1
        assert len(table) == 10
        assert sum(row[2] for row in table) % 2 == 1
        for t1, t2, om in table:
            assert sorted(t1 + t2) == [0, 1, 2, 3, 4, 5]
            assert om in (0, 1)

    def test_seed_zero_table_is_reproducible(self):
        inst = random_complete(6, seed=0)
        table, _ = conway_gordon_parity(inst.embedding)
        odd = [(tuple(t1), tuple(t2)) for t1, t2, om in table if om]
        assert odd == [((0, 3, 4), (1, 2, 5))]

    def test_rejects_wrong_vertex_count(self, grid13):
        with pytest.raises(HypothesisViolated, match="exactly 6 vertices"):
            conway_gordon_parity(grid13.embedding)


class TestFindOddLinks:
    def test_two_blocks_give_two_disjoint_pairs(self):
        inst = lemma1_dk6m(2, seed=0)
        res = lemma1_find_odd_links(inst.embedding, 2)
        got = [(a.vertices, b.vertices) for a, b in res.pairs]
        assert got == [((0, 4, 5), (1, 2, 3)), ((6, 7, 10), (8, 9, 11))]
        # every pair lives inside its own 6-vertex block
        for k, (a, b) in enumerate(res.pairs):
            lo = 6 * k
            assert set(a.vertices) | set(b.vertices) == set(range(lo, lo + 6))
        cert = res.certificate
        assert cert.kind == "lemma1"
        assert cert.checks["parities"] == [1, 1]
        assert cert.checks["deltas"] == [[2, 2], [2, 2]]
        for a, b in res.pairs:
            assert directionality(a) == 2
            assert directionality(b) == 2
            la, lb = loops_of(inst.embedding, a, b)
            assert omega(la, lb) == 1

    def test_certificate_survives_json(self):
        inst = lemma1_dk6m(1, seed=5)
        res = lemma1_find_odd_links(inst.embedding, 1)
        cert = res.certificate
        assert ConstructionCertificate.from_json(cert.to_json()) == cert
        json.dumps(cert.to_json())  # must be plain data

    def test_rejects_wrong_vertex_count(self):
        inst = random_complete(6, seed=0)
        with pytest.raises(HypothesisViolated, match="6\\*m"):
            lemma1_find_odd_links(inst.embedding, 2)


# big Z: one cycle linking at least half the targets


class TestBigZ:
    def test_identity_instance_takes_shortcut(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        res = big_z(js, xs, LinkTable(bigz_n2.embedding))
        cert = res.certificate
        assert cert.choices["shortcut"] is True
        assert cert.choices["connector_parities"] == [1, 1, 1, 1]
        assert res.index_set == (0, 1, 2, 3)
        assert cert.checks["delta"] == 1
        assert directionality(res.z) == 1
        zl = realize(res.z, bigz_n2.embedding)
        for i in res.index_set:
            assert omega(zl, realize(xs[i], bigz_n2.embedding)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_instances_link_everything(self, n):
        inst = big_z_instance(n)
        js, xs = list(inst.role("keys")), list(inst.role("rings"))
        res = big_z(js, xs, LinkTable(inst.embedding))
        assert len(res.index_set) >= n
        assert res.index_set == tuple(range(2 * n))
        assert directionality(res.z) == 1

    def test_two_directional_target(self):
        inst = big_z_instance(2, target_delta=2)
        js, xs = list(inst.role("keys")), list(inst.role("rings"))
        res = big_z(js, xs, LinkTable(inst.embedding), target_delta=2)
        assert directionality(res.z) == 2
        assert res.index_set == (0, 1, 2, 3)
        assert res.certificate.checks["delta"] == 2

    def test_four_directional_target_needs_extras(self):
        inst = big_z_instance(2, target_delta=4)
        extras = inst.meta["chains"][0]["extras"]
        assert len(extras) == 2
        js, xs = list(inst.role("keys")), list(inst.role("rings"))
        res = big_z(js, xs, LinkTable(inst.embedding), target_delta=4, extra_vertices=extras)
        assert directionality(res.z) == 4
        assert res.index_set == (0, 1, 2, 3)

    def test_blocked_shortcut_falls_back_to_heavy_row(self):
        # two interleaved groups: connector parity vanishes, the GF(2)
        # heavy-row route has to pick the surgery subset instead
        inst = big_z_instance(2, intervals=[(0, 1), (0, 1), (2, 3), (2, 3)])
        js, xs = list(inst.role("keys")), list(inst.role("rings"))
        res = big_z(js, xs, LinkTable(inst.embedding))
        cert = res.certificate
        assert cert.choices["shortcut"] is False
        assert cert.choices["parity_matrix"] == [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ]
        assert cert.choices["witness_rows"] == [0, 2]
        assert res.index_set == (0, 1, 2, 3)
        assert len(res.index_set) >= 2
        zl = realize(res.z, inst.embedding)
        for i in res.index_set:
            assert omega(zl, realize(xs[i], inst.embedding)) == 1

    def test_rejects_odd_family_sizes(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        with pytest.raises(HypothesisViolated, match="2n chained cycles"):
            big_z(js[:3], xs, LinkTable(bigz_n2.embedding))

    def test_rejects_broken_diagonal(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        with pytest.raises(HypothesisViolated, match=r"ω\(J_0, X_0\) = 0"):
            big_z(js, list(reversed(xs)), LinkTable(bigz_n2.embedding))

    def test_rejects_chained_cycle_that_is_not_two_directional(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        js[1] = one_directional(js[1])
        with pytest.raises(HypothesisViolated, match="chained cycle 1 is not 2-directional"):
            big_z(js, xs, LinkTable(bigz_n2.embedding))

    def test_rejects_missing_extra_vertices(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        with pytest.raises(HypothesisViolated, match="extra vertices"):
            big_z(js, xs, LinkTable(bigz_n2.embedding), target_delta=4)

    def test_replay_is_bit_exact(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        res = big_z(js, xs, LinkTable(bigz_n2.embedding))
        cert = res.certificate.to_json()
        again = replay_certificate(cert, LinkTable(bigz_n2.embedding))
        assert again.to_json() == res.z.to_json()

    def test_replay_catches_tampered_output(self, bigz_n2):
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        res = big_z(js, xs, LinkTable(bigz_n2.embedding))
        cert = json.loads(json.dumps(res.certificate.to_json()))
        verts = cert["outputs"]["z"]["vertices"]
        cert["outputs"]["z"]["vertices"] = verts[1:] + verts[:1]
        with pytest.raises(ConstructionFailed, match="different cycle"):
            replay_certificate(cert, LinkTable(bigz_n2.embedding))

    def test_replay_catches_tampered_heavy_rows(self):
        inst = big_z_instance(2, intervals=[(0, 1), (0, 1), (2, 3), (2, 3)])
        js, xs = list(inst.role("keys")), list(inst.role("rings"))
        res = big_z(js, xs, LinkTable(inst.embedding))
        cert = json.loads(json.dumps(res.certificate.to_json()))
        cert["choices"]["witness_rows"] = [1, 3]
        with pytest.raises(ConstructionFailed):
            replay_certificate(cert, LinkTable(inst.embedding))

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("checks", "z_parities", [1, 1, 1, 0], "replay parity table differs"),
            ("outputs", "index_set", [0, 1, 2], "replay index set differs"),
            ("checks", "delta", 2, "replay directionality differs"),
        ],
        ids=["z_parities", "index_set", "delta"],
    )
    @pytest.mark.parametrize("warm", [True, False], ids=["warm-table", "fresh-table"])
    def test_replay_catches_tampered_checks(self, bigz_n2, section, key, value, message, warm):
        # the construction's own table must not let a tampered claim through
        js, xs = list(bigz_n2.role("keys")), list(bigz_n2.role("rings"))
        table = LinkTable(bigz_n2.embedding)
        res = big_z(js, xs, table)
        assert replay_certificate(res.certificate, table) == res.z
        cert = json.loads(json.dumps(res.certificate.to_json()))
        assert cert[section][key] != value
        cert[section][key] = value
        with pytest.raises(ConstructionFailed, match=message):
            replay_certificate(cert, table if warm else LinkTable(bigz_n2.embedding))

    def test_replay_rejects_unknown_kind(self, bigz_n2):
        stub = {"kind": "lemma1", "inputs": {}, "choices": {}, "outputs": {}, "checks": {}}
        with pytest.raises(ValueError, match="no replay flow"):
            replay_certificate(stub, LinkTable(bigz_n2.embedding))


# bipartite ladder


class TestBiparZ:
    def families(self, inst):
        rings, keys = list(inst.role("rings")), list(inst.role("keys"))
        return keys[:6], keys[6:], [rings[0]], [rings[1]]

    def test_ladder_on_smallest_instance(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        res = bipar_z(js, ls, xs, ys, LinkTable(bipar111.embedding), lam=1)
        cert = res.certificate
        assert cert.choices["kept_j"] == [0, 1, 2]
        assert cert.choices["kept_l"] == [0, 1, 2, 3, 4, 5]
        assert cert.choices["s_star"] == 2
        assert cert.choices["t_star"] == 2
        assert cert.choices["categories"] == ["0"]
        assert cert.choices["sign_x"] == [1]
        assert cert.choices["sign_y"] == [1]
        assert cert.checks["a_matrix"] == [[0, 1, 2, 3]]
        assert cert.checks["b_matrix"] == [[0, 1, 2, 3, 4, 5, 6]]
        assert cert.checks["final_x"] == [2]
        assert cert.checks["final_y"] == [2]
        assert cert.checks["s_rows"] == [["y", 0]]
        assert cert.checks["delta"] == 1
        # conclusion demands |lk| >= lam + 1 on both sides; recompute it
        zl = realize(res.z, bipar111.embedding)
        assert linking_number(zl, realize(xs[0], bipar111.embedding)) in (-2, 2)
        assert linking_number(zl, realize(ys[0], bipar111.embedding)) in (-2, 2)

    def test_majority_vote_keeps_positive_block_on_tie(self, bipar111):
        # reversing the tail half flips those linking signs, forcing a 3-3
        # vote; the positive block must win and the ladder end unchanged
        js, ls, xs, ys = self.families(bipar111)
        js = js[:3] + [j.reversed() for j in js[3:]]
        res = bipar_z(js, ls, xs, ys, LinkTable(bipar111.embedding), lam=1)
        cert = res.certificate
        assert cert.choices["phase1"][0]["flipped"] is False
        assert cert.choices["kept_j"] == [0, 1, 2]
        assert cert.checks["final_x"] == [2]

    def test_replay_and_tamper(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        res = bipar_z(js, ls, xs, ys, LinkTable(bipar111.embedding), lam=1)
        cert = res.certificate.to_json()
        assert replay_certificate(cert, LinkTable(bipar111.embedding)).to_json() == res.z.to_json()
        bad = json.loads(json.dumps(cert))
        bad["choices"]["kept_j"] = [3, 4, 5]
        with pytest.raises(ConstructionFailed):
            replay_certificate(bad, LinkTable(bipar111.embedding))

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("checks", "final_x", [3], "replay linking table differs"),
            ("inputs", "lam", 2, "replayed table violates the threshold"),
            ("checks", "delta", 2, "replay directionality differs"),
        ],
        ids=["final_x", "lam", "delta"],
    )
    @pytest.mark.parametrize("warm", [True, False], ids=["warm-table", "fresh-table"])
    def test_replay_catches_tampered_checks(self, bipar111, section, key, value, message, warm):
        # the construction's own table must not let a tampered claim through
        js, ls, xs, ys = self.families(bipar111)
        table = LinkTable(bipar111.embedding)
        res = bipar_z(js, ls, xs, ys, table, lam=1)
        assert replay_certificate(res.certificate, table) == res.z
        cert = json.loads(json.dumps(res.certificate.to_json()))
        assert cert[section][key] != value
        cert[section][key] = value
        with pytest.raises(ConstructionFailed, match=message):
            replay_certificate(cert, table if warm else LinkTable(bipar111.embedding))

    def test_rejects_undersized_first_family(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        with pytest.raises(HypothesisViolated, match="r = 2 < 6"):
            bipar_z(js[:2], ls, xs, ys, LinkTable(bipar111.embedding), lam=1)

    def test_rejects_unlinked_diagonal(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        # swapping the target families breaks every J-X linking
        with pytest.raises(HypothesisViolated, match=r"lk\(J_0, X_0\) = 0"):
            bipar_z(js, ls, ys, xs, LinkTable(bipar111.embedding), lam=1)

    def test_rejects_undersized_second_family(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        with pytest.raises(HypothesisViolated, match="q = 35 < 36 chained cycles of the second"):
            bipar_z(js, ls[:35], xs, ys, LinkTable(bipar111.embedding), lam=1)

    def test_rejects_unlinked_second_family(self, bipar111):
        js, ls, xs, _ = self.families(bipar111)
        # the L's thread only the second ring, so none links X_0 as a Y
        with pytest.raises(HypothesisViolated, match=r"lk\(L_0, Y_0\) = 0"):
            bipar_z(js, ls, xs, xs, LinkTable(bipar111.embedding), lam=1)

    @pytest.mark.parametrize("family", ["first", "second"])
    def test_rejects_chained_cycle_that_is_not_two_directional(self, bipar111, family):
        js, ls, xs, ys = self.families(bipar111)
        fam = js if family == "first" else ls
        fam[0] = one_directional(fam[0])
        with pytest.raises(HypothesisViolated, match=f"{family}-family cycle 0 is not 2-dir"):
            bipar_z(js, ls, xs, ys, LinkTable(bipar111.embedding), lam=1)

    def test_rejects_negative_threshold(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        with pytest.raises(HypothesisViolated, match="nonnegative"):
            bipar_z(js, ls, xs, ys, LinkTable(bipar111.embedding), lam=-1)

    def test_rejects_empty_family(self, bipar111):
        js, ls, xs, ys = self.families(bipar111)
        with pytest.raises(HypothesisViolated, match="nonempty"):
            bipar_z(js, ls, [], ys, LinkTable(bipar111.embedding), lam=1)


# keyring propagation


class TestProp1Step:
    def test_single_pair(self):
        inst = prop1_instance(1, rings=2)
        cands = list(inst.role("rings")) + list(inst.role("keys"))
        res = prop1_step(inst.embedding, cands, n=1)
        assert res.witness == {"x0": 0, "y0": 1}
        assert len(res.zs) == 1
        assert res.index_set == (0, 1)
        assert res.certificate.choices["centers"] == [0, 1]
        assert directionality(res.zs[0]) == 1

    def test_double_pair(self):
        inst = prop1_instance(2, rings=4)
        cands = list(inst.role("rings")) + list(inst.role("keys"))
        res = prop1_step(inst.embedding, cands, n=2)
        assert res.witness == {"x0": 0, "x1": 1, "y0": 2, "y1": 3}
        assert len(res.zs) == 2
        assert res.index_set == (0, 1, 2, 3)
        assert res.certificate.choices["centers"] == [0, 1, 2, 3]
        # each new cycle must link every center ring oddly
        rings = list(inst.role("rings"))
        for z in res.zs:
            zl = realize(z, inst.embedding)
            for r in rings:
                assert omega(zl, realize(r, inst.embedding)) == 1
        picked = [cands[res.certificate.choices["centers"][i]]
                  for i in res.certificate.choices["picked"]]
        assert res.certificate.checks["omega_table"] == [
            [omega(realize(z, inst.embedding), realize(x, inst.embedding)) for x in picked]
            for z in res.zs
        ]

    def test_not_enough_keyrings(self):
        inst = prop1_instance(2, rings=4)
        cands = (list(inst.role("rings")) + list(inst.role("keys")))[:5]
        with pytest.raises(NotEnoughKeyrings, match="4 disjoint keyrings"):
            prop1_step(inst.embedding, cands, n=2)


# class promotion step


class TestTheorem1Step:
    def setup_instance(self):
        inst = theorem1_instance(1, 1)
        cands = list(inst.role("keys")) + list(inst.role("rings"))
        s = len(inst.role("keys"))
        witness = {"P1": list(range(s, 2 * s)), "P2": list(range(s)), "Q": []}
        return inst, cands, s, witness

    def test_promotes_one_ring_into_q(self):
        inst, cands, s, witness = self.setup_instance()
        assert s == 37
        res = theorem1_step(inst.embedding, cands, witness, m=1, lam=1)
        assert res.witness == {"P1": [37], "P2": [0], "Q": ["new"]}
        cert = res.certificate
        assert cert.checks["new_weights"] == {"x": [2], "y": [6], "q": []}
        assert cert.checks["delta"] == 1
        assert "bipar" in cert.choices
        assert directionality(res.z) == 1
        # the promoted cycle keeps linking the survivors strongly
        zl = realize(res.z, inst.embedding)
        p1_loop = realize(cands[res.witness["P1"][0]], inst.embedding)
        p2_loop = realize(cands[res.witness["P2"][0]], inst.embedding)
        assert abs(linking_number(zl, p1_loop)) == 2
        assert abs(linking_number(zl, p2_loop)) == 6

    def test_rejects_missing_witness_part(self):
        inst, cands, s, witness = self.setup_instance()
        del witness["Q"]
        with pytest.raises(HypothesisViolated, match="missing 'Q'"):
            theorem1_step(inst.embedding, cands, witness, m=1, lam=1)

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_non_positive_m(self, m):
        # checked before 3**m, which turns a negative m into a float
        inst, cands, s, witness = self.setup_instance()
        with pytest.raises(HypothesisViolated, match=f"need m >= 1, got {m}"):
            theorem1_step(inst.embedding, cands, witness, m=m, lam=1)

    def test_rejects_overlapping_indices(self):
        inst, cands, s, _ = self.setup_instance()
        witness = {"P1": [0], "P2": [0], "Q": []}
        with pytest.raises(HypothesisViolated, match="overlap"):
            theorem1_step(inst.embedding, cands, witness, m=1, lam=1)

    def test_rejects_classes_no_bigger_than_m(self):
        inst, cands, s, _ = self.setup_instance()
        witness = {"P1": [s], "P2": [0], "Q": []}
        with pytest.raises(HypothesisViolated, match="s = m \\+ q > m"):
            theorem1_step(inst.embedding, cands, witness, m=1, lam=1)

    def test_rejects_classes_not_fully_parity_linked(self):
        inst, cands, s, _ = self.setup_instance()
        # key 0 joins P1 and the last ring joins P2; rings do not link rings
        witness = {
            "P1": list(range(s, 2 * s - 1)) + [0],
            "P2": list(range(1, s)) + [2 * s - 1],
            "Q": [],
        }
        with pytest.raises(
            HypothesisViolated,
            match=f"not fully parity-linked: components {s} and {2 * s - 1}",
        ):
            theorem1_step(inst.embedding, cands, witness, m=1, lam=1)

    def test_rejects_weak_singleton(self):
        # 37 rings and 38 keys, every key through every ring: with lam = 0
        # and one singleton key, s = 37 fits, but keys do not link keys
        inst = grid_link(37, [(0, 36)] * 38)
        cands = list(inst.role("keys")) + list(inst.role("rings"))
        witness = {"P1": list(range(38, 75)), "P2": list(range(37)), "Q": [37]}
        with pytest.raises(
            HypothesisViolated,
            match=r"singleton weight \|lk\| = 0 <= 0 between components 37 and 0",
        ):
            theorem1_step(inst.embedding, cands, witness, m=1, lam=0)


# sign-pattern verification over a wrapped connector


class TestVerifyLemma6:
    def build(self, w45, q_policy="opposite"):
        keys, rings = list(w45.role("keys")), list(w45.role("rings"))
        w_prime = connector_cycle(keys, "one_directional", q_policy=q_policy).cycle
        return w_prime, keys, rings

    def test_all_sixteen_sign_patterns_pass(self, wrap45):
        w_prime, keys, rings = self.build(wrap45)
        rep = verify_lemma6_conclusion(w_prime, keys, rings, wrap45.embedding, lam=1)
        assert rep.ok is True
        assert [c["name"] for c in rep.checks] == [
            "base-one-directional",
            "arc-count-c0",
            "arc-count-c1",
            "arc-count-c2",
            "arc-count-c3",
        ]
        assert all(c["passed"] for c in rep.checks)
        assert len(rep.eps_table) == 16
        # each flipped key cancels one wrap: lk walks up from -5
        for row in rep.eps_table:
            assert row["lk"] == [-5 + sum(row["eps"])]
            assert row["passed"] is True

    def test_weak_threshold_fails_only_all_ones(self, wrap45):
        w_prime, keys, rings = self.build(wrap45)
        rep = verify_lemma6_conclusion(w_prime, keys, rings, wrap45.embedding, lam=2)
        assert rep.ok is False
        bad = [row["eps"] for row in rep.eps_table if not row["passed"]]
        assert bad == [[1, 1, 1, 1]]
        assert all(c["passed"] for c in rep.checks)

    def test_wrong_connector_fails_arc_sharing(self, wrap45):
        # the lex-policy connector reuses key arcs the wrong way around,
        # so every per-key arc-sharing check trips
        w_bad, keys, rings = self.build(wrap45, q_policy="lex")
        rep = verify_lemma6_conclusion(w_bad, keys, rings, wrap45.embedding, lam=1)
        assert rep.ok is False
        failed = [c["name"] for c in rep.checks if not c["passed"]]
        assert failed == ["arc-count-c0", "arc-count-c1", "arc-count-c2", "arc-count-c3"]

    def test_report_serializes(self, wrap45):
        w_prime, keys, rings = self.build(wrap45)
        rep = verify_lemma6_conclusion(w_prime, keys, rings, wrap45.embedding, lam=1)
        blob = rep.to_json()
        assert sorted(blob.keys()) == ["checks", "eps_table", "ok"]
        json.dumps(blob)


# knotted-cycle search


class TestSearchLemma7:
    def test_finds_knot_on_first_candidate(self, coil4):
        a = list(coil4.role("targets"))
        b = list(coil4.role("loops"))
        rep = search_lemma7_knot(a, b, coil4.embedding, lam=4)
        assert rep.status == "found"
        assert rep.candidates_tried == 1
        assert rep.knot is not None
        assert rep.knot.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
        row = rep.table[0]
        assert row["policy"] == "lex"
        assert row["surgeries"] == []
        assert row["delta"] == 1
        assert row["lk"] == [-8]
        assert row["a2"] == 6
        assert row["passed"] is True

    def test_zero_budget_is_inconclusive(self, coil4):
        a = list(coil4.role("targets"))
        b = list(coil4.role("loops"))
        rep = search_lemma7_knot(a, b, coil4.embedding, lam=4, budget=0)
        assert rep.status == "inconclusive"
        assert rep.reason == "budget exhausted"
        assert rep.candidates_tried == 0
        assert rep.knot is None

    def test_rejects_weak_pairwise_linking(self, coil4):
        a = list(coil4.role("targets"))
        b = list(coil4.role("loops"))
        with pytest.raises(HypothesisViolated, match=r"\|lk\(A_0, B_0\)\| = 4 < 5"):
            search_lemma7_knot(a, b, coil4.embedding, lam=5)

    def test_needs_at_least_two_loops(self, coil4):
        a = list(coil4.role("targets"))
        b = list(coil4.role("loops"))
        with pytest.raises(HypothesisViolated, match="at least two loops"):
            search_lemma7_knot(a, b[:1], coil4.embedding, lam=4)


# parameter arithmetic


class TestParameters:
    def test_growth_function_values(self):
        assert [growth_function(k) for k in (1, 2, 3, 4)] == [3, 13, 38, 99]

    def test_growth_function_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            growth_function(0)

    @pytest.mark.parametrize(
        "alpha,n,expected",
        [(1, 1, (4, 3)), (2, 2, (6, 159756)), (4, 1, (8, 3)), (100, 1, (100, 3))],
    )
    def test_parameter_pairs(self, alpha, n, expected):
        assert theorem2_params(alpha, n) == expected

    def test_lambda_dominates_both_bounds(self):
        for alpha in range(1, 61):
            lam, m = theorem2_params(alpha, 1)
            assert lam >= alpha
            assert lam * lam >= 16 * alpha
            assert m >= 3

    def test_deep_iteration_overflows(self):
        with pytest.raises(ArithmeticOverflow, match="past the supported range"):
            theorem2_params(1, 3)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(HypothesisViolated, match="positive"):
            theorem2_params(0, 1)
        with pytest.raises(HypothesisViolated, match="positive"):
            theorem2_params(1, 0)
