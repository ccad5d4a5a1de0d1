"""Generators, the canonical file format, and the command-line harness."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dilink
from dilink.digraph import (
    DiCycle,
    connector_cycle,
    direction_change_vertices,
    directionality,
    realize,
)
from dilink.engine import CONSTRUCTIONS
from dilink.errors import FormatError, GenerationFailed, HypothesisViolated
from dilink.geom import Point3, PolyLine, SpatialEmbedding, validate_general_position
from dilink.invariants import LinkTable
from dilink.workbench import cli, generators
from dilink.workbench.cli import main
from dilink.workbench.generators import (
    big_z_instance,
    bipar_instance,
    braid_instance,
    coiled_braid_pair,
    grid_link,
    lemma1_dk6m,
    prop1_instance,
    random_complete,
    ring_wrap_instance,
    split_seed,
    theorem1_instance,
)
from dilink.workbench.serialization import (
    FORMAT_VERSION,
    Instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)

from conftest import clasped_triangles


class TestSplitSeed:
    def test_deterministic_and_label_sensitive(self):
        assert split_seed(7, "x") == split_seed(7, "x")
        assert split_seed(7, "x") != split_seed(7, "y")
        assert split_seed(7, "x") != split_seed(8, "x")
        assert 0 <= split_seed(7, "x") < 2**64

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            split_seed(-1, "x")
        with pytest.raises(ValueError, match="64-bit"):
            split_seed(2**64, "x")


class TestRandomComplete:
    def test_six_vertices_thirty_arcs(self):
        inst = random_complete(6, seed=3)
        assert len(inst.embedding.vertices) == 6
        assert len(inst.embedding.arcs) == 30
        assert validate_general_position(inst.embedding).ok
        assert inst.resamples >= 0

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError, match="at least 3"):
            random_complete(2, seed=0)

    def test_rejects_cramped_box(self):
        with pytest.raises(ValueError, match="box too small"):
            random_complete(6, seed=0, box=8)

    def test_gives_up_when_degeneracies_persist(self):
        # a 16-unit box cannot hold 7 points in general position for long
        with pytest.raises(GenerationFailed, match="still degenerate after"):
            random_complete(7, seed=0, box=16)


class TestOtherBuilders:
    def test_block_graph_is_complete_on_all_vertices(self):
        inst = lemma1_dk6m(2, seed=0)
        assert len(inst.embedding.vertices) == 12
        assert len(inst.embedding.arcs) == 12 * 11
        assert (inst.cycles, inst.roles) == ((), {})
        assert validate_general_position(inst.embedding).ok

    def test_torus_and_braid_components(self):
        t = braid_instance([1, 1, 1], 2)
        assert len(t.role("components")) == 1
        hopf = braid_instance([1, 1], 2)
        assert hopf.roles == {"components": (0, 1)}
        assert hopf.orientations == (1, 1)
        b = braid_instance([1, -2, 1, -2], 3)
        assert len(b.role("components")) == 1
        assert validate_general_position(b.embedding).ok

    def test_grid_rejects_bad_intervals(self):
        with pytest.raises(ValueError, match="out of range"):
            grid_link(1, [(0, 1)])
        with pytest.raises(ValueError, match="at least one ring"):
            grid_link(0, [])


class TestWithChain:
    """grid_link with chains: the connector arcs it lays and checks."""

    KEYS3 = [("key", 0), ("key", 1), ("key", 2)]

    @pytest.mark.parametrize("delta", [1, 2, 4])
    def test_closures_reach_their_directionality(self, delta):
        inst = grid_link(1, [(0, 0)] * 3, [(self.KEYS3, delta, 0)])
        keys = inst.role("keys")
        assert [direction_change_vertices(k) for k in keys] == [[4, 7], [8, 11], [12, 15]]
        extras = cli._free_vertices(inst)
        assert len(extras) == max(delta - 2, 0)
        assert validate_general_position(inst.embedding).ok
        c = connector_cycle(list(keys), delta, extra_vertices=extras)
        assert directionality(c) == delta

    @pytest.mark.parametrize("delta", [1, 2, 4, 6])
    def test_lays_the_arcs_the_connector_steps_through(self, delta):
        # the connector's joining and closing arcs are exactly the arcs
        # the instance's cycles do not run
        inst = grid_link(1, [(0, 0)] * 3, [(self.KEYS3, delta, 0)])
        keys = list(inst.role("keys"))
        c = connector_cycle(keys, delta, extra_vertices=cli._free_vertices(inst))
        own = set().union(*(k.arc_multiset() for k in keys))
        between = {c.arc(i) for i in range(len(c)) if c.arc(i) not in own}
        stored = set().union(*(cyc.arc_multiset() for cyc in inst.cycles))
        assert between == set(inst.embedding.arcs) - stored
        assert realize(c, inst.embedding)

    def test_validation_branches(self):
        pair = [("key", 0), ("key", 1)]
        with pytest.raises(ValueError, match="at least two cycles"):
            grid_link(1, [(0, 0)] * 3, [([("key", 0)], 1, 0)])
        with pytest.raises(HypothesisViolated, match="1 or an even number >= 2"):
            grid_link(1, [(0, 0)] * 3, [(pair, 3, 0)])
        with pytest.raises(ValueError, match="one-directional only"):
            grid_link(1, [(0, 0)] * 3, [(pair, 2, 1)])

    def test_chaining_names_the_real_directionality(self, monkeypatch):
        # no generator builds a consistently directed ring, so run every
        # ring side along its traversal
        monkeypatch.setattr(generators, "_RING_EC", (True,) * 4)
        with pytest.raises(GenerationFailed, match="ring 0 is 1-directional, cannot chain"):
            grid_link(2, [(0, 1), (0, 1)], [([("ring", 0), ("ring", 1)], 1, 0)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: big_z_instance(2),
            lambda: big_z_instance(2, target_delta=4),
            lambda: prop1_instance(3),
            lambda: bipar_instance(1, 1, 1, 6, 36),
            lambda: theorem1_instance(1, 1),
            lambda: ring_wrap_instance(4, 5),
            lambda: braid_instance([1, 1, 1], 2),
            lambda: coiled_braid_pair(2),
        ],
        ids=["big_z", "big_z-d4", "prop1", "bipar", "theorem1", "ring_wrap",
             "braid", "coiled_braid"],
    )
    def test_each_instance_is_validated_once(self, monkeypatch, build):
        calls = []

        def counting(emb):
            calls.append(emb)
            return validate_general_position(emb)

        monkeypatch.setattr(generators, "validate_general_position", counting)
        inst = build()
        assert calls == [inst.embedding]


# file format


_BOX = 2**30  # grid13's box; its vertex 0 sits at (40, 40, 0)

# (path into grid13's document, value set there, the error it raises as
# (type name, message))
_MALFORMED = {
    "coordinate-true": (("vertices", 1, 2), True,
                        ("FormatError", "vertex 1 must be a list of three integers")),
    "coordinate-float": (("vertices", 0, 0), 1.5,
                         ("FormatError", "vertex 0 must be a list of three integers")),
    "point-of-two": (("edges", 3, "bends"), [[0, 0]],
                     ("FormatError", "edge 3 bend 0 must be a list of three integers")),
    "bend-coordinate-false": (("edges", 3, "bends"), [[0, 0, 1], [0, False, 2]],
                              ("FormatError", "edge 3 bend 1 must be a list of three integers")),
    "bends-not-a-list": (("edges", 2, "bends"), {},
                         ("FormatError", "edge 2 bends must be a list")),
    "tail-bool": (("edges", 1, "tail"), True,
                  ("FormatError", "edge 1 tail must name a vertex")),
    "tail-out-of-range": (("edges", 1, "tail"), 16,
                          ("FormatError", "edge 1 tail must name a vertex")),
    "head-negative": (("edges", 1, "head"), -1,
                      ("FormatError", "edge 1 head must name a vertex")),
    "loop-edge": (("edges", 1, "head"), 0, ("FormatError", "edge 1 is a loop")),
    "duplicate-edge": (("edges", 6), {"tail": 4, "head": 5, "bends": []},
                       ("FormatError", "edge (4,5) appears twice")),
    "repeated-point": (("edges", 0, "bends"), [[40, 40, 0]],
                       ("FormatError", "edge 0 (0,1): polyline repeats a point consecutively")),
    "vertices-coincide": (("vertices", 2), [40, 40, 0],
                          ("FormatError", "vertices 0 and 2 coincide")),
    "cycle-vertex-out-of-range": (("cycles", 1, "vertices", 0), 16,
                                  ("FormatError", "cycle 1 vertices must name vertices")),
    "edge-choice-two": (("cycles", 0, "edge_choices", 1), 2,
                        ("FormatError", "cycle 0 edge_choices must be 0/1 flags")),
    "edge-choice-true": (("cycles", 0, "edge_choices", 1), True,
                         ("FormatError", "cycle 0 edge_choices must be 0/1 flags")),
    "orientation-zero": (("cycles", 2, "orientation"), 0,
                         ("FormatError", "cycle 2 orientation must be +1 or -1")),
    # 1.0 == 1 and True == 1, but a report promises integers
    "orientation-float": (("cycles", 0, "orientation"), 1.0,
                          ("FormatError", "cycle 0 orientation must be +1 or -1")),
    "orientation-true": (("cycles", 1, "orientation"), True,
                         ("FormatError", "cycle 1 orientation must be +1 or -1")),
    "role-out-of-range": (("roles", "rings"), [3, 4],
                          ("FormatError", "role 'rings' must list cycle indices")),
    # a coordinate outside the file's box is a format error too
    "vertex-outside-box": (("vertices", 5, 1), -_BOX - 1,
                           ("FormatError", f"vertex 5 outside box {_BOX}")),
    "bend-outside-box": (("edges", 3, "bends"), [[0, _BOX + 1, 0]],
                         ("FormatError", "arc of (2,3) leaves box")),
}


class TestSerialization:
    def roundtrip(self, inst):
        text = serialize_instance(inst)
        parsed = parse_instance(text)
        return text, parsed, serialize_instance(parsed)

    def test_bit_exact_roundtrip_with_roles(self, grid13):
        cycles = grid13.role("keys") + grid13.role("rings")
        inst = Instance(grid13.embedding, cycles, (1, 1, 1, 1),
                        {"keys": (0, 1, 2), "rings": (3,)})
        text, parsed, again = self.roundtrip(inst)
        assert text == again
        assert text.endswith("\n")
        assert parsed == inst
        assert parsed.embedding == grid13.embedding
        assert parsed.cycles == cycles
        assert parsed.orientations == (1, 1, 1, 1)
        assert parsed.roles == {"keys": (0, 1, 2), "rings": (3,)}
        assert parsed.role("rings") == grid13.role("rings")

    def test_orientations_survive(self, grid13):
        inst = Instance(grid13.embedding, grid13.role("keys"), (-1, 1, -1))
        text, parsed, again = self.roundtrip(inst)
        assert parsed.orientations == (-1, 1, -1)
        assert text == again

    def test_serialize_rejects_sparse_vertex_ids(self, grid13):
        emb = grid13.embedding
        sparse = type(emb)(
            vertices={0: emb.vertices[0], 99: emb.vertices[1]},
            arcs={},
            box=emb.box,
        )
        with pytest.raises(FormatError, match="dense 0..n-1"):
            serialize_instance(Instance(sparse))

    def test_serialize_rejects_bad_orientations(self, grid13):
        cycles = grid13.role("keys")
        with pytest.raises(FormatError, match="one orientation per cycle"):
            serialize_instance(Instance(grid13.embedding, cycles, (1,)))
        with pytest.raises(FormatError, match=r"\+1 or -1"):
            serialize_instance(Instance(grid13.embedding, cycles, (1, 2, 1)))

    def test_serialize_rejects_dangling_role(self, grid13):
        with pytest.raises(FormatError, match="missing cycle"):
            serialize_instance(dataclasses.replace(grid13, roles={"keys": (0, 9)}))

    @pytest.mark.parametrize(
        "mangle,msg",
        [
            (lambda d: "not json {", "not valid JSON"),
            (lambda d: json.dumps([1, 2]), "top level must be an object"),
            (lambda d: json.dumps({**d, "format_version": 99}), "unsupported format_version"),
            (lambda d: json.dumps({**d, "box": 0}), "box must be a positive integer"),
            (lambda d: json.dumps({**d, "box": True}), "box must be a positive integer"),
            (lambda d: json.dumps({**d, "vertices": []}), "nonempty list"),
            (lambda d: json.dumps({**d, "vertices": [[0, 0]]}), "three integers"),
            (
                lambda d: json.dumps(
                    {**d, "edges": [{"tail": 0, "head": 0, "bends": []}]}
                ),
                "is a loop",
            ),
            (
                lambda d: json.dumps(
                    {**d, "edges": d["edges"] + [d["edges"][0]]}
                ),
                "appears twice",
            ),
            (
                lambda d: json.dumps(
                    {**d, "edges": [{"tail": 0, "head": 99, "bends": []}]}
                ),
                "must name a vertex",
            ),
            (
                lambda d: json.dumps(
                    {**d, "cycles": [{"vertices": [0, 1], "edge_choices": [2, 0]}]}
                ),
                "0/1 flags",
            ),
            (
                lambda d: json.dumps(
                    {
                        **d,
                        "cycles": [
                            {
                                "vertices": [0, 1],
                                "edge_choices": [1, 1],
                                "orientation": 0,
                            }
                        ],
                    }
                ),
                "orientation must be",
            ),
            (lambda d: json.dumps({**d, "roles": {"r": [5]}}), "cycle indices"),
        ],
    )
    def test_parse_rejects_malformed_documents(self, grid13, mangle, msg):
        doc = json.loads(serialize_instance(Instance(grid13.embedding)))
        with pytest.raises(FormatError, match=msg):
            parse_instance(mangle(doc))

    def test_parse_rejects_cycle_without_arcs(self, grid13):
        doc = json.loads(serialize_instance(Instance(grid13.embedding)))
        # vertices 0 and 5 live on different loops: no stored arc joins them
        doc["cycles"] = [
            {"vertices": [0, 5, 10], "edge_choices": [1, 1, 1], "orientation": 1}
        ]
        with pytest.raises(FormatError, match="missing arc"):
            parse_instance(json.dumps(doc))

    def test_parse_rejects_degenerate_cycle(self, grid13):
        doc = json.loads(serialize_instance(Instance(grid13.embedding)))
        doc["cycles"] = [
            {"vertices": [0, 0], "edge_choices": [1, 1], "orientation": 1}
        ]
        with pytest.raises(FormatError, match="cycle 0"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("path,value,error", _MALFORMED.values(), ids=list(_MALFORMED))
    def test_parse_error_messages_are_exact(self, grid13, path, value, error):
        doc = json.loads(serialize_instance(grid13))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(Exception) as info:
            parse_instance(json.dumps(doc))
        assert (type(info.value).__name__, str(info.value)) == error

    def test_embedding_errors_are_exact(self):
        a, b = Point3(0, 0, 0), Point3(4, 0, 0)
        with pytest.raises(TypeError, match="^lattice points need integer coordinates$"):
            PolyLine([Point3(1.5, 0, 0), b])
        with pytest.raises(ValueError, match=r"^arc of \(0,1\) does not join its endpoints$"):
            SpatialEmbedding({0: a, 1: b}, {(0, 1): PolyLine([a, Point3(4, 1, 0)])})
        with pytest.raises(ValueError, match=r"^arc of \(0,1\) does not join its endpoints$"):
            SpatialEmbedding({0: a, 1: b}, {(0, 1): PolyLine([b, a])})

    def test_save_and_load(self, grid13, tmp_path):
        path = tmp_path / "inst.json"
        inst = dataclasses.replace(grid13, roles={"keys": (0, 1, 2)})
        save_instance(str(path), inst)
        parsed = load_instance(str(path))
        assert parsed == inst
        assert parsed.embedding == grid13.embedding
        assert parsed.roles == {"keys": (0, 1, 2)}

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_instance(str(tmp_path / "absent.json"))

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_random_embeddings_roundtrip(self, seed):
        inst = random_complete(4, seed=seed)
        text = serialize_instance(inst)
        parsed = parse_instance(text)
        assert parsed == inst
        assert parsed.embedding == inst.embedding
        assert serialize_instance(parsed) == text


# command-line harness

_FILE_COMMANDS = ["validate", "invariants", "pattern", "lemma1", "bigz", "bipar",
                  "prop1", "thm1-step", "verify-l6", "search-l7"]


def _json_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_COILED_DOC = json.loads(serialize_instance(coiled_braid_pair(1)))
_DELETE = object()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# sha256 of the files gen writes for the kinds whose chain arcs grid_link
# lays; a change to the chain layout or its order shows here first
GOLDEN = {
    "big_z-d1": (["big_z", "--n", "2"],
                 "54fefb1f7ef5d60450613ae99113a44de563f51b08a9d06a47a7ade7fce02b9e"),
    "big_z-d2": (["big_z", "--n", "2", "--delta", "2"],
                 "7a71f78a824b7f889a549819b423c39cdd2c5fe3832057a1a271e2fc07c337ea"),
    "big_z-d4": (["big_z", "--n", "2", "--delta", "4"],
                 "52a8a69a0e2ad885ef2b61e90605ed382a01c6c701543e7063a412fe5834e32f"),
    "big_z-d6": (["big_z", "--n", "2", "--delta", "6"],
                 "4cbd4d2405d2282a7cfeff53b186c36f50dbc399d3327944954815435272af0c"),
    "big_z-seeded": (["big_z", "--n", "4", "--seed", "3"],
                     "6f6d679a66d8e12510f5c2796348252dc2e9df53081845b5339e62d8806e9935"),
    "bipar-d1": (["bipar", "--lambda", "1", "--q", "36"],
                 "c02c236179efdbd9992c3cd2115850217e32a75bf2a45927d379dab48f8f0bf8"),
    "bipar-d4": (["bipar", "--lambda", "1", "--q", "36", "--delta", "4"],
                 "a4d8524c1c0980fc6ad4edd64f3690408dd89205aab1f20d20f0be569dd90c44"),
    "prop1-d1": (["prop1", "--n", "2"],
                 "e3a3b9e730fdeabe10fcad22a3db5ca921daf58da4f9f4c764689a2f0837f276"),
    "prop1-d4": (["prop1", "--n", "2", "--delta", "4"],
                 "408ad753665b09b23cdafd3cdf3ec24fb893d09304e3f6de92d0ebb3768a764f"),
    "theorem1": (["theorem1", "--n", "0"],
                 "3d8b238a87c1c187734838f8acb145aa0b77a3708167251883670d3001d7a78b"),
    "ring_wrap": (["ring_wrap", "--keys", "4", "--wrap", "5"],
                  "3cc4e7c5d045899d606fd1a9deb0e56a6a9939df2308930fa6f5e9cd8b7c5bb8"),
}


@pytest.mark.parametrize("kind,digest", GOLDEN.values(), ids=list(GOLDEN))
def test_chained_gen_files_match_their_digests(capsys, tmp_path, kind, digest):
    path = tmp_path / "gen.json"
    code, _ = run_cli(capsys, "gen", "--kind", *kind, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# gen flags that build each kind small
SMALL_KINDS = {
    "random_complete": ["--p", "4"],
    "lemma1_dk6m": [],
    "braid": ["--word", "1,-2,1,-2", "--p", "3"],
    "grid_link": ["--rings", "2"],
    "big_z": ["--n", "2", "--delta", "4"],
    "bipar": ["--lambda", "1", "--q", "36"],
    "prop1": ["--n", "1"],
    "theorem1": ["--n", "0"],
    "ring_wrap": [],
    "coiled_braid": ["--lambda", "2"],
}


@pytest.mark.parametrize("kind", list(cli.GENERATORS))
def test_every_kind_builds_the_instance_its_file_holds(capsys, tmp_path, kind):
    path = tmp_path / "gen.json"
    code, rep = run_cli(capsys, "gen", "--kind", kind, *SMALL_KINDS[kind], "--out", str(path))
    assert code == 0
    names, build = cli.GENERATORS[kind]
    inst = build(*(rep["params"][name] for name in names))
    assert type(inst) is Instance
    assert parse_instance(serialize_instance(inst)) == inst
    assert load_instance(str(path)) == inst


# sha256 of each command's report with timing_s removed, the commands run
# in order in one directory; a speed-up must leave every report byte for
# byte as it was
REPORT_GOLDEN = {
    "bigz-d1": ([["gen", "--kind", "big_z", "--n", "4", "--seed", "3", "--out", "bz.json"],
                 ["validate", "bz.json"],
                 ["bigz", "bz.json"]],
                "961a9d0191df3c92dcccc5e2c6057cb8a38726a804ec1684e04c1018ee56870a"),
    "bigz-d2": ([["gen", "--kind", "big_z", "--n", "4", "--seed", "3", "--delta", "2",
                  "--out", "bz.json"],
                 ["bigz", "bz.json", "--delta", "2"]],
                "29423b3f316161aefff190e6398660313f41fe98a140b0d80ec1237cbcc791c1"),
    # seed 9's connector links too few rings: the heavy path, which
    # links 6 of the 8
    "bigz-heavy": ([["gen", "--kind", "big_z", "--n", "4", "--seed", "9", "--out", "bz.json"],
                    ["bigz", "bz.json"]],
                   "7f1bd397acc110eb2f92941284d77c754e4640aa61f7f80abafeecc6783e6b84"),
    "lemma1": ([["gen", "--kind", "lemma1_dk6m", "--m", "1", "--out", "l1.json"],
                ["lemma1", "l1.json"]],
               "bdfa04afc0b32a6b020a135d1ad91e09bb15559fa9d4978915f8634d5bea551e"),
    "knot": ([["gen", "--kind", "braid", "--word", "1,-2,1,-2", "--p", "3", "--out", "k.json"],
              ["invariants", "k.json"],
              ["pattern", "k.json", "--with-knots"]],
             "2bd2089601c16d3f5a18e0969128e9fd71779c395a45b72771270b7df4f6b530"),
    "search-l7": ([["gen", "--kind", "coiled_braid", "--lambda", "3", "--out", "cb.json"],
                   ["search-l7", "cb.json", "--lambda", "3"]],
                  "fd95cb92b5fd1fa0b932cfecbf03908aefffebab5715f779568d0b3609e06aa2"),
    "bipar": ([["gen", "--kind", "bipar", "--lambda", "1", "--q", "36", "--out", "bp.json"],
               ["bipar", "bp.json", "--lambda", "1"]],
              "542b097c0194394752c1a67fcfc59a0a75929ee018710cfb96c269e4b0902d02"),
    "prop1-d1": ([["gen", "--kind", "prop1", "--n", "2", "--out", "p1.json"],
                  ["prop1", "p1.json", "--n", "2"]],
                 "0bf00323749174b95461899904f0e7ad4424b3b9ecf0307cf32e87cca5f116b1"),
    "prop1-d4": ([["gen", "--kind", "prop1", "--n", "2", "--delta", "4", "--out", "p4.json"],
                  ["prop1", "p4.json", "--n", "2", "--delta", "4"]],
                 "ddf01d7021e4f7d92256c76d2fac43f5998788b7f4ebfcef490ca45a009e433e"),
    "thm1-step": ([["gen", "--kind", "theorem1", "--n", "0", "--out", "t1.json"],
                   ["thm1-step", "t1.json"]],
                  "b45c78ea5313fb2514c92d4c27dc83f360df7c2b6088f117ac9b8abbf288ed08"),
}


@pytest.mark.parametrize("commands,digest", REPORT_GOLDEN.values(), ids=list(REPORT_GOLDEN))
def test_reports_match_their_digests(capsys, tmp_path, monkeypatch, commands, digest):
    monkeypatch.chdir(tmp_path)
    reports = []
    for argv in commands:
        code, rep = run_cli(capsys, *argv)
        assert code == 0, rep.get("error")
        del rep["timing_s"]
        reports.append(json.dumps(rep, indent=2))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == digest


class TestCliPipelines:
    def test_gen_validate_invariants_pattern(self, capsys, tmp_path):
        path = str(tmp_path / "g13.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "grid_link", "--rings", "1", "--keys", "3",
            "--out", path,
        )
        assert code == 0
        assert rep["command"] == "gen"
        assert rep["format_version"] == FORMAT_VERSION
        assert rep["stats"] == {
            "vertices": 16,
            "edges": 16,
            "cycles": 4,
            "roles": {"keys": 3, "rings": 1},
            "spare_vertices": [],
        }
        code, rep = run_cli(capsys, "validate", path)
        assert code == 0 and rep["ok"]
        assert rep["stats"]["segments"] == 16
        code, rep = run_cli(capsys, "invariants", path)
        assert code == 0
        assert rep["delta"] == [2, 2, 2, 2]
        assert rep["linking"] == [[0, 3, 1], [1, 3, 1], [2, 3, 1]]
        assert rep["knotting"] == []  # nothing 1-directional to measure
        code, rep = run_cli(capsys, "pattern", path)
        assert code == 0
        assert rep["pattern"]["edges"] == [[0, 3, 1], [1, 3, 1], [2, 3, 1]]

    def test_gen_bigz_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "bz.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "big_z", "--n", "2", "--out", path
        )
        assert code == 0
        assert rep["stats"]["roles"] == {"keys": 4, "rings": 4}
        code, rep = run_cli(capsys, "bigz", path)
        assert code == 0 and rep["ok"]
        # seed 0 randomizes the threading, so the connector only catches two
        assert rep["index_set"] == [1, 3]
        cert = rep["certificates"][0]
        assert cert["choices"]["shortcut"] is True
        assert cert["choices"]["connector_parities"] == [0, 1, 0, 1]
        assert [c["name"] for c in rep["checks"]] == [
            "coverage", "directionality", "replay",
        ]
        assert all(c["passed"] for c in rep["checks"])

    def test_gen_bigz_four_directional(self, capsys, tmp_path):
        path = str(tmp_path / "bz4.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "big_z", "--n", "1", "--delta", "4",
            "--out", path,
        )
        assert code == 0
        assert rep["stats"]["spare_vertices"] == [16, 17]
        code, rep = run_cli(capsys, "bigz", path, "--delta", "4")
        assert code == 0 and rep["ok"]
        assert rep["params"]["extras"] == [16, 17]
        assert rep["index_set"] == [0, 1]

    def test_gen_bipar(self, capsys, tmp_path):
        path = str(tmp_path / "bp.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "bipar", "--m", "1", "--n", "1",
            "--lambda", "1", "--r", "6", "--q", "36", "--out", path,
        )
        assert code == 0
        assert rep["stats"]["roles"] == {"keys": 42, "rings": 2}
        code, rep = run_cli(
            capsys, "bipar", path, "--m", "1", "--n", "1", "--lambda", "1",
            "--r", "6",
        )
        assert code == 0 and rep["ok"]
        assert [c["name"] for c in rep["checks"]] == [
            "threshold", "directionality", "replay",
        ]

    def test_gen_prop1_orders_rings_first(self, capsys, tmp_path):
        path = str(tmp_path / "p1.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "prop1", "--n", "1",
            "--out", path,
        )
        assert code == 0
        code, rep = run_cli(capsys, "prop1", path, "--n", "1")
        assert code == 0 and rep["ok"]
        assert rep["candidate_order"] == [2, 3, 0, 1]
        assert rep["witness"] == {"x0": 0, "y0": 1}
        assert rep["index_set"] == [0, 1]

    def test_prop1_rounds_must_match_the_files_rings(self, capsys, tmp_path):
        # a file laid for two rounds holds four rings; one round needs two
        path = str(tmp_path / "p1.json")
        code, rep = run_cli(capsys, "gen", "--kind", "prop1", "--n", "2", "--out", path)
        assert code == 0
        assert "rings" not in rep["params"]
        assert rep["stats"]["roles"]["rings"] == 4
        code, rep = run_cli(capsys, "prop1", path, "--n", "1")
        assert code == 1
        assert rep["error"] == {
            "type": "FormatError",
            "message": "prop1 --n 1 needs 2 rings, file has 4",
        }

    def test_gen_prop1_four_directional(self, capsys, tmp_path):
        # each round's closure runs through its own pair of spare vertices,
        # laid out in ascending id order round after round
        path = str(tmp_path / "p4.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "prop1", "--n", "2",
            "--delta", "4", "--out", path,
        )
        assert code == 0
        assert rep["stats"]["spare_vertices"] == [48, 49, 50, 51]
        code, rep = run_cli(capsys, "prop1", path, "--n", "2", "--delta", "4")
        assert code == 0 and rep["ok"]
        assert rep["params"]["extras"] == [[48, 49], [50, 51]]
        rounds = rep["certificates"][0]["choices"]["rounds"]
        assert [r["inputs"]["extra_vertices"] for r in rounds] == [[48, 49], [50, 51]]
        assert [r["checks"]["delta"] for r in rounds] == [4, 4]
        code, rep = run_cli(capsys, "prop1", path, "--n", "2", "--delta", "6")
        assert code == 1
        assert rep["error"] == {
            "type": "FormatError",
            "message": "directionality 6 needs 8 spare vertices, file has 4",
        }

    def test_gen_lemma1_infers_block_count(self, capsys, tmp_path):
        path = str(tmp_path / "dk.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "lemma1_dk6m", "--m", "2", "--out", path
        )
        assert code == 0
        code, rep = run_cli(capsys, "lemma1", path)  # --m omitted: 12 // 6
        assert code == 0 and rep["ok"]
        assert rep["params"]["m"] == 2
        assert [c["name"] for c in rep["checks"]] == [
            "block-0-parity", "block-1-parity", "pairs-found",
        ]

    def test_gen_theorem1_step(self, capsys, tmp_path):
        path = str(tmp_path / "t1.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "theorem1", "--m", "1", "--lambda", "1",
            "--n", "0", "--out", path,
        )
        assert code == 0
        assert rep["stats"]["roles"] == {"keys": 37, "rings": 37}
        code, rep = run_cli(capsys, "thm1-step", path, "--m", "1", "--lambda", "1")
        assert code == 0 and rep["ok"]
        assert rep["witness"] == {"P1": [37], "P2": [0], "Q": ["new"]}

    @pytest.mark.parametrize(
        "kind,command",
        [
            (["big_z", "--n", "2"], ["bigz"]),
            (["bipar", "--lambda", "1", "--q", "36"], ["bipar", "--lambda", "1"]),
            (["prop1", "--n", "2"], ["prop1", "--n", "2"]),
            (["theorem1", "--n", "0"], ["thm1-step"]),
            (["lemma1_dk6m", "--m", "1"], ["lemma1"]),
            (["ring_wrap", "--keys", "3"], ["invariants"]),
            (["ring_wrap", "--keys", "3"], ["pattern", "--with-knots"]),
            (["coiled_braid", "--lambda", "4"], ["search-l7", "--lambda", "4", "--budget", "1000"]),
            (["ring_wrap", "--keys", "4", "--wrap", "5"], ["verify-l6", "--lambda", "1"]),
        ],
        ids=[
            "bigz", "bipar", "prop1", "thm1-step", "lemma1", "invariants", "pattern",
            "search-l7", "verify-l6",
        ],
    )
    def test_one_link_table_per_command(self, capsys, tmp_path, monkeypatch, kind, command):
        # constructions, pattern search and replay share the command's table
        path = str(tmp_path / "in.json")
        code, _ = run_cli(capsys, "gen", "--kind", *kind, "--out", path)
        assert code == 0
        built = []
        init = LinkTable.__init__

        def counting_init(table, emb):
            built.append(emb)
            init(table, emb)

        monkeypatch.setattr(LinkTable, "__init__", counting_init)
        code, rep = run_cli(capsys, command[0], path, *command[1:])
        assert (code, rep["ok"]) == (0, True)
        assert len(built) == 1

    def test_gen_theorem1_and_thm1_step_on_their_defaults(self, capsys, tmp_path):
        path = str(tmp_path / "t1.json")
        code, rep = run_cli(capsys, "gen", "--kind", "theorem1", "--out", path)
        assert code == 0
        assert rep["params"] == {"kind": "theorem1", "m": 1, "lam": 1, "n": 0, "delta": 1}
        code, rep = run_cli(capsys, "thm1-step", path)
        assert (code, rep["ok"]) == (0, True), rep.get("error")
        assert rep["witness"] == {"P1": [37], "P2": [0], "Q": ["new"]}

    def test_command_and_replay_run_one_table_entry(self, capsys, tmp_path, monkeypatch):
        kinds = [kind for kind, *_ in cli._CONSTRUCTION_COMMANDS.values()]
        assert sorted(kinds) == sorted(CONSTRUCTIONS)
        path = str(tmp_path / "bz.json")
        assert run_cli(capsys, "gen", "--kind", "big_z", "--n", "2", "--out", path)[0] == 0
        tables = []
        run = CONSTRUCTIONS["big_z"]
        monkeypatch.setitem(CONSTRUCTIONS, "big_z",
                            lambda table, ins: tables.append(table) or run(table, ins))
        code, rep = run_cli(capsys, "bigz", path)
        assert (code, rep["checks"][-1]["name"]) == (0, "replay")
        # the construction, then its self-replay on the same table
        assert len(tables) == 2 and tables[0] is tables[1]

    def test_theorem1_size_mismatch_reported(self, capsys, tmp_path):
        # the n=1 file is larger than an empty-Q witness allows
        path = str(tmp_path / "t1n1.json")
        run_cli(
            capsys, "gen", "--kind", "theorem1", "--m", "1", "--lambda", "1",
            "--n", "1", "--out", path,
        )
        code, rep = run_cli(capsys, "thm1-step", path, "--m", "1", "--lambda", "1")
        assert code == 1
        assert rep["ok"] is False
        assert rep["error"]["type"] == "FormatError"
        assert rep["error"]["message"] == (
            "thm1-step --m 1 --lambda 1 needs 37 rings with 0 singletons, file has 109"
        )

    def test_gen_verify_l6(self, capsys, tmp_path):
        path = str(tmp_path / "rw.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "ring_wrap", "--keys", "4", "--wrap", "5",
            "--out", path,
        )
        assert code == 0
        assert rep["stats"]["roles"] == {"keys": 4, "rings": 1}
        code, rep = run_cli(capsys, "verify-l6", path, "--lambda", "1")
        assert code == 0 and rep["ok"]
        assert rep["checks"][-1]["name"] == "all-surgery-combinations"
        assert rep["checks"][-1]["detail"] == "16/16 pass"
        code, rep = run_cli(capsys, "verify-l6", path, "--lambda", "2")
        assert code == 1 and not rep["ok"]
        assert rep["checks"][-1]["detail"] == "15/16 pass"

    def test_verify_l6_derives_a_missing_base(self, capsys, tmp_path):
        # files written before the base was derived store it as a role
        inst = ring_wrap_instance(key_count=4, wrap_turns=5)
        assert inst.roles == {"keys": (0, 1, 2, 3), "rings": (4,)}
        base = connector_cycle(inst.role("keys"), q_policy="opposite")
        stored, bare = str(tmp_path / "stored.json"), str(tmp_path / "bare.json")
        save_instance(stored, Instance(inst.embedding, (*inst.cycles, base), (1,) * 6,
                                       {**inst.roles, "base": (5,)}))
        save_instance(bare, inst)
        code, with_base = run_cli(capsys, "verify-l6", stored, "--lambda", "1")
        assert code == 0
        code, derived = run_cli(capsys, "verify-l6", bare, "--lambda", "1")
        assert code == 0
        assert derived["verification"] == with_base["verification"]
        assert derived["checks"] == with_base["checks"]

    @pytest.mark.parametrize("command", ["bigz", "verify-l6"])
    def test_commands_read_only_the_roles_generators_write(self, capsys, tmp_path, command):
        # js/xs and surgeries are not role names any generator writes
        inst = ring_wrap_instance(key_count=4, wrap_turns=5)
        path = str(tmp_path / "aliased.json")
        save_instance(path, dataclasses.replace(
            inst, roles={"js": (0, 1, 2, 3), "surgeries": (0, 1, 2, 3), "xs": (4,)}))
        code, rep = run_cli(capsys, command, path)
        assert code == 1
        assert rep["error"] == {"type": "FormatError",
                                "message": "instance file lacks a 'keys' role"}

    def test_verify_l6_without_base_needs_two_surgery_cycles(self, capsys, tmp_path):
        inst = grid_link(1, [(0, 0)])
        assert inst.roles == {"keys": (0,), "rings": (1,)}
        path = str(tmp_path / "one_key.json")
        save_instance(path, inst)
        code, rep = run_cli(capsys, "verify-l6", path)
        assert code == 1
        assert rep["error"]["type"] == "FormatError"
        assert "'base' role" in rep["error"]["message"]

    def test_gen_search_l7(self, capsys, tmp_path):
        path = str(tmp_path / "cb.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "coiled_braid", "--lambda", "4", "--out", path
        )
        assert code == 0
        assert rep["stats"]["roles"] == {"loops": 2, "targets": 1}
        code, rep = run_cli(capsys, "search-l7", path, "--lambda", "4")
        assert code == 0 and rep["ok"]
        assert rep["search"]["status"] == "found"
        assert rep["search"]["candidates_tried"] == 1
        code, rep = run_cli(capsys, "search-l7", path, "--lambda", "5")
        assert code == 1
        assert rep["error"]["type"] == "HypothesisViolated"
        # at lambda = 1 the first candidate has a2 = 0, so a budget of one
        # candidate runs out
        run_cli(capsys, "gen", "--kind", "coiled_braid", "--lambda", "1", "--out", path)
        code, rep = run_cli(
            capsys, "search-l7", path, "--lambda", "1", "--budget", "1"
        )
        assert code == 1 and not rep["ok"]
        assert rep["search"]["status"] == "inconclusive"
        assert rep["search"]["reason"] == "budget exhausted"

    def test_invariants_apply_stored_orientations(self, capsys, tmp_path, grid13):
        # keys first, then the ring every key threads; reversing one key
        # and the ring flips the sign of each pair that has one of them
        path = str(tmp_path / "oriented.json")
        assert grid13.cycles == grid13.role("keys") + grid13.role("rings")
        save_instance(path, Instance(grid13.embedding, grid13.cycles, (-1, 1, 1, -1)))
        code, rep = run_cli(capsys, "invariants", path)
        assert code == 0
        assert rep["linking"] == [[0, 3, 1], [1, 3, -1], [2, 3, -1]]

    def test_knot_measures_on_braid_file(self, capsys, tmp_path):
        path = str(tmp_path / "tref.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "braid", "--word", "1,1,1", "--p", "2",
            "--out", path,
        )
        assert code == 0
        code, rep = run_cli(capsys, "invariants", path)
        assert code == 0
        assert rep["knotting"] == [{"cycle": 0, "a2": 1, "a2_alexander": 1}]
        assert rep["delta"] == [1]
        code, rep = run_cli(capsys, "pattern", path, "--with-knots")
        assert code == 0
        assert rep["pattern"]["knot_weights"] == [[0, 1]]

    def test_invariants_crosscheck_knots_past_sixteen_crossings(self, capsys, tmp_path):
        # the (2,17) torus knot: 17 crossings, a2 = (17^2 - 1)/8
        path = str(tmp_path / "t217.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "braid", "--word", ",".join(["1"] * 17), "--p", "2",
            "--out", path,
        )
        assert code == 0
        code, rep = run_cli(capsys, "invariants", path)
        assert code == 0 and rep["ok"]
        assert rep["knotting"] == [{"cycle": 0, "a2": 36, "a2_alexander": 36}]
        assert {"name": "a2-routes-agree-0", "passed": True, "detail": "36 vs 36"} in rep["checks"]

    @pytest.mark.parametrize("lam,expected", [(8, 28), (12, 66), (16, 120)])
    def test_search_l7_finds_knots_past_sixteen_crossings(self, capsys, tmp_path, lam, expected):
        path = str(tmp_path / "cb.json")
        code, rep = run_cli(
            capsys, "gen", "--kind", "coiled_braid", "--lambda", str(lam), "--out", path
        )
        assert code == 0
        code, rep = run_cli(capsys, "search-l7", path, "--lambda", str(lam))
        assert code == 0 and rep["ok"]
        assert rep["search"]["status"] == "found"
        (row,) = rep["search"]["table"]
        assert row["a2"] == expected and row["passed"] is True

    def test_disagreeing_knot_routes_fail_every_command(self, capsys, tmp_path, monkeypatch):
        import dilink.invariants as inv

        tref = str(tmp_path / "tref.json")
        coil = str(tmp_path / "cb.json")
        run_cli(capsys, "gen", "--kind", "braid", "--word", "1,1,1", "--p", "2", "--out", tref)
        run_cli(capsys, "gen", "--kind", "coiled_braid", "--lambda", "4", "--out", coil)
        monkeypatch.setattr(inv, "a2_alexander", lambda knot: 99)
        code, rep = run_cli(capsys, "invariants", tref)
        assert code == 1 and not rep["ok"]
        assert {"name": "a2-routes-agree-0", "passed": False, "detail": "1 vs 99"} in rep["checks"]
        code, rep = run_cli(capsys, "pattern", tref, "--with-knots")
        assert code == 1 and rep["error"]["type"] == "Impossible"
        code, rep = run_cli(capsys, "search-l7", coil, "--lambda", "4")
        assert code == 1 and rep["error"]["type"] == "ConstructionFailed"

    def test_thm2_params(self, capsys):
        code, rep = run_cli(capsys, "thm2-params", "--alpha", "2", "--n", "2")
        assert code == 0
        assert rep["lam"] == 6
        assert rep["m"] == 159756
        assert rep["checks"][0]["name"] == "threshold-strength"

    def test_cgtest_runs_and_is_deterministic(self, capsys):
        code, rep = run_cli(capsys, "cgtest", "--count", "3", "--seed", "1")
        assert code == 0
        assert [r["parity"] for r in rep["runs"]] == [1, 1, 1]
        code, rep2 = run_cli(capsys, "cgtest", "--count", "3", "--seed", "1")
        rep.pop("timing_s")
        rep2.pop("timing_s")
        assert rep == rep2


class TestCliFailureShapes:
    def test_missing_file_report(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert rep["command"] == "validate"
        assert rep["ok"] is False
        assert rep["error"]["type"] == "FormatError"
        assert rep["error"]["message"].startswith("cannot read")

    def test_construction_missing_file_reports_keep_their_params(self, capsys, monkeypatch, tmp_path):
        # prop1 and thm1-step record their flags before reading the file;
        # bigz records its own only after reading the roles they apply to
        monkeypatch.chdir(tmp_path)
        for argv, params in [
            (["prop1", "missing.json", "--n", "2"],
             {"file": "missing.json", "n": 2, "delta": 1, "budget": 500_000}),
            (["thm1-step", "missing.json"],
             {"file": "missing.json", "m": 1, "lam": 1, "delta": 1}),
            (["bigz", "missing.json"], {"file": "missing.json"}),
        ]:
            code, rep = run_cli(capsys, *argv)
            assert (code, rep["error"]["type"]) == (1, "FormatError"), argv
            assert list(rep["params"].items()) == list(params.items()), argv

    def test_instance_without_cycles_is_an_error(self, capsys, tmp_path, grid13):
        path = str(tmp_path / "bare.json")
        save_instance(path, Instance(grid13.embedding))
        code, rep = run_cli(capsys, "invariants", path)
        assert code == 1
        assert rep["error"]["type"] == "FormatError"
        assert "no cycles" in rep["error"]["message"]

    @pytest.mark.parametrize("command", ["invariants", "pattern"])
    def test_cycles_sharing_a_vertex_are_an_error(self, capsys, tmp_path, command):
        path = str(tmp_path / "shared.json")
        cycles = [DiCycle((0, 1, 2), (True, True, False)), DiCycle((0, 3, 4), (True, True, False))]
        save_instance(path, Instance(random_complete(6, seed=0).embedding, tuple(cycles), (1, 1)))
        code, rep = run_cli(capsys, command, path)
        assert code == 1 and rep["ok"] is False
        assert rep["error"] == {
            "type": "DisjointnessViolated",
            "message": "cycles share vertices [0]",
        }

    def test_pattern_checks_a_lone_cycle_for_self_intersection(self, capsys, tmp_path):
        emb, tri_a, _ = clasped_triangles([Point3(5, 0, -5)])
        # arc (1, 2) dips onto the cycle's own edge (0, 1)
        arcs = dict(emb.arcs)
        arcs[(1, 2)] = PolyLine([Point3(10, 0, 0), Point3(2, 4, 1), Point3(3, 0, 0), Point3(0, 10, 0)])
        path = str(tmp_path / "self.json")
        save_instance(path, Instance(SpatialEmbedding(emb.vertices, arcs, box=64), (tri_a,), (1,)))
        code, rep = run_cli(capsys, "pattern", path)
        assert code == 1
        assert rep["error"]["type"] == "DisjointnessViolated"
        assert rep["error"]["message"].startswith("loops 0 and 0 intersect in space")

    def test_report_written_to_out_file(self, capsys, tmp_path):
        inst = str(tmp_path / "g.json")
        run_cli(capsys, "gen", "--kind", "grid_link", "--rings", "1",
                "--keys", "2", "--out", inst)
        out = tmp_path / "report.json"
        code = main(["validate", inst, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["command"] == "validate" and rep["ok"]

    def test_error_report_honours_out(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["command"] == "validate" and rep["ok"] is False
        assert rep["format_version"] == FORMAT_VERSION
        assert rep["tool_version"] == dilink.__version__
        assert rep["error"]["type"] == "FormatError"

    @pytest.mark.parametrize("command", _FILE_COMMANDS)
    def test_error_report_carries_the_full_envelope(self, capsys, tmp_path, command):
        absent = str(tmp_path / "absent.json")
        out = tmp_path / "report.json"
        for argv in ([command, absent], [command, absent, "--out", str(out)]):
            code = main(argv)
            text = capsys.readouterr().out
            rep = json.loads(out.read_text() if "--out" in argv else text)
            assert code == 1
            assert rep["command"] == command
            assert rep["format_version"] == FORMAT_VERSION
            assert rep["tool_version"] == dilink.__version__
            assert rep["params"]["file"] == absent
            assert rep["ok"] is False
            assert rep["error"]["type"] == "FormatError"
        assert text == ""

    @given(
        path=st.sampled_from(list(_json_paths(_COILED_DOC))),
        value=st.sampled_from([_DELETE, None, -1, 0, 10**30, "x", [1], {"a": 1}, 0.5, True]),
    )
    # vertex 0 moved onto the first bend of its own arc (0, 1)
    @example(path=("vertices", 0, 0), value=0)
    @settings(max_examples=20, deadline=None)
    def test_a_corrupted_file_gets_the_report_envelope(self, tmp_path_factory, path, value):
        doc = copy.deepcopy(_COILED_DOC)
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        file = str(tmp_path_factory.mktemp("fuzz") / "inst.json")
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _FILE_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, file])
            rep = json.loads(out.getvalue())
            assert (rep["command"], rep["params"]["file"]) == (command, file)
            assert code == (0 if rep["ok"] else 1)
            assert rep["ok"] or "error" in rep or any(not c["passed"] for c in rep["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "bipar", "--lambda", "1"],
            ["--kind", "prop1", "--n", "2", "--rings", "4"],
            ["--kind", "ring_wrap", "--rings", "4", "--keys", "0"],
            ["--kind", "ring_wrap", "--keys", "0"],
            ["--kind", "braid", "--word", "1,x"],
        ],
    )
    def test_generator_parameter_errors_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "inst.json"
        code = main(["gen", *argv, "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        rep = json.loads(captured.out)  # exactly one JSON object
        assert rep["command"] == "gen" and rep["ok"] is False
        assert rep["error"]["type"] == "ParameterError"
        assert rep["params"]["kind"] == argv[1]
        assert rep["format_version"] == FORMAT_VERSION
        assert "Traceback" not in captured.err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["search-l7", "l7.json", "--lambda", "0"], "--lambda must be at least 1, got 0"),
            (["search-l7", "l7.json", "--budget", "0"], "--budget must be at least 1, got 0"),
            (["prop1", "p1.json", "--n", "2", "--budget", "0"], "--budget must be at least 1, got 0"),
            (["cgtest", "--count", "-1"], "--count must be at least 1, got -1"),
            (["thm2-params", "--alpha", "0"], "--alpha must be at least 1, got 0"),
            (["verify-l6", "l6.json", "--lambda", "-3"], "--lambda must be at least 1, got -3"),
            (["prop1", "p1.json", "--n", "0"], "--n must be at least 1, got 0"),
            (["bipar", "bp.json", "--m", "0"], "--m must be at least 1, got 0"),
            (["bipar", "bp.json", "--n", "0"], "--n must be at least 1, got 0"),
            (["thm1-step", "t1.json", "--m", "-2"], "--m must be at least 1, got -2"),
        ],
    )
    def test_command_parameter_errors_exit_two(self, capsys, tmp_path, argv, message):
        # unchecked, these report "found", "inconclusive", a spent budget,
        # "0/-1 embeddings", a vacuous "ok", a failed hypothesis, a ring
        # count mismatch or a class size computed in floats
        files = {
            "l7.json": ["--kind", "coiled_braid", "--lambda", "2"],
            "p1.json": ["--kind", "prop1", "--n", "2"],
            "l6.json": ["--kind", "ring_wrap", "--keys", "4", "--wrap", "5"],
            "bp.json": ["--kind", "bipar", "--lambda", "1", "--q", "36"],
            "t1.json": ["--kind", "theorem1", "--n", "0"],
        }
        argv = list(argv)
        if argv[1] in files:
            path = str(tmp_path / argv[1])
            assert main(["gen", *files[argv[1]], "--out", path]) == 0
            capsys.readouterr()
            argv[1] = path
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        rep = json.loads(captured.out)  # exactly one JSON object
        assert rep["command"] == argv[0] and rep["ok"] is False
        assert rep["error"] == {"type": "ParameterError", "message": message}
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command,flag,least",
        [
            (command, flag, least)
            for command, (_, _, flags) in cli._COMMANDS.items()
            for flag, (_, least) in flags.items()
            if least is not None
        ],
    )
    def test_every_bounded_flag_refuses_one_below_its_least(
        self, capsys, tmp_path, command, flag, least
    ):
        # the bound is checked before the file is read, so the file need
        # not exist; a required flag other than the one tested gets its least
        _, reads_file, flags = cli._COMMANDS[command]
        argv = [command, str(tmp_path / "unread.json")] if reads_file else [command]
        for other, (default, other_least) in flags.items():
            if default is None and other != flag:
                argv += [other, str(other_least)]
        code = main([*argv, flag, str(least - 1)])
        captured = capsys.readouterr()
        assert code == 2
        rep = json.loads(captured.out)  # exactly one JSON object
        assert rep["command"] == command and rep["ok"] is False
        assert rep["error"] == {
            "type": "ParameterError",
            "message": f"{flag} must be at least {least}, got {least - 1}",
        }

    def test_gen_theorem1_rejects_oversized_lattice_at_once(self, capsys, tmp_path):
        # m=2, lambda=2, n=1 asks for s = 1802 rings and as many keys
        path = tmp_path / "t1.json"
        t0 = time.perf_counter()
        code, rep = run_cli(
            capsys, "gen", "--kind", "theorem1", "--m", "2", "--lambda", "2",
            "--n", "1", "--out", str(path),
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert rep["error"] == {
            "type": "ParameterError",
            "message": "theorem1: s = m + q = 1802 rings exceeds the limit of 512",
        }
        assert not path.exists()

    @pytest.mark.parametrize("command", ["bigz", "bipar", "prop1", "thm1-step"])
    def test_constructions_have_no_unchecked_mode(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "any.json"), "--unchecked"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unchecked" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,command,flags",
        [
            (["big_z", "--n", "2"], "bigz", []),
            (["bipar", "--lambda", "1", "--q", "36"], "bipar", ["--lambda", "1"]),
            (["prop1", "--n", "2"], "prop1", ["--n", "2"]),
            (["theorem1", "--n", "0"], "thm1-step", []),
        ],
    )
    def test_unreachable_directionality_is_a_hypothesis_error(
        self, capsys, tmp_path, kind, command, flags
    ):
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--kind", *kind, "--out", path]) == 0
        capsys.readouterr()
        code, rep = run_cli(capsys, command, path, *flags, "--delta", "3")
        assert code == 1
        assert rep["error"] == {
            "type": "HypothesisViolated",
            "message": "target directionality must be 1 or an even number >= 2",
        }
        assert rep["params"]["delta"] == 3

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--kind", "coiled_braid", "--wrap", "4"], "--wrap"),
            (["--kind", "ring_wrap", "--rings", "4"], "--rings"),
            (["--kind", "braid", "--seed", "1"], "--seed"),
            (["--kind", "braid", "--lambda", "1"], "--lambda"),
        ],
    )
    def test_gen_rejects_flags_its_kind_does_not_read(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "inst.json"
        code, rep = run_cli(capsys, "gen", *argv, "--out", str(path))
        assert code == 2
        assert rep["error"]["type"] == "ParameterError"
        assert rep["error"]["message"] == f"{argv[1]} does not read {flag}"
        assert rep["params"] == {"kind": argv[1]}
        assert not path.exists()

    def test_gen_records_seed_only_where_the_builder_uses_it(self, capsys, tmp_path):
        path = str(tmp_path / "inst.json")
        _, rep = run_cli(capsys, "gen", "--kind", "random_complete", "--p", "4", "--out", path)
        assert rep["params"] == {"kind": "random_complete", "seed": 0, "p": 4}
        _, rep = run_cli(capsys, "gen", "--kind", "big_z", "--seed", "3", "--out", path)
        assert rep["params"] == {"kind": "big_z", "seed": 3, "n": 1, "delta": 1}
        _, rep = run_cli(capsys, "gen", "--kind", "braid", "--out", path)
        assert rep["params"] == {"kind": "braid", "word": [1], "strands": 2}

    def test_gen_word_may_start_with_a_minus(self, capsys, tmp_path):
        glued, spaced = tmp_path / "glued.json", tmp_path / "spaced.json"
        _, a = run_cli(capsys, "gen", "--kind", "braid", "--word=-1,-1,-1", "--p", "2",
                       "--out", str(glued))
        code, b = run_cli(capsys, "gen", "--kind", "braid", "--word", "-1,-1,-1", "--p", "2",
                          "--out", str(spaced))
        assert code == 0
        assert b["params"] == a["params"] == {"kind": "braid", "word": [-1, -1, -1], "strands": 2}
        assert spaced.read_text() == glued.read_text()

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "nope", "--out", "/tmp/x.json"])
        assert exc.value.code == 2
        capsys.readouterr()
        # no torus_style kind: braid builds those closures (--word 1,1,1 --p 2 is the (2,3))
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "torus_style", "--out", "/tmp/x.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'torus_style'" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "g.json")
        run_cli(capsys, "gen", "--kind", "grid_link", "--keys", "2", "--out", path)
        reports = []
        for _ in range(2):
            code, rep = run_cli(capsys, "validate", path)
            assert code == 0
            rep.pop("timing_s")
            reports.append(rep)
        assert reports[0] == reports[1]
        assert cli.build_parser() is cli.build_parser()
        # the handler is found by name at call time, so a patched one runs
        seen = []
        monkeypatch.setattr(cli, "_cmd_validate", lambda args, rep: seen.append(args.file))
        code, rep = run_cli(capsys, "validate", path)
        assert (code, rep["ok"], seen) == (0, True, [path])

    def test_running_out_of_memory_gets_the_report_envelope(self, capsys, monkeypatch):
        def exhausted(args, rep):
            rep["params"]["seen"] = args.file
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_validate", exhausted)
        code, rep = run_cli(capsys, "validate", "big.json")
        assert code == 1
        assert rep["ok"] is False
        assert rep["params"] == {"file": "big.json", "seen": "big.json"}
        assert rep["error"] == {"type": "MemoryError", "message": "out of memory"}
        assert "timing_s" in rep
