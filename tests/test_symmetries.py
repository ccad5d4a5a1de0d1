"""Invariants under the lattice's own symmetries.

Every lk route reads signed crossings off a sheared xy projection, so a
fault common to projection counting, in a sign convention or in the
height comparison, would pass every cross-check that projects the same
way.  Mapping a whole instance file by one of the 48 signed permutations
of the axes moves the projection axis (z may go to x) while the link
stays the same up to mirror image: lk keeps its value under a map of
determinant +1 and changes sign under one of determinant -1, and a2, a
knot's second Conway coefficient, is the same for a knot and its mirror.
The box is symmetric about the origin, so a mapped file stays in it.
"""

import json
from itertools import permutations, product

import pytest

from dilink.workbench.cli import main

SIGNED_PERMUTATIONS = [
    (perm, signs)
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3)
]


def _det(perm, signs):
    inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
    return (-1) ** inversions * signs[0] * signs[1] * signs[2]


def _mapped(doc, perm, signs):
    def move(p):
        return [signs[k] * p[perm[k]] for k in range(3)]

    out = dict(doc)
    out["vertices"] = [move(p) for p in doc["vertices"]]
    out["edges"] = [dict(e, bends=[move(p) for p in e["bends"]]) for e in doc["edges"]]
    return out


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("gen", [
    ["--kind", "braid", "--word", "1,1,1,1", "--p", "2"],  # the (2,4) torus link
    ["--kind", "braid", "--word", "1,1,1", "--p", "2"],  # the trefoil
    ["--kind", "coiled_braid", "--lambda", "2"],
], ids=["braid-link", "braid-knot", "coiled_braid"])
def test_invariants_follow_the_signed_axis_permutations(capsys, tmp_path, gen):
    path = str(tmp_path / "base.json")
    assert _cli(capsys, "gen", *gen, "--out", path)[0] == 0
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    code, base = _cli(capsys, "invariants", path)
    assert code == 0 and base["ok"]
    # the values are not all zero, so a sign or a mirror would show
    assert base["linking"] or any(k["a2"] for k in base["knotting"])

    assert len(SIGNED_PERMUTATIONS) == 48
    moved = str(tmp_path / "moved.json")
    for perm, signs in SIGNED_PERMUTATIONS:
        with open(moved, "w", encoding="utf-8") as fh:
            json.dump(_mapped(doc, perm, signs), fh)
        code, rep = _cli(capsys, "invariants", moved)
        det = _det(perm, signs)
        assert code == 0 and rep["ok"], (perm, signs)
        assert rep["linking"] == [[i, j, det * v] for i, j, v in base["linking"]], (perm, signs)
        assert rep["knotting"] == base["knotting"], (perm, signs)
        assert rep["delta"] == base["delta"]
