"""Each construction's guarantee, checked by ``dilink.checks`` alone: the
report entries it returns when the guarantee holds, the first failure it
raises when it does not, and the modules the checker may import."""

import ast
import sys
from pathlib import Path

import pytest

from dilink import checks
from dilink.errors import ConstructionFailed


def test_checker_imports_only_the_stdlib_errors_and_digraph():
    tree = ast.parse(Path(checks.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    allowed = {"dilink.errors", "dilink.digraph"}
    assert all(
        name in allowed or name.split(".")[0] in sys.stdlib_module_names for name in names
    ), names


def test_src_holds_no_assert():
    # result guards raise, so they survive python -O
    src = Path(checks.__file__).parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_big_z_entries():
    assert checks.big_z([1, 0, 1, 1], (0, 2, 3), 2, 4, 4) == [
        {"name": "coverage", "passed": True, "detail": "linked 3 of 4 targets"},
        {"name": "directionality", "passed": True},
    ]


@pytest.mark.parametrize(
    "parities,index_set,delta,message",
    [
        ([1, 0, 0, 0], [0, 1], 1, r"index set \[0, 1\] is not the odd parities \[0\]"),
        ([0, 0, 0, 0, 0, 0], [], 1, r"linked 0 of 6 targets, below 3/2"),
        ([1, 0, 0, 0], [0], 2, "output directionality 2 differs from target 1"),
    ],
    ids=["index-set", "bound", "directionality"],
)
def test_big_z_refuses(parities, index_set, delta, message):
    with pytest.raises(ConstructionFailed, match=message):
        checks.big_z(parities, index_set, len(parities) // 2, delta, 1)


def test_big_z_bound_is_half_of_n():
    # n = 3: one odd target of six is below n/2, two are not
    with pytest.raises(ConstructionFailed, match="linked 1 of 6 targets, below 3/2"):
        checks.big_z([0, 0, 1, 0, 0, 0], [2], 3, 1, 1)
    assert checks.big_z([0, 1, 1, 0, 0, 0], [1, 2], 3, 1, 1)[0]["detail"] == "linked 2 of 6 targets"


def test_bipar_z_entries_and_threshold():
    assert checks.bipar_z([-2], [2, 3], 1, 1, 1) == [
        {"name": "threshold", "passed": True, "detail": "linking values [-2, 2, 3], threshold 1"},
        {"name": "directionality", "passed": True},
    ]
    with pytest.raises(ConstructionFailed, match=r"\|lk\(Z, Y_1\)\| = 1 <= 1"):
        checks.bipar_z([2], [2, -1], 1, 1, 1)
    with pytest.raises(ConstructionFailed, match=r"\|lk\(Z, X_0\)\| = 2 <= 2"):
        checks.bipar_z([2], [3], 2, 1, 1)


def test_lemma1_entries_and_parity():
    assert checks.lemma1([1, 1], 2, 2) == [
        {"name": "block-0-parity", "passed": True, "detail": "sum mod 2 = 1"},
        {"name": "block-1-parity", "passed": True, "detail": "sum mod 2 = 1"},
        {"name": "pairs-found", "passed": True},
    ]
    with pytest.raises(ConstructionFailed, match="block 1: triangle pairs sum to 0 mod 2"):
        checks.lemma1([1, 0], 2, 2)
    with pytest.raises(ConstructionFailed, match="found 1 odd pairs for 2 blocks"):
        checks.lemma1([1, 1], 1, 2)


def test_prop1_entries_intersection_and_witness():
    assert checks.prop1((0, 2, 3), 2, [[1, 1], [1, 1]]) == [
        {"name": "intersection", "passed": True, "detail": "3 shared targets"},
        {"name": "witness-parities", "passed": True},
    ]
    with pytest.raises(ConstructionFailed, match="rounds agree on only 1 targets, need 2"):
        checks.prop1((3,), 2, [[1, 1], [1, 1]])
    with pytest.raises(ConstructionFailed, match=r"witness parity table \[\[1, 1\], \[0, 1\]\]"):
        checks.prop1((0, 1), 2, [[1, 1], [0, 1]])

