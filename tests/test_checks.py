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


# every parameter with a default in src/, as (module, function, parameter)
# in source order; a default added or dropped shows up here
DEFAULTS = [
    ("digraph", "connector_cycle", "delta"),
    ("digraph", "connector_cycle", "q_policy"),
    ("digraph", "connector_cycle", "extra_vertices"),
    ("engine", "big_z", "target_delta"),
    ("engine", "big_z", "extra_vertices"),
    ("engine", "bipar_z", "target_delta"),
    ("engine", "bipar_z", "extra_vertices"),
    ("engine", "prop1_step", "target_delta"),
    ("engine", "prop1_step", "extra_sets"),
    ("engine", "prop1_step", "budget"),
    ("engine", "theorem1_step", "target_delta"),
    ("engine", "theorem1_step", "extra_vertices"),
    ("engine", "search_lemma7_knot", "budget"),
    ("errors", "__init__", "violations"),
    ("errors", "__init__", "table"),
    ("geom", "shear_points", "ky"),
    ("invariants", "conway_from_diagram", "max_crossings"),
    ("invariants", "a2_skein", "max_crossings"),
    ("patterns", "compute_pattern", "with_knotting"),
    ("patterns", "find_disjoint_keyrings", "budget"),
    ("workbench.cli", "_check", "detail"),
    ("workbench.cli", "_role_or", "alt"),
    ("workbench.cli", "_extras_for_delta", "rounds"),
    ("workbench.cli", "main", "argv"),
    ("workbench.generators", "random_complete", "box"),
    ("workbench.generators", "lemma1_dk6m", "box"),
    ("workbench.generators", "grid_link", "chains"),
    ("workbench.generators", "big_z_instance", "target_delta"),
    ("workbench.generators", "big_z_instance", "intervals"),
    ("workbench.generators", "big_z_instance", "seed"),
    ("workbench.generators", "bipar_instance", "target_delta"),
    ("workbench.generators", "prop1_instance", "target_delta"),
    ("workbench.generators", "theorem1_instance", "n"),
    ("workbench.generators", "theorem1_instance", "target_delta"),
    ("z2linalg", "from_lists", "ncols"),
]


def test_src_defaults_are_the_listed_ones():
    # over every function and lambda, positional and keyword-only alike
    src = Path(checks.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        funcs = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        for node in sorted(funcs, key=lambda n: (n.lineno, n.col_offset)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [(module, name, a.arg) for a in named]
    assert found == DEFAULTS


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

