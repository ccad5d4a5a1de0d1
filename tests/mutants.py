"""Named mutations of ``src/`` that the tests must kill.

Each entry is ``(name, file, old text, new text, tests)``: the file under
the repository root, an exact text that occurs in it once, its
replacement, and the test files to run against the mutant.  A tier-1
test (``tests/test_mutants.py``) checks that every old text still occurs
exactly once, so the list cannot rot.

Run it, opt-in, from the repository root:

    python tests/mutants.py [NAME ...]

Each mutant is applied to a copy of ``src/`` and ``tests/`` in a new
temporary directory (under ``$TMPDIR``), its tests run there with a
timeout, and one JSON line is printed per mutant: its name, whether a
test failed (killed), pytest's summary line, the failed tests and the
wall time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the pair walk's sweep misses the pairs whose boxes touch in y
    ("walk-window-miss", "src/dilink/geom.py",
     "if by0 > y1 or y0 > by1:",
     "if by0 >= y1 or y0 > by1:",
     ("tests/test_geom.py",)),
    # the pair walk's sweep decides each pair from both of its segments
    ("walk-window-twice", "src/dilink/geom.py",
     "window = boxes[a + 1:bisect_right(lows, x1, a + 1)]",
     "window = [b for b in boxes[:bisect_right(lows, x1, a + 1)] if b[4] != f]",
     ("tests/test_geom.py",)),
    # the pair walk's crossing sign, which project_to_diagram records
    ("walk-sign", "src/dilink/geom.py",
     "sign = 1 if (cross > 0) == over else -1",
     "sign = -1 if (cross > 0) == over else 1",
     ("tests/test_geom.py", "tests/test_invariants.py")),
    # the pair walk's over/under at a crossing
    ("walk-over", "src/dilink/geom.py",
     "over = zf > zg",
     "over = zg > zf",
     ("tests/test_geom.py", "tests/test_invariants.py")),
    # the sign of each crossing LinkTable counts
    ("arc-pair-sign", "src/dilink/geom.py",
     "total += 1 if za > zb else -1",
     "total += -1 if za > zb else 1",
     ("tests/test_geom.py",)),
    # the under segment's height at a crossing LinkTable counts; the
    # lattice symmetries catch it too, unlike a flip of every sign
    ("arc-pair-height", "src/dilink/geom.py",
     "zb = pbz * den - o_r * dzb",
     "zb = pbz * den + o_r * dzb",
     ("tests/test_geom.py", "tests/test_symmetries.py")),
    # the diagram records a crossing's second pass on the same side as its first
    ("gauss-under", "src/dilink/geom.py",
     "k, not i_over, sign))",
     "k, i_over, sign))",
     ("tests/test_geom.py", "tests/test_invariants.py")),
    # the diagram keeps each loop's passes in record order, not walk order
    ("gauss-order", "src/dilink/geom.py",
     "for p in sorted(ps))",
     "for p in ps)",
     ("tests/test_geom.py", "tests/test_invariants.py")),
    # the Alexander route adds the over arc's entry instead of subtracting it
    ("alexander-over", "src/dilink/invariants.py",
     "acc[over_arc[cid]] -= sign",
     "acc[over_arc[cid]] += sign",
     ("tests/test_invariants.py",)),
    # the pair count takes pairs that nest as interleaved
    ("a2-interleave", "src/dilink/invariants.py",
     "first[b] < second[a] < second[b]",
     "first[b] < second[a]",
     ("tests/test_invariants.py",)),
    # the table skips arc pairs whose xy boxes only touch in x
    ("lk-prune-touch", "src/dilink/invariants.py",
     "if ex0 > fx1",
     "if ex0 >= fx1",
     ("tests/test_linktable.py",)),
    # the heavy-vector walk ignores the offset it was given
    ("heavy-from-zero", "src/dilink/z2linalg.py",
     "x = offset",
     "x = 0",
     ("tests/test_z2linalg.py",)),
    # the heavy-vector walk keeps a row that only ties
    ("heavy-keeps-ties", "src/dilink/z2linalg.py",
     "if weight((x ^ row) & fresh) > weight(x & fresh):",
     "if weight((x ^ row) & fresh) >= weight(x & fresh):",
     ("tests/test_z2linalg.py", "tests/test_engine.py")),
    # big_z's checker, which its replay calls, no longer checks the bound
    ("replay-bound", "src/dilink/checks.py",
     "if 2 * len(odd) < n:",
     "if False:",
     ("tests/test_engine.py",)),
    # bipar_z's checker lets a linking number of exactly lam through
    ("check-bipar-threshold", "src/dilink/checks.py",
     "if abs(v) <= lam:",
     "if abs(v) < lam:",
     ("tests/test_checks.py", "tests/test_engine.py")),
    # lemma1's checker no longer checks the block parities
    ("check-lemma1-parity", "src/dilink/checks.py",
     "if par != 1:",
     "if False:",
     ("tests/test_checks.py",)),
    # prop1's checker lets the rounds share one target too few
    ("check-prop1-intersection", "src/dilink/checks.py",
     "if len(index_set) < n:",
     "if len(index_set) < n - 1:",
     ("tests/test_checks.py",)),
    # big_z's hypothesis check, which its replay calls, no longer checks
    # the diagonal
    ("replay-diagonal", "src/dilink/engine.py",
     "if table.omega(js[i], xs[i]) != 1:",
     "if False:",
     ("tests/test_engine.py",)),
    # big_z's hypothesis check, which its replay calls, no longer compares
    # the family sizes
    ("replay-family-size", "src/dilink/engine.py",
     "if len(js) < 2 or len(js) % 2 or len(js) != len(xs):",
     "if len(js) < 2 or len(js) % 2:",
     ("tests/test_engine.py",)),
    # the CLI's bound check lets a value one below a flag's least value through
    ("cli-least-bound", "src/dilink/workbench/cli.py",
     "value < least:",
     "value < least - 1:",
     ("tests/test_workbench.py",)),
]


def run(name: str, path: str, old: str, new: str, tests, timeout: float = 600) -> dict:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / path
        target.write_text(target.read_text().replace(old, new, 1))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                cwd=tmp, env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                text=True, timeout=timeout,
            )
            lines = out.stdout.splitlines()
            killed, summary = out.returncode != 0, lines[-1] if lines else ""
            failed = [ln.split()[1] for ln in lines if ln.startswith("FAILED ")]
        except subprocess.TimeoutExpired:
            killed, summary, failed = True, "timeout", []
    return {"name": name, "killed": killed, "summary": summary, "failed": failed,
            "seconds": round(time.perf_counter() - start, 1)}


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    for mutant in MUTANTS:
        if not wanted or mutant[0] in wanted:
            print(json.dumps(run(*mutant)), flush=True)
