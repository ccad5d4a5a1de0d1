"""Spans around dilink's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every place it is
bound: its home module and every ``dilink`` module that imported it by
name.  Spans (name, start, end, parent, op id, counters) stay in memory
until ``write``.  A traced function called from inside a span of the same
name joins that span rather than opening a new one, so ``linking_number``
calling ``linking_table`` counts as one lk query.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (home module, function, span name)
TRACED = (
    ("dilink.geom", "validate_general_position", "geom.validate"),
    ("dilink.geom", "project_to_diagram", "geom.project"),
    ("dilink.invariants", "linking_number", "invariants.lk"),
    ("dilink.invariants", "linking_table", "invariants.lk"),
    ("dilink.invariants", "project_with_retry", "invariants.retry"),
    ("dilink.invariants", "a2", "invariants.a2"),
    ("dilink.invariants", "a2_skein", "invariants.a2_skein"),
    ("dilink.z2linalg", "heavy_vector", "z2linalg.heavy_vector"),
    ("dilink.digraph", "realize", "digraph.realize"),
    ("dilink.digraph", "connector_cycle", "digraph.connector"),
    ("dilink.digraph", "nabla", "digraph.nabla"),
    ("dilink.digraph", "nabla_eps", "digraph.nabla"),
    ("dilink.patterns", "compute_pattern", "patterns.compute_pattern"),
    ("dilink.engine", "big_z", "engine.big_z"),
    ("dilink.engine", "replay_certificate", "engine.replay"),
    ("dilink.engine", "lemma1_find_odd_links", "engine.lemma1"),
    ("dilink.engine", "search_lemma7_knot", "engine.search"),
    ("dilink.workbench.serialization", "load_instance", "workbench.load"),
    ("dilink.workbench.cli", "_cmd_gen", "workbench.generate"),
    ("dilink.workbench.cli", "main", "workbench.cli"),
)


def _on_call(name: str, args) -> dict:
    if name == "geom.validate":
        return {"segments": args[0].segment_count()}
    if name == "geom.project":
        return {"segments": sum(len(pts) for pts in args[0])}
    if name == "z2linalg.heavy_vector":
        return {"rows": len(args[0].rows)}
    return {}


def _on_return(name: str, result, counts: dict) -> None:
    if name == "geom.project":
        counts["crossings"] = len(result.crossings)
    elif name == "engine.search":
        counts["candidates"] = result.candidates_tried
        counts["found"] = int(result.status == "found")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = "setup"
        self.spans: list[list] = []  # [name, start, end, parent, op_id, counts]
        self._stack: list[int] = []

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "dilink" or n.startswith("dilink.")]
        wrappers = {}
        for home, attr, name in TRACED:
            fn = getattr(sys.modules[home], attr)
            wrappers[id(fn)] = self._wrap(fn, name)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    setattr(mod, attr, wrappers[id(value)])

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (self._stack and self.spans[self._stack[-1]][0] == name):
                return fn(*args, **kwargs)
            return self._run(fn, name, args, kwargs)

        return traced

    def _run(self, fn, name, args, kwargs):
        counts = _on_call(name, args)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.op_id, counts]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except Exception as ex:
            counts["error"] = type(ex).__name__
            raise
        else:
            _on_return(name, result, counts)
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def op(self, op_id, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op_id = op_id
        return self._run(fn, "op", args, {})

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_totals(self, op_ids) -> dict[str, dict]:
        """Per span name: calls, self time and summed counters over the
        spans of the given ops."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if s[4] not in op_ids:
                continue
            agg = out[s[0]]
            agg["calls"] += 1
            agg["self_s"] += s[2] - s[1] - child_time[i]
            for k, v in s[5].items():
                if k == "error":
                    agg["error:" + v] += 1
                else:
                    agg[k] += v
        return out
