"""The benchmark's trace mode wraps dilink functions by name; every name
it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        (home, attr)
        for home, attr, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []
