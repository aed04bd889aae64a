"""The benchmark's tracer (bench/tracing.py) wraps tabbench functions by module
and attribute name, so a rename in src/ must fail here rather than crash a
traced benchmark run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_every_traced_call_site_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(module, attr, None))]
    assert missing == []
