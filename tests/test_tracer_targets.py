"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
module and name; each name it wraps must stay on the library, or every
traced benchmark run fails when it patches them."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{mod.__name__}.{attr}" for mod, attr in tracing.TARGETS
               if not callable(getattr(mod, attr, None))]
    assert missing == []
