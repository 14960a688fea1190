"""The benchmark's tracer (perfbench/tracer.py) wraps curmeta functions by name.

A traced name that no longer exists crashes every traced benchmark run, so
each one must stay a callable of its curmeta module.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_curmeta_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, function, _ in tracer.LAYERS:
        fn = getattr(importlib.import_module(f"curmeta.{module}"), function, None)
        assert callable(fn), f"curmeta.{module}.{function}"
