"""The benchmark tracer wraps library functions by name; a traced run
crashes if one of them is renamed or removed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, functions in tracer.LAYERS.items():
        target = importlib.import_module(f"conealg.{module}")
        for name in functions:
            assert callable(getattr(target, name, None)), f"conealg.{module}.{name}"
