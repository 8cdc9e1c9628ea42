"""The benchmark's tracer wraps afkit functions by name; each name must exist.

A deleted or renamed function would otherwise only show up when someone runs
``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for layer, attr, _ in load_tracing().TARGETS:
        module = importlib.import_module(f"afkit.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"afkit.{layer}.{attr}")
    assert missing == []
