"""Every name in the benchmark tracer's TRACED table is a live vftk function."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _is_own_function(module, name):
    """True if module.name is a function defined there, maybe behind a cache wrapper."""
    obj = getattr(module, name, None)
    if not callable(obj) or obj.__module__ != module.__name__:
        return False
    return inspect.isfunction(inspect.unwrap(obj))


def test_every_traced_name_is_a_vftk_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.TRACED.items()
        for fn in fns
        if not _is_own_function(importlib.import_module(f"vftk.{mod}"), fn)
    ]
    assert missing == []
    assert {"det", "inverse"} <= set(tracer.TRACED["intmat"])
