"""Every function the benchmark tracer reports by name must exist where it
looks for it: `perfbench/tracer.layer_metrics` raises KeyError for a name
that is not a module-level function of its qybe layer.  The tracer module
is only read here, never installed."""

import importlib
import inspect
import types
from pathlib import Path

import pytest


def _load_tracer():
    # executed from its source, so no bytecode is written next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACER = _load_tracer()
REPORTED = ([(layer, fn) for layer, fns in TRACER.FUNCTIONS.items() for fn in fns]
            + [tuple(name.split(".")) for name in TRACER.REDUNDANCY_KEYS])


@pytest.mark.parametrize("layer,fn", REPORTED, ids=".".join)
def test_tracer_reports_a_function_of_its_layer(layer, fn):
    # the tracer wraps the functions a layer defines, and a private one only
    # when a sibling imports it, so a reported name must be public
    assert layer in TRACER.LAYERS
    module = importlib.import_module(f"qybe.{layer}")
    obj = getattr(module, fn, None)
    assert inspect.isfunction(obj), f"qybe.{layer}.{fn} is not a function"
    assert obj.__module__ == module.__name__, f"qybe.{layer}.{fn} is defined in {obj.__module__}"
    assert not fn.startswith("_")
