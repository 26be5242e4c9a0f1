"""The benchmark's tracer (perfbench/tracer.py) finds every name it hooks.

The tracer looks its layer functions and node builders up by module and
attribute name; one missing name makes every traced benchmark run fail.
The file is loaded by path and never installed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
HOOKS = ([(mod, attr) for mod, attr, _ in _tracer.FUNCTIONS]
         + [(mod, attr) for mod, attr in _tracer.NODE_BUILDERS])


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_tracer_hook_resolves(module, attr):
    obj = importlib.import_module(f"laguerre_lab.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
