"""Every function the benchmark tracer wraps still exists where it looks.

perfbench/tracer.py names its traced layers as (module, qualified name)
pairs, and BENCHMARK.json's per-layer metrics are named after them.  A
function moved or renamed in the package would break the traced benchmark
run; this finds it on every Python the tests run on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("modname,qualname", tracer.SPANNED + tracer.COUNTED,
                         ids=[f"{m}.{q}" for m, q in tracer.SPANNED + tracer.COUNTED])
def test_traced_target_resolves(modname, qualname):
    importlib.import_module("cobordlab.acceptance")
    importlib.import_module("cobordlab.cli")
    module = importlib.import_module(f"cobordlab.{modname}")
    owner, attr = tracer._lookup(module, qualname)
    assert callable(getattr(owner, attr))
