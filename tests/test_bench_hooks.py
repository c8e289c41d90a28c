"""The benchmark's tracer wraps tprod functions by name; keep those names.

``perfbench/tracer.py`` installs timing wrappers on the ``(module, attr)``
pairs in its ``SPANS`` table.  A rename in ``tprod`` would break
``perfbench/run.py --trace 1`` without failing any library test, so this
loads the tracer by file path and resolves every pair.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    spans = _load_tracer().SPANS
    assert spans
    missing = []
    for name, (modname, attr) in spans.items():
        module = importlib.import_module(modname)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{name}: {modname}.{attr}")
    assert not missing, missing
