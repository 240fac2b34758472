"""The traced benchmark runs wrap library functions by name; every name
they list must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{modname}.{fn}" for modname, fns in tracing.LAYERS.values()
               for fn in fns if not callable(getattr(importlib.import_module(modname), fn, None))]
    assert missing == []
