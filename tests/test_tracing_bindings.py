"""The traced benchmark run binds sidalign functions by name; each must exist.

perfbench/tracing.py lists (module, function) and (module, class, method)
entries that `python3 perfbench/run.py --trace 1` wraps. Deleting or renaming
one of them breaks the traced run, so this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for mod_name, fn_name in tracing.FUNCTIONS:
        module = importlib.import_module(f"sidalign.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    for mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"sidalign.{mod_name}"), cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert not missing, missing
    assert set(tracing.MODULES) >= {m for m, _ in tracing.FUNCTIONS}
