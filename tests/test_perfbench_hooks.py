"""The benchmark's span hooks resolve on the current package.

``perfbench/layers.py`` patches egn entry points by attribute name. A
refactor that unbinds one of them would only fail inside a benchmark run;
this check fails it here instead.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves():
    patches = _load_layers().patches()
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in patches
        if not callable(getattr(owner, attribute, None))
    ]
    assert not missing, missing
