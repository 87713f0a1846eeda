"""The benchmark's span hooks resolve on the current package.

``perfbench/layers.py`` patches egn entry points by attribute name. A
refactor that unbinds one of them would only fail inside a benchmark run;
this check fails it here instead.
"""

from conftest import load_perfbench_layers


def test_every_patched_attribute_resolves():
    patches = load_perfbench_layers().patches()
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in patches
        if not callable(getattr(owner, attribute, None))
    ]
    assert not missing, missing
