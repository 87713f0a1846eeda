"""The benchmark runs on the current package.

``perfbench/layers.py`` patches egn entry points by attribute name, and the
workloads call egn's public names. A refactor that unbinds one of them
would only fail inside a benchmark run; these checks fail it here instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import egn

from conftest import load_perfbench_layers

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


def _patched(owner, attribute):
    """The attribute as ``Tracer.install`` looks it up: a class's own
    (``__dict__``), never an inherited one; a module's by name."""
    if isinstance(owner, type):
        return owner.__dict__.get(attribute)
    return getattr(owner, attribute, None)


def test_every_patched_attribute_resolves():
    patches = load_perfbench_layers().patches()
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in patches
        if not callable(_patched(owner, attribute))
    ]
    assert not missing, missing


def test_every_public_name_resolves():
    assert len(set(egn.__all__)) == len(egn.__all__)
    missing = [name for name in egn.__all__ if not hasattr(egn, name)]
    assert not missing, missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_smoke(workload):
    """A short traced run of each declared workload exits cleanly with a
    correct result and no failed op (about 1-2 s each)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
