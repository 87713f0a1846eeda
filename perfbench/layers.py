"""egn's layers as the traced run sees them: which entry points get a span,
what each span counts, and the per-layer metrics derived from them.

Functions are patched on every module that binds them, since egn modules
import each other's functions by name.
"""

from __future__ import annotations

import re

import numpy as np

from egn import basis, engine, graph, partition, runtime, system, tape, tasks

# runtime stage_seconds keys with the block index removed, in schedule order.
STAGES = (
    "init", "tu", "eu", "nu", "eu2", "sym", "gu", "readout",
    "backward.readout", "backward.gu", "backward.sym", "backward.eu2", "backward.nu",
    "backward.eu", "backward.tu", "backward.init", "backward.geometry", "backward.reduce",
)

# Per-layer metrics: (name, unit, better). Times are self times per op;
# counts and stage times are summed per op.
PER_LAYER = (
    ("system.validate_ms", "ms", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("graph.triplets_ms", "ms", "lower"),
    ("graph.reverse_edges_ms", "ms", "lower"),
    ("graph.build_alloc_mib", "MiB", "lower"),
    ("graph.edges", "count", "lower"),
    ("graph.triplets", "count", "lower"),
    ("basis.compute_ms", "ms", "lower"),
    ("partition.partition_ms", "ms", "lower"),
    ("engine.forward_ms", "ms", "lower"),
    ("engine.forward_alloc_mib", "MiB", "lower"),
    ("tape.backward_ms", "ms", "lower"),
    ("tape.backward_calls", "count", "lower"),
    ("runtime.group_init_ms", "ms", "lower"),
    ("runtime.forward_ms", "ms", "lower"),
    ("runtime.forward_backward_ms", "ms", "lower"),
    ("runtime.allreduce_ms", "ms", "lower"),
    ("runtime.allreduce_calls", "count", "lower"),
    ("runtime.allreduce_elements", "count", "lower"),
    *((f"runtime.stage_ms.{stage}", "ms", "lower") for stage in STAGES),
    ("tasks.driver_ms", "ms", "lower"),
    ("process.cpu_ms", "ms", "lower"),
)

TIMES = tuple(name for name, unit, _ in PER_LAYER if unit == "ms" and name != "process.cpu_ms")
ALLOCS = tuple(name for name, unit, _ in PER_LAYER if unit == "MiB")
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _graph_counts(result, args):
    topology = result[0]
    return {"graph.edges": topology.num_edges, "graph.triplets": topology.num_triplets}


def _allreduce_counts(result, args):
    _, rank, buffer = args[:3]
    if rank != 0:  # one collective, counted once
        return {}
    return {"runtime.allreduce_calls": 1, "runtime.allreduce_elements": int(np.size(buffer))}


_BLOCK = re.compile(r"block\d+\.")


def _stage_ms(result, args):
    run = result[0] if isinstance(result, tuple) else result
    out: dict[str, float] = {}
    for stage, seconds in run.stage_seconds.items():
        key = "runtime.stage_ms." + _BLOCK.sub("", stage)
        out[key] = out.get(key, 0.0) + seconds * 1e3
    return out


def _one_call(result, args):
    return {"tape.backward_calls": 1}


def patches():
    """(owner, attribute, span name, counter, memory) for Tracer.install."""
    return [
        (system.AtomicSystem, "__post_init__", "system.validate", None, False),
        *((mod, "build_graph", "graph.build", _graph_counts, True)
          for mod in (graph, engine, runtime, tasks)),
        (graph, "enumerate_triplets", "graph.triplets", None, False),
        (graph.GraphTopology, "reverse_edges", "graph.reverse_edges", None, False),
        *((mod, "compute_basis", "basis.compute", None, False) for mod in (basis, runtime)),
        *((mod, "partition_graph", "partition.partition", None, False)
          for mod in (partition, runtime)),
        (engine.ModelTape, "__init__", "engine.forward", None, True),
        (tape.Tape, "backward", "tape.backward", _one_call, False),
        (runtime.WorkerGroup, "__init__", "runtime.group_init", None, False),
        (runtime.WorkerGroup, "forward", "runtime.forward", _stage_ms, False),
        (runtime.WorkerGroup, "forward_backward", "runtime.forward_backward", _stage_ms, False),
        (runtime.Collective, "allreduce_sum", "runtime.allreduce", _allreduce_counts, False),
        *((tasks, fn, "tasks.driver", None, False)
          for fn in ("predict", "relax", "train_simple", "loss_and_grads")),
    ]
