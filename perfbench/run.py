"""Run one egn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload relax-dimenet --seed 1 --seconds 35 --trace 0

Run from the root of an egn source tree: the benchmark imports egn from
``src/`` next to this directory and exits with code 2, printing no result,
when it is not there. Inputs are made from ``--seed``; one caller runs ops
back to back (closed loop) with the program's default threading.

``--trace 0`` prints the end-to-end metrics: set-up time, op time p50 and
p90, ops per second and peak RSS. Set-up time is on the process CPU clock
(all threads), which leaves out time the hypervisor steals from a shared
machine; op times are on the clock the workload names in ``op_clock``,
and the result file holds them on both clocks. ``--trace 1`` prints
the per-layer metrics: a quarter of the time runs untraced to measure CPU
time per op, the rest runs with spans around egn's layer entry points.
The last line of standard output is the result as one JSON object;
results and traces are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("relax-dimenet", "predict-gemnet-large", "train-gemnet-p2")
SETUPS = 3  # set-up repeats per run; setup_s is their median plus import time
MIN_OPS = 100  # so that at least ten timed ops lie beyond p90
TRACED_MIN_OPS = 20
COUNT_OPS = 10  # counts are averaged over this many first traced ops
LIMIT_FACTOR = 1.2  # a timed loop stops at this multiple of its seconds even short of MIN_OPS
CLOCKS = {"cpu": "cpu_seconds", "wall": "seconds"}  # OpRecord attribute of each clock
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRecord:
    index: int
    seconds: float
    cpu_seconds: float
    memory: bool = False
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def timed_loop(workload, start, seconds, min_ops, run_op, limit=None) -> list[OpRecord]:
    """Ops back to back until ``seconds`` have passed and ``min_ops`` ran,
    or ``limit`` seconds (by default ``LIMIT_FACTOR * seconds``) have passed."""
    limit = LIMIT_FACTOR * seconds if limit is None else limit
    records: list[OpRecord] = []
    begin = time.perf_counter()
    index = start
    while True:
        inp = workload.next_input(index)
        cpu = time.process_time()
        tic = time.perf_counter()
        try:
            out, memory = run_op(index, inp)
            problems = None
        except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems, memory = [("op.completes", repr(exc))], False
        toc = time.perf_counter()
        rec = OpRecord(index, toc - tic, time.process_time() - cpu, memory)
        rec.problems = problems if problems is not None else workload.finish_op(inp, out)
        records.append(rec)
        index += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (len(records) >= min_ops or elapsed >= limit):
            return records


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy.percentile computes it."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def latency(records: list[OpRecord], clock: str) -> dict:
    """p50 and p90 over ops that passed, in ms, and ops that passed per
    second of all ops' time, on the ``clock`` attribute of the records."""
    passed = [getattr(r, clock) for r in records if not r.failed]
    passed = passed or [getattr(r, clock) for r in records]
    busy = sum(getattr(r, clock) for r in records)
    done = sum(1 for r in records if not r.failed)
    return {
        "op_ms_p50": statistics.median(passed) * 1e3,
        "op_ms_p90": quantile(passed, 0.9) * 1e3,
        "ops_per_s": done / busy,
    }


def end_to_end(records: list[OpRecord], setup_s: float, peak_rss_mib: float,
               op_clock: str = "cpu") -> dict:
    """Set-up time on the process CPU clock, op times on ``op_clock``
    (``"cpu"`` or ``"wall"``), peak RSS."""
    ops = latency(records, CLOCKS[op_clock])
    return {
        "setup_s": metric(setup_s, "s"),
        "op_ms_p50": metric(ops["op_ms_p50"], "ms"),
        "op_ms_p90": metric(ops["op_ms_p90"], "ms"),
        "ops_per_s": metric(ops["ops_per_s"], "1/s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }


def per_layer(spans, untraced: list[OpRecord], traced: list[OpRecord]) -> dict:
    """Per-op layer metrics: self times from traced ops without allocation
    tracing, allocation peaks from ops with it, counts from the first
    traced ops, CPU time from the untraced ops."""
    import layers
    from spans import mean_over, per_op_totals

    rows = per_op_totals(spans)
    ok = [r for r in traced if not r.failed]
    values = {}
    values.update(mean_over([rows[r.index] for r in ok if not r.memory], layers.TIMES))
    values.update(mean_over([rows[r.index] for r in ok if r.memory], layers.ALLOCS))
    values.update(mean_over([rows[r.index] for r in traced[:COUNT_OPS]], layers.COUNTS))
    cpu = [r.cpu_seconds for r in untraced if not r.failed] or [0.0]
    values["process.cpu_ms"] = statistics.fmean(cpu) * 1e3
    return {name: metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}


def summary(records: list[OpRecord], run_problems, metrics: dict) -> dict:
    failed = sum(1 for r in records if r.failed)
    return {
        "correct": failed == 0 and not run_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def _write_json(path: Path, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "egn" / "__init__.py").is_file():
        print(f"error: no egn sources at {SRC}; run from an egn source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import egn

    if Path(egn.__file__).resolve().parent != (SRC / "egn").resolve():
        print(f"error: imported egn from {egn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from spans import Tracer, chrome_trace
    from workloads import WORKLOADS

    imported = time.process_time()  # CPU time since the process started

    setups, setups_wall = [], []
    for _ in range(SETUPS):
        cpu, tic = time.process_time(), time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        setups.append(time.process_time() - cpu)
        setups_wall.append(time.perf_counter() - tic)
    setup_s = imported + statistics.median(setups)

    def installed_tracer():
        tracer = Tracer()
        tracer.install(layers.patches())
        return tracer

    def untraced_op(index, inp):
        return workload.op(inp), False

    env = environment()
    info: dict = {"env": env, "inputs": workload.describe(),
                  "setup_cpu_s": [imported, *setups],
                  "setup_wall_s": setups_wall}
    if not args.trace:
        records = timed_loop(workload, 1, args.seconds, MIN_OPS, untraced_op)
        untraced, traced, tracer = records, [], None
    else:
        # Traced ops take the inputs of untraced runs' ops 1, 2, ..., so that
        # counts repeat exactly; the untraced quarter draws from far beyond.
        untraced = timed_loop(workload, 10**6, args.seconds / 4, 5, untraced_op)
        tracer = Tracer()
        patches = layers.patches()

        def traced_op(index, inp):
            memory = index % 2 == 0  # alternate ops trace allocations
            tracer.install(patches)
            try:
                with tracer.op_span(index, memory):
                    return workload.op(inp), memory
            finally:
                tracer.close()

        traced = timed_loop(workload, 1, args.seconds * 3 / 4, TRACED_MIN_OPS, traced_op)
        records = untraced + traced
        clock = CLOCKS[workload.op_clock]
        plain = [getattr(r, clock) for r in traced if not r.memory and not r.failed]
        base = [getattr(r, clock) for r in untraced if not r.failed]
        if plain and base:
            info["trace_overhead"] = statistics.median(plain) / statistics.median(base) - 1.0

    # Peak RSS of set-up and ops, before the run-level checks add their own.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_problems = workload.check_run(installed_tracer)
    info["peak_rss_mib_after_checks"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = per_layer(tracer.spans, untraced, traced)
    else:
        metrics = end_to_end(records, setup_s, peak_rss_mib, workload.op_clock)
        info["op_clock"] = workload.op_clock
        info.update({clock: latency(records, attr) for clock, attr in CLOCKS.items()})
    info["op_wall_s"] = [r.seconds for r in records]
    info["op_cpu_s"] = [r.cpu_seconds for r in records]
    result = summary(records, run_problems, metrics)

    for rec in records:
        for name, reason in rec.problems:
            print(f"FAILED op {rec.index} check {name}: {reason}", file=sys.stderr)
    for name, reason in run_problems:
        print(f"FAILED check {name}: {reason}", file=sys.stderr)
    info["run_check_failures"] = [list(p) for p in run_problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_json(RESULTS / f"{stem}.json", {"result": result, **info})
    if tracer is not None:
        keep = {r.index for r in traced[:TRACED_MIN_OPS]}
        _write_json(RESULTS / f"{stem}.spans.json",
                    chrome_trace([s for s in tracer.spans if s.op in keep]))
    print("# env " + json.dumps(env, sort_keys=True))
    if "trace_overhead" in info:
        print(f"# traced op p50 is {info['trace_overhead']:+.1%} over untraced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
