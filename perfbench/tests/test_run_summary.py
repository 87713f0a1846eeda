import numpy as np
import pytest

import run
from run import OpRecord


def _records(times, failed=()):
    recs = [OpRecord(i, t, t) for i, t in enumerate(times)]
    for i in failed:
        recs[i].problems = [("check", "wrong")]
    return recs


def test_summary_counts_attempted_and_failed():
    recs = _records([0.1, 0.2, 0.3, 0.4], failed=(1, 3))
    out = run.summary(recs, [], {"m": 1})
    assert (out["attempted"], out["failed"], out["correct"]) == (4, 2, False)
    assert out["metrics"] == {"m": 1}
    assert list(out) == ["correct", "attempted", "failed", "metrics"]

    clean = run.summary(_records([0.1, 0.2]), [], {})
    assert (clean["attempted"], clean["failed"], clean["correct"]) == (2, 0, True)
    run_level = run.summary(_records([0.1]), [("train.loss_slope", "off")], {})
    assert (run_level["failed"], run_level["correct"]) == (0, False)


def test_end_to_end_metrics_skip_failed_latencies_but_count_their_time():
    times = [0.01 * (i + 1) for i in range(100)]
    recs = _records(times, failed=(99,))
    m = run.end_to_end(recs, setup_s=1.5, peak_rss_mib=64.0)
    passed = times[:99]
    assert m["op_ms_p50"] == {"value": pytest.approx(np.median(passed) * 1e3), "unit": "ms"}
    assert m["op_ms_p90"]["value"] == pytest.approx(np.percentile(passed, 90) * 1e3)
    assert m["ops_per_s"] == {"value": pytest.approx(99 / sum(times)), "unit": "1/s"}
    assert m["setup_s"] == {"value": 1.5, "unit": "s"}
    assert m["peak_rss_mib"] == {"value": 64.0, "unit": "MiB"}


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_quantile_matches_numpy(q):
    values = list(np.random.default_rng(3).exponential(size=37))
    assert run.quantile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_timed_loop_counts_raised_ops_as_failed():
    class Flaky:
        def next_input(self, i):
            return i

        def finish_op(self, inp, out):
            return [] if out else [("odd", "odd input")]

    def op(index, inp):
        if inp == 2:
            raise ValueError("boom")
        return inp % 2 == 0, False

    recs = run.timed_loop(Flaky(), 0, 0.0, 5, op, limit=60.0)
    assert [r.index for r in recs] == [0, 1, 2, 3, 4]
    assert [r.failed for r in recs] == [False, True, True, True, False]
    assert recs[2].problems[0][0] == "op.completes"


def test_end_to_end_op_times_follow_the_workload_clock():
    recs = [OpRecord(i, 0.1 * (i + 1), 0.2 * (i + 1)) for i in range(10)]
    wall = run.end_to_end(recs, setup_s=1.0, peak_rss_mib=1.0, op_clock="wall")
    cpu = run.end_to_end(recs, setup_s=1.0, peak_rss_mib=1.0, op_clock="cpu")
    assert wall["op_ms_p50"]["value"] == pytest.approx(550.0)
    assert cpu["op_ms_p50"]["value"] == pytest.approx(1100.0)
    assert wall["ops_per_s"]["value"] == pytest.approx(2 * cpu["ops_per_s"]["value"])
