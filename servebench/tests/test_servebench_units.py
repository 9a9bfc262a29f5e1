"""Unit tests of the benchmark's statistics, load generator and tracer."""

import json
import re
import threading
import time
from pathlib import Path

import pytest

import layertrace
import metrics
from loadgen import (
    CompletionWatcher,
    Submission,
    TooFewSamples,
    percentile,
    run_open_loop,
    trimmed_mean,
    windowed_rate,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class _App:
    def __init__(self, md5):
        self.md5 = md5


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(q, enough):
    with pytest.raises(TooFewSamples):
        percentile(list(range(enough - 1)), q)
    assert percentile(list(range(enough)), q) == pytest.approx(
        (enough - 1) * q / 100
    )


def test_trimmed_mean_drops_one_stalled_phase_and_follows_the_host_mix():
    # One stalled phase out of ten does not move it.
    assert trimmed_mean([1.0] * 9 + [50.0]) == 1.0
    # A host that flips between a fast (1.0) and a slow (2.0) state:
    # one more slow phase moves the figure by a step, not to the other
    # state's value as the median would.
    four_slow = [1.0] * 6 + [2.0] * 4
    five_slow = [1.0] * 5 + [2.0] * 5
    assert trimmed_mean(four_slow) == pytest.approx(1.375)
    assert trimmed_mean(five_slow) == pytest.approx(1.5)
    assert trimmed_mean([3.0, 5.0]) == 4.0


def test_windowed_rate_is_the_median_slice_rate():
    times = [0.005 + i * 0.01 for i in range(100)]
    times += [1.05 + i * 0.1 for i in range(10)]
    # Slices of 0.4 s over [0, 2] hold 40, 40, 22, 4 and 4 events.
    assert windowed_rate(times, 0.0, 2.0) == pytest.approx(22 / 0.4)


def test_stalled_service_shows_lateness_in_later_requests():
    """One stalled request makes every later send late (open loop)."""
    schedule = [
        Submission(_App(f"{i:032x}"), "bulk", "fresh", due=i * 0.02)
        for i in range(8)
    ]

    def send(item):
        item.sent_at = time.perf_counter()
        if item is schedule[2]:
            time.sleep(0.2)  # the service stalls on the third request
        item.acked_at = time.perf_counter()

    run_open_loop(schedule, send)
    late = [item.late_ms for item in schedule]
    assert max(late[:3]) < 15
    # Sends due during the stall go out only after it: each is late by
    # the rest of the stall, and an open loop never waits them out.
    for i in range(3, 8):
        assert late[i] > 200 - 20 * (i - 2) - 15


def test_watcher_stamps_each_outcome_once_it_differs_from_before():
    outcomes = {}
    watcher = CompletionWatcher(lambda md5: outcomes.get(md5, {}), interval=0.001)
    old = {"status": "done", "model_version": 1, "from_cache": False}
    fresh = Submission(_App("a" * 32), "bulk", "fresh")
    resubmit = Submission(_App("b" * 32), "resubmit", "resubmit", prev=old)
    outcomes["b" * 32] = old
    watcher.watch(fresh)
    watcher.watch(resubmit)
    watcher.start()
    try:
        time.sleep(0.02)
        assert fresh.seen_at is None and resubmit.seen_at is None
        outcomes["a" * 32] = {"status": "done", "model_version": 1}
        outcomes["b" * 32] = dict(old, from_cache=True)
        assert watcher.wait(5.0)
    finally:
        watcher.stop()
    assert not watcher.is_alive()
    assert fresh.outcome["status"] == "done"
    assert resubmit.outcome["from_cache"] is True


def test_every_metric_has_a_unit_and_matches_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    for table, key in ((metrics.END_TO_END, "end_to_end"),
                       (metrics.PER_LAYER, "per_layer")):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        assert all(unit_ok.match(unit) for unit in table.values())


def test_tracer_reports_a_vanished_entry_point_and_restores_originals():
    from repro.serve.queue import SubmissionQueue

    original = SubmissionQueue.mark_done
    entries = (
        ("queue.mark_done", "repro.serve.queue", "SubmissionQueue.mark_done", None),
        ("gone", "repro.serve.queue", "SubmissionQueue.no_such_method", None),
        ("gone", "repro.no_such_module", "anything", None),
    )
    tracer = layertrace.Tracer(entries).install()
    try:
        assert SubmissionQueue.mark_done is not original
        assert len(tracer.missing) == 2
    finally:
        tracer.uninstall()
    assert SubmissionQueue.mark_done is original


def test_tracer_self_time_excludes_nested_spans_on_the_same_thread():
    tracer = layertrace.Tracer(entry_points=())

    def inner():
        time.sleep(0.03)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    with tracer.recording("main"):
        traced_outer()
        worker = threading.Thread(target=traced_inner)
        worker.start()
        worker.join(5.0)
    assert not worker.is_alive()
    outer_stats = tracer.layer("outer")
    assert outer_stats.calls == 1
    assert 0.008 < outer_stats.self_wall < 0.025
    assert tracer.layer("inner").calls == 2
    assert tracer.overhead_pct() >= 0.0
