"""Every metric the benchmark reports, with its unit.

``END_TO_END`` is what a run prints with ``--trace 0``; ``PER_LAYER`` is
the traced run's layer ledger.  ``BENCHMARK.json`` lists the same names
and units (checked by the benchmark's tests).
"""

END_TO_END = {
    "apps_per_s": "apps/s",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "recover_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "spool_kb_per_app": "KB",
    "cpu_ms_per_app": "ms",
}

PER_LAYER = {
    # serve.codec, serve.queue
    "codec.encode_us": "us",
    "queue.submit_us": "us",
    "queue.mark_done_us": "us",
    "queue.wal_bytes_per_app": "bytes",
    "queue.replay_s": "s",
    "queue.replayed_records": "count",
    # core.engine + emulator
    "engine.attempt_us": "us",
    "engine.attempts_per_app": "count",
    "engine.useful_ratio": "ratio",
    # core.pipeline
    "pipeline.self_us_per_run": "us",
    "pipeline.apps_per_run": "count",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.queue_wait_ms": "ms",
    # core.checker + ml.forest, core.features
    "checker.score_us_per_app": "us",
    "features.encode_us_per_app": "us",
    # rules.evaluator
    "rules.evaluate_us_per_flagged": "us",
    "rules.calls_per_run": "count",
    # drift.detectors, serve.registry shadow
    "drift.record_us_per_app": "us",
    "registry.shadow_us_per_app": "us",
    # serve.registry, serve.rulesets
    "registry.load_s": "s",
    "registry.lease_us": "us",
    # serve.service
    "service.batches": "count",
    "service.batch_fill": "ratio",
    "service.queue_depth_max": "count",
    # serve.http
    "http.rtt_ms": "ms",
    "http.submit_us": "us",
    # serve.shard
    "shard.router_parse_us": "us",
    "shard.proxy_ms": "ms",
    "shard.start_s": "s",
    "shard.restart_s": "s",
    # benchmark harness (validity of the run, never a scale factor)
    "gen_late_ms": "ms",
    "host_ref_ms": "ms",
    "trace_overhead_pct": "%",
    "trace_cpu_share_pct": "%",
    "trace_missing_layers": "count",
}
