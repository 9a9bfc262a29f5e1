"""Tiny-scale smoke runs: every workload end to end, checks active.

Each run is shrunk only in size (fewer apps, repetitions and seconds);
the phases, checks and metrics are the full benchmark's.  The fixed
world is the benchmark's own cached one (built on first use).
"""

import importlib

import pytest

import layertrace
import metrics
import run
import workloads


@pytest.fixture(scope="module")
def world():
    return run.load_world()


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_DAY", 300)
    monkeypatch.setattr(workloads, "BACKLOG_SHIFTS", 3)  # of 100 apps each
    monkeypatch.setattr(workloads, "ROUTER_RATE", 100.0)
    monkeypatch.setattr(workloads, "ROUTER_RESTARTS", 1)
    monkeypatch.setattr(workloads, "ROUTER_SETUPS", 1)


def _entry_points():
    resolved = []
    for _, module, path, _ in layertrace.ENTRY_POINTS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        resolved.append(owner)
    return resolved


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
def test_workload_smoke(name, traced, world, tiny, tmp_path):
    tracer = layertrace.Tracer().install() if traced else None
    try:
        inputs = workloads.prepare(name, 3, 1, tmp_path / "models", world)
        ctx = workloads.Context(name, 3, 1, tmp_path, inputs, tracer)
        if not traced:
            # End-to-end runs never see a wrapped entry point.
            assert not any(hasattr(f, "__wrapped__") for f in _entry_points())
        workloads.run_workload(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert ctx.failures == []
    assert ctx.attempted >= 100
    if traced:
        assert tracer.missing == []
        assert set(ctx.layers) <= set(metrics.PER_LAYER)
        if name == "router_http":
            assert ctx.layers["http.rtt_ms"] > 0
            assert ctx.layers["pipeline.cache_hit_ratio"] >= ctx.resubmit_share
    else:
        assert set(ctx.metrics) == set(metrics.END_TO_END)
        assert all(value > 0 for value in ctx.metrics.values())
