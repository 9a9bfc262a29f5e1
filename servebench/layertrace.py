"""The traced run's tracer: spans around each layer's public entry points.

The entry points live in one table, :data:`ENTRY_POINTS`.  Installing the
tracer wraps each of them in place; an entry point that no longer exists
is listed in :attr:`Tracer.missing` and its layer reports nothing, so a
refactor that moves a layer shows up as a missing layer rather than a
crashed run.  The tracer is only ever installed for ``--trace 1`` runs,
and :meth:`Tracer.uninstall` puts every original back.

Every span records wall time and the calling thread's CPU time.  A
layer's *self* time is its spans' time minus the time of the spans
nested inside them on the same thread.  Work that runs on a pool thread
(emulation attempts) is therefore never subtracted from the dispatcher
thread's span that waits for it, and CPU self time is not inflated by
threads waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _len_arg(args, result):
    return {"items": len(args[1])}


def _rows_arg(args, result):
    return {"items": int(getattr(args[1], "shape", (len(args[1]),))[0])}


def _pipeline_counts(args, result):
    return {
        "items": len(args[1]),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }


def _queue_depth(args, result):
    return {"peak_depth": args[0].depth}


#: (layer, module, attribute path, counter) — counter(args, result)
#: returns extra per-call counts; ``peak_*`` keys keep their maximum.
ENTRY_POINTS = (
    ("codec.encode", "repro.serve.queue", "apk_to_dict", None),
    ("queue.submit", "repro.serve.queue", "SubmissionQueue.submit", _queue_depth),
    ("queue.mark_done", "repro.serve.queue", "SubmissionQueue.mark_done", None),
    ("queue.open", "repro.serve.queue", "SubmissionQueue.__init__", None),
    ("engine.attempt", "repro.core.engine", "DynamicAnalysisEngine.attempt", None),
    ("pipeline.run", "repro.core.pipeline", "VettingPipeline.run", _pipeline_counts),
    (
        "checker.score",
        "repro.core.checker",
        "ApiChecker.verdicts_from_observations",
        _len_arg,
    ),
    ("features.encode", "repro.core.features", "FeatureSpace.encode_batch", _len_arg),
    ("rules.evaluate", "repro.rules.evaluator", "RuleEvaluator.evaluate_one", None),
    ("drift.record", "repro.drift.detectors", "DriftMonitorBank.record_block", _rows_arg),
    ("drift.record", "repro.drift.detectors", "DriftMonitorBank.record_shadow", None),
    ("registry.load", "repro.serve.registry", "ModelRegistry.load", None),
    ("registry.lease", "repro.serve.registry", "RWLock.acquire_read", None),
    (
        "registry.shadow",
        "repro.serve.registry",
        "ModelRegistry.record_shadow_result",
        None,
    ),
    ("http.submit", "repro.serve.http", "ServiceApi.submit", None),
    ("http.submit", "repro.serve.shard", "RouterApi.submit", None),
    ("shard.parse", "repro.serve.shard", "parse_submission", None),
    ("shard.proxy", "repro.serve.shard", "ShardRouter.proxy", None),
    ("shard.start", "repro.serve.shard", "ShardRouter.start", None),
    ("shard.restart", "repro.serve.shard", "ShardRouter.restart_shard", None),
)


@dataclass
class LayerStats:
    calls: int = 0
    errors: int = 0
    wall: float = 0.0
    self_wall: float = 0.0
    self_cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.errors += other.errors
        self.wall += other.wall
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        for key, value in other.counts.items():
            self._count(key, value)

    def _count(self, key: str, value: float) -> None:
        if key.startswith("peak_"):
            self.counts[key] = max(self.counts.get(key, value), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Wraps :data:`ENTRY_POINTS`; records only inside :meth:`recording`."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.missing: list[str] = []
        self.stats: dict[tuple[str, str], LayerStats] = {}
        self.spans = 0
        self.window_wall = 0.0
        self.window_cpu = 0.0
        self._phase = None
        self._tags: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module_name, path, counter in self.entry_points:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{layer}: {module_name}.{path}")
                continue
            wrapper = self.wrap(layer, original, counter, method=bool(parents))
            setattr(owner, name, wrapper)
            self._restore.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def tag(self, instance, layer: str) -> None:
        """Attribute spans of methods called on ``instance`` to ``layer``."""
        self._tags[id(instance)] = layer

    # -- recording -----------------------------------------------------

    @contextmanager
    def recording(self, phase: str):
        """Record spans while the block runs, filed under ``phase``."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._phase = phase
        try:
            yield self
        finally:
            self._phase = None
            self.window_wall += time.perf_counter() - wall0
            self.window_cpu += time.process_time() - cpu0

    def wrap(self, layer, original, counter=None, method=False):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            phase = tracer._phase
            if phase is None:
                return original(*args, **kwargs)
            name = tracer._tags.get(id(args[0]), layer) if method else layer
            stack = tracer._stack()
            children = [0.0, 0.0]
            stack.append(children)
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            result = None
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.thread_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                counts = counter(args, result) if counter and not failed else None
                tracer._record(
                    phase, name, wall, wall - children[0], cpu - children[1],
                    failed, counts,
                )

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, phase, layer, wall, self_wall, self_cpu, failed, counts):
        with self._lock:
            stats = self.stats.get((phase, layer))
            if stats is None:
                stats = self.stats[(phase, layer)] = LayerStats()
            stats.calls += 1
            stats.errors += failed
            stats.wall += wall
            stats.self_wall += self_wall
            stats.self_cpu += max(self_cpu, 0.0)
            for key, value in (counts or {}).items():
                stats._count(key, value)
            self.spans += 1

    # -- reading -------------------------------------------------------

    def layer(self, layer: str, phases=None) -> LayerStats:
        """One layer's totals over ``phases`` (default: every phase)."""
        total = LayerStats()
        for (phase, name), stats in self.stats.items():
            if name == layer and (phases is None or phase in phases):
                total.add(stats)
        return total

    def self_cpu_total(self) -> float:
        return sum(stats.self_cpu for stats in self.stats.values())

    def overhead_pct(self) -> float:
        """Estimated wrapper cost as a share of the recorded wall time."""
        if not self.window_wall:
            return 0.0
        return 100.0 * self.spans * span_cost() / self.window_wall


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to the call it wraps."""

    def noop(_self=None):
        return None

    probe = Tracer(entry_points=())
    traced = probe.wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        with probe.recording("calibration"):
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        best = min(best, (wrapped - bare) / calls)
    return max(best, 0.0)
