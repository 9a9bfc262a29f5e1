"""The two workloads: backlog_day and router_http.

:func:`prepare` fits the seed's model, generates the workload's traffic
and computes the offline reference verdicts; the run script calls it in
a child process, before the measured process opens any service.  The
timed phases then drive only the service's stable surface:
``submit``/``result``/``drain``/``start``/``close``,
``ModelRegistry.publish``/``stage_shadow``, ``ShardRouter`` and the
``/v1`` routes.

Every workload checks, inside the same run:

* conservation — accepted == completed == scored (summed over shards)
  == the distinct submissions the benchmark was acknowledged for, so
  no outcome was lost or duplicated;
* every verdict equals the offline reference
  (``checker.verdicts_from_observations`` over
  ``production_engine.analyze`` of the same apps);
* after every reopen or restart, every md5 reports the outcome it had
  before it.

Each miss is one failed operation.  A reopen that raises (a torn WAL
tail, say) is recorded as a failed operation, not skipped.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from loadgen import (
    CompletionWatcher,
    Submission,
    host_ref_ms,
    percentile,
    run_open_loop,
    trimmed_mean,
    windowed_rate,
)
from world import AppSource, fit_checker

from repro.obs import MetricsRegistry
from repro.serve.codec import apk_to_dict
from repro.serve.queue import shard_of
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService
from repro.serve.shard import ShardRouter, make_router_server

#: backlog_day: apps in the day per second of ``--seconds``, and the
#: smallest day.  The day runs in shifts, each on its own spool, each
#: opened by one timed set-up, and each with at least 100 apps (10
#: samples beyond its p90).  A metric is the shifts' trimmed mean.
BACKLOG_APPS_PER_SECOND = 100
MIN_DAY = 1000
BACKLOG_SHIFTS = 10
#: router_http: offered submissions per second, sent in bursts of
#: ROUTER_BURST back-to-back requests on one keep-alive connection.
ROUTER_RATE = 10.0
ROUTER_BURST = 4
ROUTER_SHARDS = 2
#: router_http: each shard's micro-batch size, given explicitly (it is
#: the service's default) so that batch_fill divides by the configured
#: size.
ROUTER_BATCH_SIZE = 8
#: router_http traffic mix: share of schedule slots per kind.  These
#: shares are chosen, not measured: no source gives a market's share of
#: identical resubmissions (see the README).  A ``duplicate`` slot sends
#: a never-seen app and, at the same instant, the same md5 again, which
#: the queue coalesces while it is pending.
MIX = (("resubmit", 0.60), ("fresh", 0.25), ("escalated", 0.10),
       ("duplicate", 0.05))
#: router_http: timed set-ups, each of a whole router.
ROUTER_SETUPS = 5
#: router_http: restarts per shard.
ROUTER_RESTARTS = 4
#: Pause between the completion watcher's sweeps while a verdict is
#: outstanding (a backlog's verdicts take seconds; a router sweep's
#: GETs take ~44 ms each).
POLL_S = 0.002
#: Longest any single wait may take; keeps a run well inside 180 s.
WAIT_S = 45.0
HEALTHZ_PROBES = 20


class Context:
    """One run: its seed, working directory, tracer and tallies."""

    def __init__(self, workload, seed, seconds, workdir, inputs, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        #: What :func:`prepare` made; the models are in ``dir("models")``.
        self.inputs = inputs
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, int] = {}
        self.stages: dict[str, float] = {}
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        #: Share of schedule slots that resubmit a vetted app.
        self.resubmit_share = inputs.get("resubmit_share", 0.0)
        #: Micro-batch size of the service under test (batch_fill's
        #: denominator), read from the service the run opens.
        self.batch_size = 0
        #: This process's RSS when the workload started (see run_workload).
        self.baseline_rss_mb = 0.0
        self.host_ref = [host_ref_ms()]

    def dir(self, name: str) -> Path:
        return self.workdir / name

    def rss_added_mb(self) -> float:
        """This process's high-water RSS above its RSS at the start.

        The inputs (the apps, which an in-process service shares with
        the harness) are in the baseline; everything the service
        allocates on top of them is in the figure.
        """
        return proc_rss_mb() - self.baseline_rss_mb

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @contextmanager
    def stage(self, name: str):
        """Wall time of one stage of the run (a diagnostic line)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = (
                self.stages.get(name, 0.0) + time.perf_counter() - start
            )

    def phase(self, name: str):
        """A timed phase: starts from a collected heap; traced if tracing.

        Everything alive at the start (the harness's apps and reference
        verdicts included) is frozen out of later collections, so the
        program's collector never pays for the harness's objects.
        """
        gc.collect()
        gc.freeze()
        if self.tracer is None:
            return nullcontext()
        return self.tracer.recording(name)

    def tag_shadow(self, models: ModelRegistry) -> None:
        if self.tracer is None:
            return
        with models.lease() as (_version, _active, shadow):
            if shadow is not None:
                self.tracer.tag(shadow[1], "registry.shadow")


# ----------------------------------------------------------------------
# Inputs and checks
# ----------------------------------------------------------------------


def reference_verdicts(checker, apps) -> dict[str, tuple[bool, float]]:
    apps = list({apk.md5: apk for apk in apps}.values())
    engine = checker.production_engine
    observations = [engine.analyze(apk).observation for apk in apps]
    verdicts = checker.verdicts_from_observations(observations)
    return {
        obs.apk_md5: (bool(v.malicious), float(v.probability))
        for obs, v in zip(observations, verdicts)
    }


def derived_seed(seed: int, k: int) -> int:
    """Derived seed ``k`` of a run's seed (same seed, same inputs)."""
    return seed * 100 + k


def prepare(workload: str, seed: int, seconds: int, models_dir, world) -> dict:
    """Everything a run needs before its first timed phase.

    Publishes the seed's model(s) into ``models_dir`` and returns the
    run's inputs: its apps or schedule and their offline reference
    verdicts.  The run script calls this in a child process, so the
    world, the fitted forests and the reference analysis never count
    towards the measured process's peak RSS.
    """
    return PREPARE[workload](seed, seconds, Path(models_dir), world)


def prepare_backlog(seed, seconds, models_dir, world) -> dict:
    checker = fit_checker(world, derived_seed(seed, 1))
    publisher = ModelRegistry(models_dir)
    publisher.publish(checker, activate=True)
    candidate = publisher.publish(fit_checker(world, derived_seed(seed, 2)))
    publisher.stage_shadow(candidate.version)
    source = AppSource(world, derived_seed(seed, 3))
    day = source.take(max(MIN_DAY, round(BACKLOG_APPS_PER_SECOND * seconds)))
    setup_probes = source.take(BACKLOG_SHIFTS)
    recover_probes = source.take(BACKLOG_SHIFTS)
    return {
        "day": day,
        "setup_probes": setup_probes,
        "recover_probes": recover_probes,
        "reference": reference_verdicts(
            checker, day + setup_probes + recover_probes
        ),
    }


def prepare_router(seed, seconds, models_dir, world) -> dict:
    checker = fit_checker(world, derived_seed(seed, 1))
    ModelRegistry(models_dir).publish(checker, activate=True)
    source = AppSource(world, derived_seed(seed, 3))
    inputs = plan_router(seed, seconds, source)
    inputs["setup_probes"] = source.take(ROUTER_SETUPS)
    inputs["recover_probes"] = [
        owned_by(source, shard, ROUTER_RESTARTS)
        for shard in range(ROUTER_SHARDS)
    ]
    inputs["reference"] = reference_verdicts(
        checker,
        [item.apk for item in inputs["schedule"]] + inputs["setup_probes"]
        + [apk for owned in inputs["recover_probes"] for apk in owned],
    )
    return inputs


def plan_router(seed: int, seconds: int, source: AppSource) -> dict:
    """router_http's schedule: ROUTER_RATE slots a second filled per MIX.

    Slots are due in bursts of ROUTER_BURST every ROUTER_BURST /
    ROUTER_RATE seconds.  ``warm`` are the apps to vet before timing
    (each resubmitted exactly once later), ``schedule`` the sends.
    """
    n_slots = max(1, round(ROUTER_RATE * seconds))
    rng = np.random.default_rng(derived_seed(seed, 4))
    shares = np.array([share for _, share in MIX])
    kinds = [MIX[i][0] for i in rng.choice(len(MIX), size=n_slots, p=shares)]
    warm = source.take(kinds.count("resubmit"))
    warm_apps = iter(warm)
    fresh_apps = iter(source.take(n_slots - len(warm)))
    schedule = []
    for slot, kind in enumerate(kinds):
        due = (slot - slot % ROUTER_BURST) / ROUTER_RATE
        if kind == "resubmit":
            schedule.append(Submission(next(warm_apps), "resubmit", kind, due))
        elif kind == "escalated":
            schedule.append(Submission(next(fresh_apps), "escalated", kind, due))
        else:
            apk = next(fresh_apps)
            schedule.append(Submission(apk, "bulk", "fresh", due))
            if kind == "duplicate":
                schedule.append(Submission(apk, "bulk", kind, due))
    return {
        "warm": warm,
        "schedule": schedule,
        "resubmit_share": len(warm) / n_slots,
    }


def check_verdict(ctx, md5: str, outcome: dict | None, reference) -> None:
    if outcome is None:
        ctx.fail(f"lost: no terminal outcome for {md5}")
    elif outcome.get("status") != "done":
        ctx.fail(f"failed outcome for {md5}: {outcome.get('reason')}")
    elif (outcome.get("malicious"), outcome.get("probability")) != reference[md5]:
        ctx.fail(f"verdict mismatch for {md5}: {outcome} vs {reference[md5]}")


def check_conservation(ctx, metrics: MetricsRegistry, tickets: set) -> None:
    accepted = metrics.total("serve_submissions_total")
    completed = metrics.total("serve_completed_total")
    scored = metrics.total("serve_scored_total")
    if not accepted == completed == scored == len(tickets):
        ctx.fail(
            f"conservation: accepted={accepted:g} completed={completed:g} "
            f"scored={scored:g} acknowledged={len(tickets)}"
        )


def check_schedule(ctx, schedule, reference) -> None:
    for item in schedule:
        if item.error is None:
            check_verdict(ctx, item.md5, item.outcome, reference)
        if item.kind == "resubmit" and item.outcome is not None and not (
            item.outcome.get("from_cache")
        ):
            ctx.fail(f"resubmission of {item.md5} missed the observation cache")


def tickets_of(items) -> set:
    """Distinct accepted submissions: a coalesced duplicate shares its seq."""
    return {(item.md5, item.seq) for item in items if item.seq is not None}


def canonical(outcome: dict) -> str:
    return json.dumps(outcome, sort_keys=True)


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------


def schedule_metrics(ctx, schedule, started: float, cpu: float) -> None:
    """router_http's latency, throughput and CPU (samples in send order)."""
    acks = [item.ack_ms for item in schedule if item.error is None]
    seen = [item for item in schedule if item.seen_at is not None]
    verdicts = [item.verdict_ms for item in seen]
    ctx.samples.update(ack=len(acks), verdict=len(verdicts))
    ctx.metrics.update(
        ack_p50_ms=percentile(acks, 50),
        ack_p90_ms=percentile(acks, 90),
        verdict_p50_ms=percentile(verdicts, 50),
        verdict_p90_ms=percentile(verdicts, 90),
    )
    outcomes = tickets_of(seen)
    ctx.samples["outcomes"] = len(outcomes)
    ctx.metrics["apps_per_s"] = len(outcomes) / (
        max(item.seen_at for item in seen) - started
    )
    ctx.metrics["cpu_ms_per_app"] = cpu * 1e3 / len(outcomes)
    ctx.layers["gen_late_ms"] = percentile([i.late_ms for i in schedule], 90)


def spool_metrics(ctx, spool: Path, tickets: set) -> None:
    ctx.metrics["spool_kb_per_app"] = dir_bytes(spool) / 1024.0 / len(tickets)
    ctx.layers["queue.wal_bytes_per_app"] = (
        dir_bytes(spool, "queue.wal") / len(tickets)
    )


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def wal_records(path: Path) -> int:
    count = 0
    for wal in path.rglob("queue.wal"):
        with wal.open("rb") as fh:
            count += sum(1 for _ in fh)
    return count


def reset_peak_rss() -> None:
    """Reset this process's high-water RSS to its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of a child process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_rss_mb(pid: int | str = "self", field: str = "VmHWM") -> float:
    """A process's high-water (``VmHWM``) or current (``VmRSS``) RSS."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


def registry_copy(metrics: MetricsRegistry) -> MetricsRegistry:
    return MetricsRegistry.from_dict(metrics.as_dict())


def http_json(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def healthz_rtt_ms(conn) -> float:
    """Median keep-alive ``GET /v1/healthz`` round trip (after one warm-up)."""
    times = []
    for _ in range(HEALTHZ_PROBES + 1):
        start = time.perf_counter()
        http_json(conn, "GET", "/v1/healthz")
        times.append((time.perf_counter() - start) * 1e3)
    return median(times[1:])


# ----------------------------------------------------------------------
# In-process service (backlog_day)
# ----------------------------------------------------------------------


def submit_inprocess(ctx, service, item: Submission) -> None:
    ctx.attempted += 1
    item.sent_at = time.perf_counter()
    try:
        ticket = service.submit(item.apk, item.lane)
    except Exception as exc:  # refused: counts against the run
        item.acked_at = time.perf_counter()
        item.error = repr(exc)
        ctx.fail(f"submit refused for {item.md5}: {exc!r}")
        return
    item.acked_at = time.perf_counter()
    item.seq = ticket["seq"]


def open_service(ctx, models_dir, spool, config, probe):
    """Open the registry and a service, start it, and get one ack.

    Returns ``(service, seconds, probe item)``: seconds from opening the
    model directory until the first submission was accepted.
    """
    item = Submission(probe, "bulk", "probe")
    start = time.perf_counter()
    service = OnlineVettingService(
        ModelRegistry(models_dir), spool_dir=spool, **config
    )
    service.start()
    submit_inprocess(ctx, service, item)
    return service, time.perf_counter() - start, item


def settle_probe(ctx, service, item, reference) -> None:
    if not service.drain(WAIT_S):
        ctx.fail(f"probe {item.md5} did not drain")
    check_verdict(ctx, item.md5, service.result(item.md5), reference)


def measure_setup(ctx, models_dir, spool, config, probe, reference) -> float:
    """Seconds until a new service on ``spool`` accepted its first app."""
    with ctx.phase("setup"):
        service, seconds, item = open_service(
            ctx, models_dir, spool, config, probe
        )
    settle_probe(ctx, service, item, reference)
    service.close()
    return seconds


def reopen(ctx, models_dir, spool, config, probe, reference, before: dict):
    """Reopen a spool; seconds until it accepts again (None if it raised).

    Every md5 in ``before`` must report the same outcome afterwards.
    """
    try:
        with ctx.phase("recover"):
            service, seconds, item = open_service(
                ctx, models_dir, spool, config, probe
            )
    except Exception as exc:  # e.g. a replay that cannot parse the WAL
        ctx.attempted += 1
        ctx.fail(f"reopen raised: {exc!r}")
        return None
    ctx.tag_shadow(service.models)
    settle_probe(ctx, service, item, reference)
    for md5, outcome in before.items():
        if canonical(service.result(md5)) != outcome:
            ctx.fail(f"outcome of {md5} changed across reopen")
    service.close()
    return seconds


def backlog_shift(ctx, spool, apps, probe, models_dir, config, reference,
                  deltas: list) -> tuple[list, dict]:
    """One shift of the day: queue, drain, close, reopen.

    Returns the shift's submissions and its metrics, each a figure of
    this shift alone.
    """
    service = OnlineVettingService(
        ModelRegistry(models_dir), spool_dir=spool, **config
    )
    ctx.tag_shadow(service.models)
    items = [Submission(apk, "bulk", "fresh") for apk in apps]
    before_main = registry_copy(service.metrics)
    with ctx.stage("main"):
        # Phase 1: the shift arrives while the dispatcher is stopped, so
        # every ack is timed with no dispatcher competing for the GIL.
        with ctx.phase("main"):
            cpu0 = time.process_time()
            for item in items:
                submit_inprocess(ctx, service, item)
            cpu = time.process_time() - cpu0
        # Phase 2: release the backlog; every app is due at the release.
        watcher = CompletionWatcher(service.result, interval=POLL_S)
        for item in items:
            if item.error is None:
                watcher.watch(item)
        with ctx.phase("main"):
            cpu0 = time.process_time()
            released = time.perf_counter()
            for item in items:
                item.due_at = released
            watcher.start()
            service.start()
            drained = service.drain(WAIT_S)
            drain_s = time.perf_counter() - released
            seen = watcher.wait(WAIT_S)
            cpu += time.process_time() - cpu0
        watcher.stop()
    deltas.append((before_main, registry_copy(service.metrics)))
    ctx.batch_size = service.batch_size
    if not (drained and seen):
        ctx.fail("backlog did not drain")

    tickets = tickets_of(items)
    check_conservation(ctx, service.metrics, tickets)
    for item in items:
        if item.error is None:
            check_verdict(ctx, item.md5, item.outcome, reference)
    verdicts = [item.verdict_ms for item in items if item.seen_at is not None]
    acks = [item.ack_ms for item in items if item.error is None]
    metrics = {
        "ack_p50_ms": percentile(acks, 50),
        "ack_p90_ms": percentile(acks, 90),
        "apps_per_s": windowed_rate(
            [item.seen_at for item in items if item.seen_at is not None],
            released,
            released + drain_s,
        ),
        "verdict_p50_ms": percentile(verdicts, 50),
        "verdict_p90_ms": percentile(verdicts, 90),
        "cpu_ms_per_app": cpu * 1e3 / len(tickets),
    }
    before = {md5: canonical(service.result(md5)) for md5, _ in tickets}
    service.close()
    metrics["replayed_records"] = wal_records(spool)
    with ctx.stage("recover"):
        metrics["recover_s"] = reopen(
            ctx, models_dir, spool, config, probe, reference, before
        )
    return items, metrics


def backlog_day(ctx: Context) -> None:
    """The day's never-seen apps queue up and drain, in BACKLOG_SHIFTS shifts.

    Each shift is opened by one timed set-up, so the set-ups, like the
    shifts, are spread over the whole run.
    """
    inputs = ctx.inputs
    models_dir = ctx.dir("models")
    day, reference = inputs["day"], inputs["reference"]
    config = {"drift_monitors": True}
    spools = ctx.dir("spools")
    items, shifts, deltas, setups = [], [], [], []
    n_apps = len(day)
    for k in range(BACKLOG_SHIFTS):
        with ctx.stage("setup"):
            setups.append(measure_setup(
                ctx, models_dir, ctx.dir(f"setup-{k}"), config,
                inputs["setup_probes"][k], reference,
            ))
        shift_items, metrics = backlog_shift(
            ctx,
            spools / f"shift-{k}",
            day[k * n_apps // BACKLOG_SHIFTS:(k + 1) * n_apps // BACKLOG_SHIFTS],
            inputs["recover_probes"][k],
            models_dir,
            config,
            reference,
            deltas,
        )
        items += shift_items
        shifts.append(metrics)

    ctx.layers["queue.replayed_records"] = median(
        m.pop("replayed_records") for m in shifts
    )
    for name in shifts[0]:
        values = [m[name] for m in shifts if m[name] is not None]
        ctx.metrics[name] = trimmed_mean(values) if values else 0.0
    ctx.metrics["setup_s"] = median(setups)
    tickets = tickets_of(items)
    ctx.samples.update(
        ack=sum(item.error is None for item in items),
        verdict=sum(item.seen_at is not None for item in items),
        shifts=len(shifts),
        setup=len(setups),
        recover=sum(m["recover_s"] is not None for m in shifts),
    )
    spool_metrics(ctx, spools, tickets)
    ctx.metrics["peak_rss_mb"] = ctx.rss_added_mb()
    if ctx.tracer is not None:
        inprocess_layers(ctx, RegistryDelta(deltas))


# ----------------------------------------------------------------------
# router_http
# ----------------------------------------------------------------------


def submit_body(item: Submission) -> bytes:
    return json.dumps({"apk": apk_to_dict(item.apk), "lane": item.lane}).encode()


def submit_http(ctx, conn, item: Submission, body: bytes) -> None:
    ctx.attempted += 1
    item.sent_at = time.perf_counter()
    try:
        status, payload = http_json(conn, "POST", "/v1/submit", body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, payload = None, {"error": repr(exc)}
    item.acked_at = time.perf_counter()
    if status != 202:
        item.error = f"{status}: {payload}"
        ctx.fail(f"submit refused for {item.md5}: {item.error}")
        return
    item.seq = payload["seq"]


def await_outcomes(lookup, items) -> None:
    """Wait, untimed, until each item's terminal outcome is visible.

    An item still without an outcome after WAIT_S is left unset, which
    the verdict check counts as lost.
    """
    watcher = CompletionWatcher(lookup, interval=POLL_S)
    for item in items:
        watcher.watch(item)
    watcher.start()
    try:
        watcher.wait(WAIT_S)
    finally:
        watcher.stop()


def owned_by(source: AppSource, shard: int, n: int) -> list:
    """``n`` never-seen apps that ``shard`` owns."""
    owned = []
    while len(owned) < n:
        owned.extend(
            apk for apk in source.take(4)
            if shard_of(apk.md5, ROUTER_SHARDS) == shard
        )
    return owned[:n]


class RouterFrontDoor:
    """A started ``ShardRouter`` behind a bound router server."""

    def __init__(self, models_dir, spool):
        self.router = ShardRouter(
            models_dir,
            spool,
            n_shards=ROUTER_SHARDS,
            workers=1,
            batch_size=ROUTER_BATCH_SIZE,
        )
        self.server = None
        self.conn = None
        try:
            self.router.start()
            self.server = make_router_server(self.router).start_background()
        except BaseException:
            self.close()
            raise
        self.conn = self.connect()

    def connect(self):
        return http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30
        )

    def pids(self) -> list[int]:
        return [handle.process.pid for handle in self.router.shards.values()]

    def scrape(self) -> MetricsRegistry:
        status, payload = http_json(self.conn, "GET", "/v1/metrics.json")
        if status != 200:
            raise RuntimeError(f"/v1/metrics.json answered {status}")
        return MetricsRegistry.from_dict(payload)

    def close(self) -> None:
        """Stop everything this front door started (idempotent)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.router.stop()


def router_http(ctx: Context) -> None:
    """A fixed-rate mix through the HTTP front door of 2 shards."""
    inputs = ctx.inputs
    models_dir = ctx.dir("models")
    schedule, reference = inputs["schedule"], inputs["reference"]
    setup_probes = inputs["setup_probes"]
    bodies = {id(item): submit_body(item) for item in schedule}
    ctx.batch_size = ROUTER_BATCH_SIZE

    with ExitStack() as stack:
        with ctx.stage("setup"):
            times = []
            for rep, probe in enumerate(setup_probes):
                setup_item = Submission(probe, "bulk", "probe")
                with ctx.phase("setup"):
                    start = time.perf_counter()
                    door = RouterFrontDoor(models_dir, ctx.dir(f"router-{rep}"))
                    stack.callback(door.close)
                    submit_http(ctx, door.conn, setup_item, submit_body(setup_item))
                    times.append(time.perf_counter() - start)
                await_outcomes(door.router.result, [setup_item])
                check_verdict(ctx, setup_item.md5, setup_item.outcome, reference)
                if rep < len(setup_probes) - 1:
                    door.close()
            ctx.samples["setup"] = len(times)
            ctx.metrics["setup_s"] = median(times)
        router = door.router
        spool = ctx.dir(f"router-{len(setup_probes) - 1}")

        with ctx.stage("warm"):
            # Untimed, so two threads share it: every request waits out
            # the keep-alive stall.
            warm_items = [
                Submission(apk, "bulk", "warm") for apk in inputs["warm"]
            ]

            def warm_up(items):
                for item in items:
                    item.seq = router.submit(item.apk, item.lane)["seq"]

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(warm_up, (warm_items[::2], warm_items[1::2])))
            await_outcomes(router.result, warm_items)
            ctx.attempted += len(warm_items)
            for item in warm_items:
                check_verdict(ctx, item.md5, item.outcome, reference)
        warm_outcomes = {item.md5: item.outcome for item in warm_items}

        poll_conn = door.connect()
        stack.callback(poll_conn.close)

        def lookup(md5: str) -> dict:
            return http_json(poll_conn, "GET", f"/v1/result/{md5}")[1]

        watcher = CompletionWatcher(lookup, interval=POLL_S)

        def send(item: Submission) -> None:
            item.prev = warm_outcomes.get(item.md5) or {}
            submit_http(ctx, door.conn, item, bodies[id(item)])
            if item.error is None:
                watcher.watch(item)

        before_main = door.scrape()
        pids = door.pids()
        with ctx.stage("main"), ctx.phase("main"):
            watcher.start()
            cpu0 = time.process_time() + sum(proc_cpu_s(pid) for pid in pids)
            started = run_open_loop(schedule, send)
            seen = watcher.wait(WAIT_S)
            cpu = time.process_time() + sum(proc_cpu_s(pid) for pid in pids) - cpu0
        watcher.stop()
        after_main = door.scrape()
        if not seen:
            ctx.fail("scheduled submissions did not all complete")
        check_schedule(ctx, schedule, reference)
        tickets = tickets_of([setup_item] + warm_items + schedule)
        check_conservation(ctx, after_main, tickets)
        schedule_metrics(ctx, schedule, started, cpu)
        ctx.metrics["peak_rss_mb"] = ctx.rss_added_mb() + sum(
            proc_rss_mb(pid) for pid in pids
        )
        spool_metrics(ctx, spool, tickets)
        ctx.layers["queue.replayed_records"] = wal_records(spool) / ROUTER_SHARDS
        if ctx.tracer is not None:
            ctx.layers["http.rtt_ms"] = healthz_rtt_ms(door.conn)
            shard_layers(ctx, before_main, after_main)

        with ctx.stage("recover"):
            probes = restart_shards(
                ctx, door, inputs["recover_probes"], reference
            )
        # Every md5 still reports the last outcome observed for it.
        expected = {
            item.md5: canonical(item.outcome)
            for item in [setup_item] + warm_items + schedule + probes
            if item.outcome is not None
        }
        with ThreadPoolExecutor(max_workers=2) as pool:
            now = dict(zip(expected, pool.map(router.result, expected)))
        for md5, outcome in expected.items():
            if canonical(now[md5]) != outcome:
                ctx.fail(f"outcome of {md5} changed across restart")


def restart_shards(ctx, door, recover_probes, reference) -> list:
    """Kill and restart each shard in turn; time until it accepts again."""
    times = []
    probes = []
    for rep in range(ROUTER_RESTARTS):
        for shard in range(ROUTER_SHARDS):
            item = Submission(recover_probes[shard][rep], "bulk", "probe")
            door.router.kill_shard(shard)
            try:
                with ctx.phase("recover"):
                    start = time.perf_counter()
                    door.router.restart_shard(shard)
                    submit_http(ctx, door.conn, item, submit_body(item))
                    times.append(time.perf_counter() - start)
            except Exception as exc:  # a replay that cannot restart
                ctx.attempted += 1
                ctx.fail(f"shard {shard} restart raised: {exc!r}")
                continue
            await_outcomes(door.router.result, [item])
            check_verdict(ctx, item.md5, item.outcome, reference)
            probes.append(item)
    ctx.samples["recover"] = len(times)
    ctx.metrics["recover_s"] = median(times) if times else 0.0
    return probes


# ----------------------------------------------------------------------
# Per-layer ledger (traced runs only)
# ----------------------------------------------------------------------


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class RegistryDelta:
    """Service registries' change over main phases: (before, after) pairs."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def total(self, name: str) -> float:
        return sum(a.total(name) - b.total(name) for b, a in self.pairs)

    def hist(self, name: str) -> tuple[float, int]:
        return (
            sum(a.histogram_sum(name) - b.histogram_sum(name)
                for b, a in self.pairs),
            sum(a.histogram_count(name) - b.histogram_count(name)
                for b, a in self.pairs),
        )


def registry_layers(ctx, delta: RegistryDelta) -> None:
    """Layers read from the service's own telemetry."""
    wait_sum, wait_n = delta.hist("pipeline_queue_wait_seconds")
    ctx.layers["pipeline.queue_wait_ms"] = _per(wait_sum * 1e3, wait_n)
    hits = delta.total("pipeline_cache_hits_total")
    misses = delta.total("pipeline_cache_misses_total")
    ctx.layers["pipeline.cache_hit_ratio"] = _per(hits, hits + misses)
    batches = delta.total("serve_batches_total")
    ctx.layers["service.batches"] = batches
    ctx.layers["service.batch_fill"] = _per(
        delta.total("serve_scored_total"), batches * ctx.batch_size
    )


def inprocess_layers(ctx, delta: RegistryDelta) -> None:
    registry_layers(ctx, delta)
    tracer = ctx.tracer

    def main(layer):
        return tracer.layer(layer, ("main",))

    def us_per_call(layer):
        stats = main(layer)
        return _per(stats.self_cpu * 1e6, stats.calls)

    ctx.layers["codec.encode_us"] = us_per_call("codec.encode")
    ctx.layers["queue.submit_us"] = us_per_call("queue.submit")
    ctx.layers["queue.mark_done_us"] = us_per_call("queue.mark_done")
    opens = tracer.layer("queue.open", ("recover",))
    ctx.layers["queue.replay_s"] = _per(opens.wall, opens.calls)
    attempts = main("engine.attempt")
    useful = attempts.calls - attempts.errors
    ctx.layers["engine.attempt_us"] = us_per_call("engine.attempt")
    ctx.layers["engine.attempts_per_app"] = _per(attempts.calls, useful)
    ctx.layers["engine.useful_ratio"] = _per(useful, attempts.calls)
    runs = main("pipeline.run")
    ctx.layers["pipeline.self_us_per_run"] = us_per_call("pipeline.run")
    ctx.layers["pipeline.apps_per_run"] = _per(runs.counts.get("items", 0), runs.calls)
    score = main("checker.score")
    scored = score.counts.get("items", 0)
    ctx.layers["checker.score_us_per_app"] = _per(score.self_cpu * 1e6, scored)
    encode = main("features.encode")
    ctx.layers["features.encode_us_per_app"] = _per(
        encode.self_cpu * 1e6, encode.counts.get("items", 0)
    )
    ctx.layers["rules.evaluate_us_per_flagged"] = us_per_call("rules.evaluate")
    ctx.layers["rules.calls_per_run"] = _per(main("rules.evaluate").calls, runs.calls)
    ctx.layers["drift.record_us_per_app"] = _per(
        main("drift.record").self_cpu * 1e6, scored
    )
    ctx.layers["registry.shadow_us_per_app"] = _per(
        main("registry.shadow").self_cpu * 1e6, scored
    )
    ctx.layers["service.queue_depth_max"] = main("queue.submit").counts.get(
        "peak_depth", 0
    )


def shard_layers(ctx, before: MetricsRegistry, after: MetricsRegistry) -> None:
    """router_http: the shard-side layers its ``/v1/metrics`` exposes.

    Emulation attempts are timed by the pipeline's slot histogram here
    (wall time, not CPU); the shards' other layers are not visible from
    the router and read 0.
    """
    delta = RegistryDelta([(before, after)])
    registry_layers(ctx, delta)
    attempt_sum, attempt_n = delta.hist("pipeline_attempt_seconds")
    analyzed = delta.total("pipeline_analyzed_total")
    ctx.layers["engine.attempt_us"] = _per(attempt_sum * 1e6, attempt_n)
    ctx.layers["engine.attempts_per_app"] = _per(attempt_n, analyzed)
    ctx.layers["engine.useful_ratio"] = _per(analyzed, attempt_n)
    _, runs = delta.hist("pipeline_run_seconds")
    ctx.layers["pipeline.apps_per_run"] = _per(
        delta.total("pipeline_submissions_total"), runs
    )
    ctx.layers["rules.calls_per_run"] = _per(
        delta.total("rules_evaluations_total"), runs
    )


def common_layers(ctx) -> None:
    tracer = ctx.tracer

    def mean_wall(layer, scale):
        stats = tracer.layer(layer)
        return _per(stats.wall * scale, stats.calls)

    ctx.layers["registry.load_s"] = mean_wall("registry.load", 1.0)
    ctx.layers["registry.lease_us"] = mean_wall("registry.lease", 1e6)
    ctx.layers["http.submit_us"] = mean_wall("http.submit", 1e6)
    ctx.layers["shard.router_parse_us"] = mean_wall("shard.parse", 1e6)
    ctx.layers["shard.proxy_ms"] = mean_wall("shard.proxy", 1e3)
    ctx.layers["shard.start_s"] = mean_wall("shard.start", 1.0)
    ctx.layers["shard.restart_s"] = mean_wall("shard.restart", 1.0)
    ctx.layers["host_ref_ms"] = median(ctx.host_ref)
    ctx.layers["trace_overhead_pct"] = tracer.overhead_pct()
    ctx.layers["trace_cpu_share_pct"] = 100.0 * _per(
        tracer.self_cpu_total(), tracer.window_cpu
    )
    ctx.layers["trace_missing_layers"] = len(tracer.missing)


WORKLOADS = {
    "backlog_day": backlog_day,
    "router_http": router_http,
}
PREPARE = {
    "backlog_day": prepare_backlog,
    "router_http": prepare_router,
}


def run_workload(ctx: Context) -> None:
    """Run one workload on prepared inputs.

    The peak RSS it reports counts from here: what the process holds
    now (interpreter, program modules, the inputs) is the baseline.
    """
    gc.collect()
    reset_peak_rss()
    ctx.baseline_rss_mb = proc_rss_mb(field="VmRSS")
    WORKLOADS[ctx.workload](ctx)
    ctx.host_ref.append(host_ref_ms())
    if ctx.tracer is not None:
        common_layers(ctx)
