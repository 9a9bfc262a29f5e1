"""Run one serving-benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 servebench/run.py --workload backlog_day --seed 1 --seconds 30 --trace 0

Prints one line per metric (name, value, unit, sample count) and, as the
last line of standard output, one JSON object::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with the layer tracer installed and reports the per-layer
ledger instead.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.

The workload's inputs (fitted models, apps, reference verdicts) are
prepared in a child process, so the measured process holds only what
the service needs and its peak RSS is the service's, not the harness's.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".servebench"
WORKLOAD_NAMES = ("backlog_day", "router_http")
PREPARE = "--prepare"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_world():
    """The cached world, built (and cached) on first use."""
    import world

    path = world.cache_path(STATE / "cache", SRC)
    if not path.exists():
        for stale in path.parent.glob("world-*.pkl"):
            stale.unlink()
        world.write_world_cache(path)
    return world.read_world_cache(path)


def prepare_in_child(args, workdir: Path) -> dict:
    """The workload's inputs, made by ``run.py --prepare`` in a child."""
    subprocess.run(
        [sys.executable, str(Path(__file__)), PREPARE, args.workload,
         str(args.seed), str(args.seconds), str(workdir)],
        check=True,
        timeout=600,
    )
    path = workdir / "inputs.pkl"
    # Only the child above writes this file.
    inputs = pickle.loads(path.read_bytes())
    path.unlink()
    return inputs


def prepare_here(argv) -> None:
    """``--prepare WORKLOAD SEED SECONDS WORKDIR``: the child's side."""
    import workloads

    workload, seed, seconds, workdir = argv
    workdir = Path(workdir)
    inputs = workloads.prepare(
        workload, int(seed), int(seconds), workdir / "models", load_world()
    )
    (workdir / "inputs.pkl").write_bytes(
        pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL)
    )


def format_lines(ctx, names_units) -> list[str]:
    lines = [f"workload={ctx.workload} seed={ctx.seed} seconds={ctx.seconds}"]
    for name, (value, unit) in names_units.items():
        lines.append(f"  {name:<32} {value:14.4f} {unit}")
    if ctx.samples:
        lines.append(
            "  samples: "
            + " ".join(f"{k}={v}" for k, v in sorted(ctx.samples.items()))
        )
    if ctx.stages:
        lines.append(
            "  stage seconds: "
            + " ".join(f"{k}={v:.1f}" for k, v in ctx.stages.items())
        )
    lines.append(
        f"  resubmit_share={ctx.resubmit_share:.4f} "
        f"baseline_rss_mb={ctx.baseline_rss_mb:.1f} host_ref_ms="
        + ",".join(f"{ms:.1f}" for ms in ctx.host_ref)
    )
    share = len(ctx.failures) / max(ctx.attempted, 1)
    lines.append(
        f"  attempted={ctx.attempted} failed={len(ctx.failures)} "
        f"failed_share={share:.4f}"
    )
    lines.extend(f"  FAILED: {message}" for message in ctx.failures[:20])
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == [PREPARE]:
        prepare_here(argv[1:])
        return 0
    args = parse_args(argv)

    import layertrace
    import metrics
    import workloads

    workdir = STATE / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    try:
        start = time.perf_counter()
        inputs = prepare_in_child(args, workdir)
        prepare_s = time.perf_counter() - start
        tracer = layertrace.Tracer().install() if args.trace else None
        ctx = workloads.Context(
            args.workload, args.seed, args.seconds, workdir, inputs, tracer
        )
        ctx.stages["prepare"] = prepare_s
        workloads.run_workload(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        spec, values = metrics.PER_LAYER, ctx.layers
    else:
        spec, values = metrics.END_TO_END, ctx.metrics
    # A per-layer metric the workload never set is a layer it bypasses
    # (or, behind the router, one only the shard process could see).
    reported = {name: (float(values.get(name, 0.0)), unit) for name, unit in spec.items()}
    missing = sorted(set(spec) - set(values)) if not args.trace else []
    for name in missing:
        ctx.fail(f"metric {name} was not measured")
    if tracer is not None and tracer.missing:
        print("  missing layers: " + "; ".join(tracer.missing))
    for line in format_lines(ctx, reported):
        print(line)
    print(
        json.dumps(
            {
                "correct": not ctx.failures,
                "attempted": max(ctx.attempted, 1),
                "failed": len(ctx.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )
    )
    return 0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    ``ShardRouter`` spawns its workers with ``multiprocessing``'s spawn
    method, which also starts the resource-tracker process.  That
    tracker only exits after it reads EOF on its pipe, so left alone it
    outlives this process by a moment; close the pipe and reap it here.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    status = 1
    try:
        status = main()
    except Exception:
        traceback.print_exc()
    finally:
        stop_children()
    sys.exit(status)
