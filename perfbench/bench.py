"""Closed-loop driver, metrics and report of the benchmark (see run.py)."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import tracing, workloads

SETUP_REPS = 5    # set-up is repeated and its median reported
TAIL_BEYOND = 10  # op_tail_s is the latency with this many ops beyond it


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)  # seconds per op, oracles excluded
    kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _run_op(op, k: int):
    """Run one op; returns (result, None) or (None, error text)."""
    try:
        return op.run(k), None
    except Exception:
        return None, traceback.format_exc(limit=-3).strip()


def measure(ops: list, *, seconds: float | None = None, n_ops: int | None = None,
            tracer: tracing.Tracer | None = None) -> Loop:
    """Closed loop with one caller, cycling through `ops`.

    Runs until the timed ops add up to `seconds` (or the wall clock to
    four times that, should the oracles dominate), or for exactly `n_ops`
    ops.  Each op's oracle runs after it, outside the timed interval and
    with tracing paused.
    """
    loop = Loop()
    busy = 0.0
    k = 0
    deadline = time.perf_counter() + 4 * (seconds or 0)
    while (k < n_ops if n_ops is not None
           else busy < seconds and time.perf_counter() < deadline):
        op = ops[k % len(ops)]
        start = time.perf_counter()
        if tracer is None:
            result, error = _run_op(op, k)
        else:
            with tracer.op(k):
                result, error = _run_op(op, k)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                op.check(result)
            except workloads.OracleFailure as e:
                error = str(e)
            except Exception:
                error = "oracle raised " + traceback.format_exc(limit=-1).strip()
        loop.latencies.append(elapsed)
        loop.kinds.append(op.kind)
        busy += elapsed
        if error is not None:
            loop.failures.append(f"op {k} ({op.kind}): {error}")
        k += 1
    return loop


def per_kind(loops: list[Loop]) -> dict[str, dict]:
    """Op count and median latency of each op kind."""
    by_kind: dict[str, list[float]] = {}
    for lp in loops:
        for kind, t in zip(lp.kinds, lp.latencies):
            by_kind.setdefault(kind, []).append(t)
    return {kind: {"ops": len(ts), "p50_s": statistics.median(ts)}
            for kind, ts in sorted(by_kind.items())}


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def environment(workload: str, seed: int, threads: dict[str, str]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "thread_pinning": threads}


def _set_up(build, seed: int, opdir: Path) -> tuple[workloads.Workload, float]:
    """Generate the inputs and warm up, SETUP_REPS times; median seconds of one set-up."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        shutil.rmtree(opdir, ignore_errors=True)
        wl = build(seed, opdir)
        _run_op(wl.ops[0], 0)  # warm-up; a failing op fails again, counted, in the timed loop
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


def run(args, root: Path, import_s: float, threads: dict[str, str]) -> int:
    env = environment(args.workload, args.seed, threads)
    outdir = root / ".perfbench_work"
    outdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    opdir = outdir / tag
    wl, setup_once_s = _set_up(workloads.WORKLOADS[args.workload], args.seed, opdir)

    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    if args.trace:
        n = wl.traced_ops(args.seconds)
        plain = measure(wl.ops, n_ops=n)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = measure(wl.ops, n_ops=n, tracer=tracer)
        loops = [plain, traced]
        metrics.update(tracer.layer_metrics())
        for M, secs in workloads.solver_scaling(args.seed).items():
            metrics[f"wiener.wiener_solve.M{M}_s"] = (secs, "s")
        notes.append("solver scaling: one bank per M, every filter of order M+1, white input")
        metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
        metrics["trace.overhead_ops_per_s"] = (traced.ops_per_s - plain.ops_per_s, "1/s")
        notes.append(f"traced run: {n} ops untraced, then the same {n} ops traced "
                     f"({len(tracer.spans)} spans)")
        tracer.write(outdir / f"{tag}.spans.jsonl")
    else:
        loop = measure(wl.ops, seconds=args.seconds)
        loops = [loop]
        tail, pct = tail_latency(loop.latencies)
        n = len(loop.latencies)
        metrics["ops_per_s"] = (loop.ops_per_s, "1/s")
        metrics["op_p50_s"] = (statistics.median(loop.latencies), "s")
        metrics["op_tail_s"] = (tail, "s")
        metrics["setup_s"] = (import_s + setup_once_s, "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MiB")
        metrics["ok_ratio"] = (1 - len(loop.failures) / n, "ratio")
        notes.append(f"op_tail_s is p{pct:.2f} of {n} ops, "
                     f"{min(TAIL_BEYOND, n - 1)} ops beyond it")
        notes.append(f"setup_s = import {import_s:.4f} s + median of {SETUP_REPS} "
                     f"input generations with warm-up {setup_once_s:.4f} s")

    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    shutil.rmtree(opdir, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(outdir / f"{tag}.json", "w") as fh:
        json.dump({"env": env, "failures": failures, "per_kind": per_kind(loops), **result},
                  fh, indent=1)

    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"perfbench {tag}: {attempted} ops, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.4g})")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:.6g} {unit}")
    for note in notes:
        print("  " + note)
    print(json.dumps(result))
    return 0
