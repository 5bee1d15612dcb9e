"""Measurement loop: repetitions of one workload's op script, closed loop.

One process runs one workload, single-threaded, one request in flight:
client and server share the interpreter and the pipeline is synchronous,
so more clients would measure the OS scheduler, not LibSEAL.

A repetition regenerates the seeded op script, builds a fresh stack
(both timed as set-up), replays the script and checks what it left
behind. Repetitions repeat until ``--seconds`` have passed, set-up
included; every repetition does identical work, so counts per op do not
depend on how many fit.

Every reported time is a *least-disturbed* one. The sandbox this runs in
alternates, for seconds to minutes at a time, between a fast mode and one
up to 50% slower (``micro.ref_loop_ms`` shows it), which no average over
one run removes. Interference only ever adds time and op ``i`` is
the same deterministic work in every repetition, so the minimum over
repetitions of op ``i``'s latency is the best estimate of its cost;
``rps`` and the percentiles are computed from those per-op minima.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.wall.trace import (
    LAYERS,
    Tracer,
    covered_ns,
    inclusive_us_per_call,
    installed,
    self_times,
    write_trace,
)
from benchmarks.wall.workloads import Workload

MIN_REPS = 2
TIMINGS = ("rps", "p50_ms", "p95_ms", "cpu_ms_per_op", "setup_s")


@dataclass
class Rep:
    """What one repetition measured."""

    ops: int
    failed: int
    setup_s: float
    wall_s: float
    latencies_s: list[float]
    cpu_per_op_s: list[float]
    counts: dict[str, int]
    problems: list[str]
    spans: list[list] = field(default_factory=list)
    setup_spans: list[list] = field(default_factory=list)

    @property
    def rps(self) -> float:
        return self.ops / self.wall_s


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def run_rep(
    workload: Workload, tracer: Tracer | None = None, limit: int | None = None
):
    """One repetition; returns it and its live stack, which the caller
    tears down. ``limit`` truncates the script (warm-up)."""
    gc.collect()
    if tracer is not None:
        tracer.recording = True
    started = time.perf_counter()
    workload.generate()
    stack = workload.build()
    setup_s = time.perf_counter() - started
    setup_spans = tracer.take() if tracer is not None else []

    script = workload.script[:limit] if limit is not None else workload.script
    latencies: list[float] = []
    cpu_per_op: list[float] = []
    failed = 0
    now, cpu_now = time.perf_counter, time.process_time
    run_op = workload.run_op
    wall_started = now()
    for index, op in enumerate(script):
        cpu_started = cpu_now()
        op_started = now()
        ok = run_op(stack, index, op)
        latencies.append(now() - op_started)
        cpu_per_op.append(cpu_now() - cpu_started)
        if not ok:
            failed += 1
    wall_s = now() - wall_started
    spans: list[list] = []
    if tracer is not None:
        tracer.recording = False
        spans = tracer.take()

    # A truncated (warm-up) script leaves the generator ahead of the log,
    # so audit-state checks only make sense after a full replay.
    problems = workload.finish(stack, len(script)) if limit is None else []
    return Rep(
        ops=len(script),
        failed=failed,
        setup_s=setup_s,
        wall_s=wall_s,
        latencies_s=latencies,
        cpu_per_op_s=cpu_per_op,
        counts=workload.counts(stack),
        problems=problems,
        spans=spans,
        setup_spans=setup_spans,
    ), stack


def run_reps(workload: Workload, seconds: float, tracer: Tracer | None = None):
    """Repetitions (set-up included) until ``seconds`` have passed. With a
    tracer, untraced and traced repetitions alternate, so that both see
    the same machine. Returns the untraced and the traced repetitions and
    the last repetition's live stack."""
    untraced: list[Rep] = []
    traced: list[Rep] = []
    stack = None
    started = time.perf_counter()
    while True:
        for trace_this in (False, True) if tracer is not None else (False,):
            if stack is not None:
                workload.teardown(stack)
            if trace_this:
                with installed(tracer):
                    rep, stack = run_rep(workload, tracer)
                traced.append(rep)
            else:
                rep, stack = run_rep(workload)
                untraced.append(rep)
        done = len(untraced)
        spent = time.perf_counter() - started
        # Stop before a repetition that would mostly overshoot the budget.
        if done >= MIN_REPS and spent + 0.5 * spent / done > seconds:
            return untraced, traced, stack


def least_disturbed(series: list[list[float]]) -> list[float]:
    """Per-op minimum over repetitions of the same script."""
    return [min(samples) for samples in zip(*series)]


def end_to_end(reps: list[Rep]) -> dict:
    """The end-to-end metrics (and the exact counts beside them)."""
    latencies = least_disturbed([rep.latencies_s for rep in reps])
    cpu = least_disturbed([rep.cpu_per_op_s for rep in reps])
    ordered = sorted(latencies)
    rates = [rep.rps for rep in reps]
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    counts = reps[-1].counts
    return {
        "rps": (len(latencies) / sum(latencies), "ops/s"),
        "p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "p95_ms": (percentile(ordered, 95) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) / len(cpu) * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": (min(rep.setup_s for rep in reps), "s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "stored_bytes_per_pair": (
            counts["stored_bytes"] / counts["pairs"], "bytes"
        ),
        "rep_spread": (max(rates) / min(rates) - 1.0, "ratio"),
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict:
    """Span metrics of the traced repetitions."""
    ops = sum(rep.ops for rep in traced)
    totals = dict.fromkeys(LAYERS, (0, 0))
    for rep in traced:
        measured = self_times(rep.spans)
        # Of the set-up spans only the back end's count: it runs while the
        # script is generated; set-up handshakes and log builds are not ops.
        measured["backend.handle"] = self_times(rep.setup_spans).get(
            "backend.handle", (0, 0)
        )
        for name, (self_ns, calls) in measured.items():
            totals[name] = (totals[name][0] + self_ns, totals[name][1] + calls)
    covered = sum(covered_ns(rep.spans) for rep in traced)
    metrics = {}
    for layer, (self_ns, calls) in totals.items():
        metrics[f"{layer}.self_us_per_op"] = (self_ns / 1e3 / ops, "us")
        metrics[f"{layer}.calls_per_op"] = (calls / ops, "count")
    traced_wall = sum(rep.wall_s for rep in traced)
    metrics["closure_ratio"] = (covered / 1e9 / traced_wall, "ratio")
    metrics["trace_overhead_ratio"] = (
        sum(least_disturbed([rep.latencies_s for rep in traced]))
        / sum(least_disturbed([rep.latencies_s for rep in untraced])),
        "ratio",
    )
    return metrics


def measure(workload: Workload, seconds: float, trace: bool,
            results_dir: Path) -> dict:
    """Warm up, measure, check; returns the run record."""
    _, stack = run_rep(workload, limit=max(1, workload.ops // 10))
    workload.teardown(stack)
    record: dict = {"workload": workload.name, "seed": workload.seed}
    untraced, traced, stack = run_reps(
        workload, seconds, Tracer() if trace else None
    )
    reps = untraced + traced
    metrics = end_to_end(untraced)
    if trace:
        metrics.update(per_layer(traced, untraced))
        record["inclusive_us_per_call"] = inclusive_us_per_call(traced[-1].spans)
        write_trace(
            results_dir / f"{workload.name}.trace.json",
            traced[-1].spans,
            {"workload": workload.name, "seed": workload.seed,
             "ops": traced[-1].ops},
        )
    problems = [p for rep in reps for p in rep.problems]
    problems.extend(workload.audit(stack))
    detected = workload.negative_control(stack)
    workload.teardown(stack)
    if not detected:
        problems.append("negative control was not detected")
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    # How far the estimator disagrees with itself: the same metrics from
    # the even and the odd repetitions alone (compare.py's "unresolved").
    halves = (
        [end_to_end(untraced[k::2]) for k in (0, 1)] if len(untraced) >= 4 else []
    )
    record.update(
        counts=reps[-1].counts,
        attempted=attempted,
        failed=failed,
        problems=problems,
        negative_control_detected=detected,
        correct=failed == 0 and not problems,
        reps=len(reps),
        ops_per_rep=reps[0].ops,
        samples=sum(len(rep.latencies_s) for rep in reps),
        noisy=metrics["rep_spread"][0] > 0.10,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    for name in TIMINGS if halves else ():
        a, b = (half[name][0] for half in halves)
        record["metrics"][name]["halves_gap"] = abs(a - b) / min(a, b)
    return record
