"""Per-layer metrics of a traced pass, named ``<layer>.<what>``.

The layers are the simulator's modules. :func:`targets` names the
public functions the tracer times; :class:`Recorder` keeps what those
calls return (plans, execution results, eviction lists) so counts and
simulated-time figures are read where the work happens; :func:`derive`
turns spans, recorder data and the engine's own counters into the
metric table. ``LAYERS.md`` maps every metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import numpy as np

import repro.engine.pipeline as pipeline_module
from repro.cache.manager import ExpertCache
from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.prefetch import ImpactDrivenPrefetcher
from repro.engine.pipeline import StepPipeline
from repro.models.model import ReferenceMoEModel
from repro.serving.engine import ServingEngine
from repro.serving.session import ServingSession

from tracer import Target, Tracer

MODEL_FUNCTIONS = ("expert_forward", "shared_forward", "attention", "route")
INSERTS = ("cache.insert", "cache.insert_if_better")

#: ``(metric name, unit)`` in report order; every traced pass reports all.
METRICS = (
    ("serving.steps", "count"),
    ("serving.batch_size_mean", "count"),
    ("serving.queue_delay_p90_ms", "ms"),
    ("serving.self_s", "s"),
    ("engine.run_batch.calls", "count"),
    ("engine.run_batch.s", "s"),
    ("engine.self_s", "s"),
    ("planner.plan.calls", "count"),
    ("planner.plan.s", "s"),
    ("planner.memo_hit_ratio", "ratio"),
    ("planner.cpu_experts_per_layer", "count"),
    ("planner.transfers_per_layer", "count"),
    ("planner.makespan_error", "ratio"),
    ("prefetch.select.calls", "count"),
    ("prefetch.select.s", "s"),
    ("prefetch.issued", "count"),
    ("prefetch.used_ratio", "ratio"),
    ("executor.calls", "count"),
    ("executor.s", "s"),
    ("executor.layer_makespan_p50_ms", "ms"),
    ("executor.barrier_idle_ms", "ms"),
    ("cache.access.calls", "count"),
    ("cache.access.s", "s"),
    ("cache.insert.calls", "count"),
    ("cache.insert.s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    *(
        (f"models.{fn}.{what}", unit)
        for fn in MODEL_FUNCTIONS
        for what, unit in (("calls", "count"), ("s", "s"))
    ),
    ("hardware.gpu_busy", "ratio"),
    ("hardware.cpu_busy", "ratio"),
    ("hardware.pcie_busy", "ratio"),
)


class Recorder:
    """Keeps what the timed calls return; cheap, list appends only."""

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []
        #: Estimated makespan of each planned, not yet executed plan.
        self.plans: dict[int, float] = {}
        self.cpu_experts: list[int] = []
        self.transfers: list[int] = []
        #: ``(clock, start, compute_end, estimated_makespan or None)`` of
        #: every executed layer.
        self.layers: list[tuple] = []
        self.evictions = 0

    def on_step(self, result, args) -> None:
        self.batch_sizes.append(result.metrics.batch_size)

    def on_plan(self, plan, args) -> None:
        self.plans[id(plan)] = plan.estimated_makespan
        self.cpu_experts.append(sum(1 for t in plan.cpu_tasks if not t.is_shared))
        self.transfers.append(len(plan.transfers))

    def on_execute(self, result, args) -> None:
        plan, clock = args[0], args[1]
        estimate = self.plans.pop(id(plan), None)
        self.layers.append((clock, result.start_time, result.compute_end, estimate))

    def on_insert(self, evicted, args) -> None:
        # insert_if_better delegates every admission to insert, so
        # counting victims here counts each eviction once.
        self.evictions += len(evicted)


def targets(recorder: Recorder) -> list[Target]:
    """The public functions timed, one span name each.

    ``execute_plan`` is swapped where :class:`StepPipeline` looks it up,
    the module namespace of :mod:`repro.engine.pipeline`.
    """
    return [
        Target(ServingEngine, "serve", "serving.serve"),
        Target(ServingSession, "step", "serving.step"),
        Target(
            StepPipeline, "run_batch", "engine.run_batch", recorder.on_step, opens_step=True
        ),
        Target(HybridScheduler, "plan", "planner.plan", recorder.on_plan),
        Target(ImpactDrivenPrefetcher, "select", "prefetch.select"),
        Target(pipeline_module, "execute_plan", "executor.execute_plan", recorder.on_execute),
        Target(ExpertCache, "access", "cache.access"),
        Target(ExpertCache, "insert", "cache.insert", recorder.on_insert),
        Target(ExpertCache, "insert_if_better", "cache.insert_if_better"),
        *(
            Target(ReferenceMoEModel, fn, f"models.{fn}")
            for fn in MODEL_FUNCTIONS
        ),
    ]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _outer_inserts(tracer: Tracer) -> tuple[int, float]:
    """Insert calls made from outside the cache, and their time.

    ``insert_if_better`` calls ``insert`` itself; the nested call is part
    of the outer one, not a second insertion request.
    """
    spans = tracer.spans
    calls = 0
    total_ns = 0
    for name, start, end, parent, _ in spans:
        if name in INSERTS and (parent < 0 or spans[parent][0] not in INSERTS):
            calls += 1
            total_ns += end - start
    return calls, total_ns / 1e9


def derive(tracer: Tracer, recorder: Recorder, engine, replay, counters) -> dict[str, float]:
    """All per-layer metrics of one traced pass.

    ``counters`` holds the engine counters read before the pass
    (planner memo, prefetch accounting, cache stats), so figures are
    deltas over the pass alone.
    """
    runtime = engine.runtime
    clock = runtime.clock
    m: dict[str, float] = {}

    served = tracer.calls("serving.step") > 0
    delays = [
        r.prefill_start - r.arrival for r in replay.requests if r.prefill_start is not None
    ]
    m["serving.steps"] = tracer.calls("serving.step")
    m["serving.batch_size_mean"] = _mean(recorder.batch_sizes) if served else 0.0
    m["serving.queue_delay_p90_ms"] = (
        float(np.percentile(delays, 90)) * 1e3 if served and delays else 0.0
    )
    m["serving.self_s"] = tracer.self_seconds("serving.serve", "serving.step")

    m["engine.run_batch.calls"] = tracer.calls("engine.run_batch")
    m["engine.run_batch.s"] = tracer.seconds("engine.run_batch")
    m["engine.self_s"] = tracer.self_seconds("engine.run_batch")

    info = runtime.scheduler.cache_info()
    hits = info["hits"] - counters["memo_hits"]
    lookups = hits + info["misses"] - counters["memo_misses"]
    m["planner.plan.calls"] = tracer.calls("planner.plan")
    m["planner.plan.s"] = tracer.seconds("planner.plan")
    m["planner.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    m["planner.cpu_experts_per_layer"] = _mean(recorder.cpu_experts)
    m["planner.transfers_per_layer"] = _mean(recorder.transfers)
    errors = [
        abs(estimate - (end - start)) / (end - start)
        for _, start, end, estimate in recorder.layers
        if estimate is not None and end > start
    ]
    m["planner.makespan_error"] = _mean(errors)

    issued = runtime.prefetch_issued - counters["prefetch_issued"]
    used = runtime.prefetch_used - counters["prefetch_used"]
    m["prefetch.select.calls"] = tracer.calls("prefetch.select")
    m["prefetch.select.s"] = tracer.seconds("prefetch.select")
    m["prefetch.issued"] = issued
    m["prefetch.used_ratio"] = used / issued if issued else 0.0

    makespans = [end - start for _, start, end, _ in recorder.layers]
    idle = [
        (end - start)
        - max(c.gpu.busy_time(start, end), c.cpu.busy_time(start, end))
        for c, start, end, _ in recorder.layers
    ]
    m["executor.calls"] = tracer.calls("executor.execute_plan")
    m["executor.s"] = tracer.seconds("executor.execute_plan")
    m["executor.layer_makespan_p50_ms"] = (
        float(np.percentile(makespans, 50)) * 1e3 if makespans else 0.0
    )
    m["executor.barrier_idle_ms"] = _mean(idle) * 1e3

    stats = runtime.cache.stats
    cache_hits = stats.hits - counters["cache_hits"]
    accesses = cache_hits + stats.misses - counters["cache_misses"]
    insert_calls, insert_s = _outer_inserts(tracer)
    m["cache.access.calls"] = tracer.calls("cache.access")
    m["cache.access.s"] = tracer.seconds("cache.access")
    m["cache.insert.calls"] = insert_calls
    m["cache.insert.s"] = insert_s
    m["cache.hit_ratio"] = cache_hits / accesses if accesses else 0.0
    m["cache.evictions"] = recorder.evictions

    for fn in MODEL_FUNCTIONS:
        m[f"models.{fn}.calls"] = tracer.calls(f"models.{fn}")
        m[f"models.{fn}.s"] = tracer.seconds(f"models.{fn}")

    start, end = counters["clock_start"], clock.compute_frontier
    span = end - start
    for name, timeline in (("gpu", clock.gpu), ("cpu", clock.cpu), ("pcie", clock.pcie)):
        m[f"hardware.{name}_busy"] = timeline.busy_time(start, end) / span if span > 0 else 0.0
    return m


def read_counters(engine) -> dict[str, float]:
    """Engine counters before a pass, for :func:`derive`'s deltas."""
    runtime = engine.runtime
    info = runtime.scheduler.cache_info()
    stats = runtime.cache.stats
    return {
        "memo_hits": info["hits"],
        "memo_misses": info["misses"],
        "prefetch_issued": runtime.prefetch_issued,
        "prefetch_used": runtime.prefetch_used,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "clock_start": runtime.clock.compute_frontier,
    }
