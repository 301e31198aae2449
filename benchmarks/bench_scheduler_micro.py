"""Micro-benchmarks of the planner itself.

The paper argues the schedule simulation is cheap enough for real-time
use ("the greedy nature of this simulation ensures minimal
computational overhead", §IV-C). These benchmarks measure planner
latency directly — decode-sized and prefill-sized inputs for each
evaluated model — using pytest-benchmark's statistical timing (many
rounds, unlike the one-shot experiment benches).
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "core"))

from reference_planner import ReferenceScheduler

from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.tasks import LayerCostOracle
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import paper_testbed
from repro.models.presets import get_preset
from repro.rng import derive_rng

_PLANNERS = {"fast": HybridScheduler, "reference": ReferenceScheduler}


def _scheduler_inputs(
    model_name: str, n_tokens: int, cache_ratio: float, planner: str = "fast"
):
    config = get_preset(model_name)
    cost = AnalyticCostModel(paper_testbed())

    def factory(tokens: int) -> LayerCostOracle:
        return LayerCostOracle.for_model(cost, config, tokens)

    scheduler = _PLANNERS[planner](factory)
    rng = derive_rng(0, "bench", model_name, n_tokens)
    experts = config.num_routed_experts
    k = config.num_activated_experts
    if n_tokens == 1:
        activated_ids = sorted(rng.choice(experts, size=k, replace=False))
        activated = [(int(e), 1) for e in activated_ids]
    else:
        loads = rng.multinomial(n_tokens * k, [1.0 / experts] * experts)
        activated = [(e, int(load)) for e, load in enumerate(loads) if load > 0]
    cached = set(
        int(e)
        for e in rng.choice(experts, size=int(cache_ratio * experts), replace=False)
    )
    return scheduler, activated, cached, n_tokens


@pytest.mark.parametrize("planner", ["fast", "reference"])
@pytest.mark.parametrize("model_name", ["mixtral", "qwen2", "deepseek"])
def test_plan_latency_decode(benchmark, model_name, planner):
    scheduler, activated, cached, n_tokens = _scheduler_inputs(
        model_name, 1, 0.5, planner
    )
    plan = benchmark(
        lambda: scheduler.plan(0, activated, cached, n_tokens=n_tokens)
    )
    plan.validate(dict(activated), cached)
    # Planner overhead must be far below a decode layer (~milliseconds).
    assert benchmark.stats["mean"] < 5e-3


@pytest.mark.parametrize("model_name", ["mixtral", "qwen2", "deepseek"])
def test_plan_latency_prefill(benchmark, model_name):
    scheduler, activated, cached, n_tokens = _scheduler_inputs(model_name, 128, 0.5)
    plan = benchmark(
        lambda: scheduler.plan(0, activated, cached, n_tokens=n_tokens)
    )
    plan.validate(dict(activated), cached)
    assert benchmark.stats["mean"] < 50e-3


def test_prefetch_impact_simulation_latency(benchmark):
    """The quick two-extremes simulation used per prefetch candidate."""
    scheduler, activated, cached, _ = _scheduler_inputs("qwen2", 1, 0.5)
    benchmark(
        lambda: scheduler.simulate_makespan(activated, cached, 1, quick=True)
    )
    assert benchmark.stats["mean"] < 1e-3


@pytest.mark.parametrize("model_name", ["mixtral", "qwen2", "deepseek"])
def test_fast_path_decode_speedup(model_name):
    """>=5x planner-latency reduction on decode shapes for the default
    (incremental + memo) planner vs the reference planner, with zero
    plan drift."""
    reps = 150
    timings = {}
    for planner in ("fast", "reference"):
        scheduler, activated, cached, n_tokens = _scheduler_inputs(
            model_name, 1, 0.5, planner
        )
        scheduler.plan(0, activated, cached, n_tokens=n_tokens)  # warm
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                scheduler.plan(0, activated, cached, n_tokens=n_tokens)
            best = min(best, time.perf_counter() - start)
        timings[planner] = best
    fast_plan = _scheduler_inputs(model_name, 1, 0.5, "fast")[0].plan(
        0, activated, cached, n_tokens=n_tokens
    )
    reference_plan = _scheduler_inputs(model_name, 1, 0.5, "reference")[0].plan(
        0, activated, cached, n_tokens=n_tokens
    )
    assert fast_plan == reference_plan
    assert timings["reference"] / timings["fast"] >= 5.0
