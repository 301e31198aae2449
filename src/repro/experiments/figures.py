"""One experiment definition per paper table/figure.

Every function returns a list of flat row dictionaries ready for
:func:`repro.experiments.reporting.format_table`. Functions accept an
:class:`ExperimentScale` so the same code serves CI-speed smoke runs
(``QUICK_SCALE``) and the full paper grid (``FULL_SCALE``). Layer-count
reduction preserves per-layer behaviour (scheduling decisions are
per-layer); it only shortens the pipeline.

Experiment index (the paper-to-code map is in docs/ARCHITECTURE.md):

=========  ==========================================================
fig3a      activation CDF, experts vs synthetic skewed neurons
fig3b      expert reuse probability by score rank
fig3c      prefill expert-load distribution
fig3d      latency of llama.cpp / AdapMoE / kTransformers
fig3e      CPU vs GPU time vs expert count at fixed load
fig3f      CPU vs GPU time vs workload size
fig7       prefill TTFT grid (models x ratios x buckets x frameworks)
fig8       decode TBT grid (models x ratios x frameworks)
fig9       MRS vs LRU cache hit rate vs capacity
table3     component ablation (scheduling / prefetching / caching)
=========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import make_policy
from repro.cache.manager import ExpertCache
from repro.engine.engine import EngineConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_workload
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.model import ReferenceMoEModel
from repro.models.presets import get_preset
from repro.routing.generator import generate_trace
from repro.routing.statistics import (
    activation_cdf,
    expert_activation_frequency,
    prefill_load_distribution,
    reuse_probability_by_rank,
    synthetic_neuron_activation_cdf,
)
from repro.routing.trace import RoutingTrace
from repro.rng import derive_rng
from repro.workloads.generator import decode_workload, prefill_workloads

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "fig3a_activation_cdf",
    "fig3b_reuse_probability",
    "fig3c_workload_distribution",
    "fig3d_existing_methods",
    "fig3e_expert_count_sweep",
    "fig3f_workload_sweep",
    "fig7_prefill",
    "fig8_decode",
    "fig9_cache_hit_rate",
    "table3_ablation",
    "ablation_scheduler_variants",
    "ablation_prefetch_depth",
    "ablation_mrs_parameters",
]

#: Frameworks compared in Figs. 7/8, in the paper's legend order.
PAPER_FRAMEWORKS = ("llamacpp", "adapmoe", "ktransformers", "hybrimoe")
#: Models evaluated, in Fig. 7's row order.
PAPER_MODELS = ("deepseek", "mixtral", "qwen2")
#: Cache ratios of the end-to-end grids.
PAPER_RATIOS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class ExperimentScale:
    """Grid sizing shared by the end-to-end experiments."""

    num_layers: int | None
    prefill_buckets: tuple[int, ...]
    decode_steps: int
    trace_decode_steps: int

    def __post_init__(self) -> None:
        if self.decode_steps <= 0 or self.trace_decode_steps <= 1:
            raise ConfigError("scale requires positive decode step counts")


#: CI-sized grid: reduced layers, two buckets, short decodes.
QUICK_SCALE = ExperimentScale(
    num_layers=6, prefill_buckets=(32, 128), decode_steps=8, trace_decode_steps=48
)
#: Paper-sized grid (full layer counts, all buckets).
FULL_SCALE = ExperimentScale(
    num_layers=None,
    prefill_buckets=(32, 128, 512, 1024),
    decode_steps=32,
    trace_decode_steps=256,
)


def _make_trace(
    model_name: str, scale: ExperimentScale, seed: int, prompt_len: int = 64
) -> RoutingTrace:
    config = get_preset(model_name, num_layers=scale.num_layers)
    model = ReferenceMoEModel(config, seed=seed)
    rng = derive_rng(seed, "figures", "trace-prompt", model_name)
    prompt = rng.integers(0, model.vocab_size, size=prompt_len)
    return generate_trace(
        model, prompt, decode_steps=scale.trace_decode_steps, seed=seed
    )


# ----------------------------------------------------------------------
# Fig. 3 — motivation analyses
# ----------------------------------------------------------------------
def fig3a_activation_cdf(
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    curve_points: int = 11,
) -> list[dict]:
    """Cumulative activation frequency: experts vs skewed neurons.

    Rows give the cumulative activation share at evenly spaced expert
    proportions for Mixtral experts, DeepSeek experts, and the
    synthetic OPT-like neuron baseline.
    """
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {
        "opt-neuron": synthetic_neuron_activation_cdf(seed=seed)
    }
    for model_name in ("mixtral", "deepseek"):
        trace = _make_trace(model_name, scale, seed)
        curves[f"{model_name}-expert"] = activation_cdf(trace)
    rows = []
    for fraction in np.linspace(0.0, 1.0, curve_points):
        row: dict = {"expert_proportion": float(fraction)}
        for name, (proportion, cumulative) in curves.items():
            row[name] = float(np.interp(fraction, proportion, cumulative))
        rows.append(row)
    return rows


def fig3b_reuse_probability(
    model_name: str = "deepseek",
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """Reuse probability of experts by score rank (decode steps)."""
    trace = _make_trace(model_name, scale, seed)
    reuse = reuse_probability_by_rank(trace)
    return [
        {"rank": rank, "reuse_probability": float(prob)}
        for rank, prob in enumerate(reuse)
    ]


def fig3c_workload_distribution(
    model_name: str = "deepseek",
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    prefill_len: int = 128,
    layer: int = 0,
) -> list[dict]:
    """Per-expert token loads in one prefill forward, sorted desc."""
    config = get_preset(model_name, num_layers=scale.num_layers)
    model = ReferenceMoEModel(config, seed=seed)
    rng = derive_rng(seed, "figures", "fig3c-prompt")
    prompt = rng.integers(0, model.vocab_size, size=prefill_len)
    trace = generate_trace(model, prompt, decode_steps=0, seed=seed)
    loads = prefill_load_distribution(trace, layer=layer)
    return [
        {"expert_rank": rank, "load": int(load)} for rank, load in enumerate(loads)
    ]


def fig3d_existing_methods(
    scale: ExperimentScale = QUICK_SCALE,
    cache_ratio: float = 0.5,
    seed: int = 0,
) -> list[dict]:
    """Latency of the three existing frameworks on the paper's probes.

    Scenarios: Qwen2 prefill 128, Mixtral prefill 128, Mixtral decode
    10 tokens (Fig. 3d), for llama.cpp / AdapMoE / kTransformers.
    """
    scenarios = [
        ("qwen2-prefill-128", "qwen2", "prefill", 128, 0),
        ("mixtral-prefill-128", "mixtral", "prefill", 128, 0),
        ("mixtral-decode-10", "mixtral", "decode", 16, 10),
    ]
    rows = []
    for label, model_name, stage, prompt_len, decode_steps in scenarios:
        for strategy in ("llamacpp", "adapmoe", "ktransformers"):
            workload = decode_workload(
                decode_steps or 1, seed=seed
            ) if stage == "decode" else prefill_workloads(prompt_len, seed=seed)[0]
            if stage == "decode":
                workload = decode_workload(decode_steps, seed=seed)
            result = run_workload(
                model=model_name,
                strategy=strategy,
                cache_ratio=cache_ratio,
                workload=workload,
                num_layers=scale.num_layers,
                seed=seed,
            )
            latency = result.mean_tbt if stage == "decode" else result.ttft
            rows.append(
                {
                    "scenario": label,
                    "strategy": strategy,
                    "stage": stage,
                    "latency_s": float(latency),
                }
            )
    return rows


def fig3e_expert_count_sweep(
    model_name: str = "deepseek",
    hardware: str = "paper",
    max_experts: int = 6,
    load_per_expert: int = 4,
) -> list[dict]:
    """CPU vs GPU total time for 1..N experts at fixed per-expert load.

    Reproduces the CPU overlap effect: the first CPU expert pays the
    cold-cache warmup, subsequent ones amortise it, while GPU time
    scales linearly in expert count (one kernel each).
    """
    config = get_preset(model_name)
    cost = AnalyticCostModel(get_hardware_preset(hardware))
    shape = config.routed_expert_shape
    rows = []
    for count in range(1, max_experts + 1):
        cpu_total = sum(
            cost.cpu_expert_time(shape, load_per_expert, first_task=index == 0)
            for index in range(count)
        )
        gpu_total = count * cost.gpu_expert_time(shape, load_per_expert)
        rows.append(
            {
                "experts": count,
                "cpu_time_s": float(cpu_total),
                "gpu_time_s": float(gpu_total),
            }
        )
    return rows


def fig3f_workload_sweep(
    model_name: str = "deepseek",
    hardware: str = "paper",
    workloads: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> list[dict]:
    """CPU vs GPU single-expert time across workload sizes.

    GPU time stays flat until the FLOP roofline; CPU time grows
    linearly almost immediately — the asymmetry all scheduling
    decisions ride on.
    """
    config = get_preset(model_name)
    cost = AnalyticCostModel(get_hardware_preset(hardware))
    shape = config.routed_expert_shape
    return [
        {
            "workload": tokens,
            "cpu_time_s": float(cost.cpu_expert_time(shape, tokens)),
            "gpu_time_s": float(cost.gpu_expert_time(shape, tokens)),
        }
        for tokens in workloads
    ]


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8 — end-to-end grids
# ----------------------------------------------------------------------
def fig7_prefill(
    models: tuple[str, ...] = PAPER_MODELS,
    ratios: tuple[float, ...] = PAPER_RATIOS,
    strategies: tuple[str, ...] = PAPER_FRAMEWORKS,
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """Prefill TTFT across models, cache ratios and input lengths."""
    rows = []
    for model_name in models:
        for ratio in ratios:
            for bucket in scale.prefill_buckets:
                workload = prefill_workloads(bucket, seed=seed)[0]
                for strategy in strategies:
                    result = run_workload(
                        model=model_name,
                        strategy=strategy,
                        cache_ratio=ratio,
                        workload=workload,
                        num_layers=scale.num_layers,
                        seed=seed,
                    )
                    rows.append(
                        {
                            "model": model_name,
                            "cache_ratio": ratio,
                            "bucket": bucket,
                            "prompt_len": workload.prompt_len,
                            "strategy": strategy,
                            "ttft_s": float(result.ttft),
                            "hit_rate": float(result.hit_rate),
                        }
                    )
    return rows


def fig8_decode(
    models: tuple[str, ...] = PAPER_MODELS,
    ratios: tuple[float, ...] = PAPER_RATIOS,
    strategies: tuple[str, ...] = PAPER_FRAMEWORKS,
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """Decode TBT across models and cache ratios."""
    rows = []
    for model_name in models:
        for ratio in ratios:
            workload = decode_workload(scale.decode_steps, seed=seed)
            for strategy in strategies:
                result = run_workload(
                    model=model_name,
                    strategy=strategy,
                    cache_ratio=ratio,
                    workload=workload,
                    num_layers=scale.num_layers,
                    seed=seed,
                )
                rows.append(
                    {
                        "model": model_name,
                        "cache_ratio": ratio,
                        "strategy": strategy,
                        "mean_tbt_s": float(result.mean_tbt),
                        "decode_hit_rate": float(result.decode_hit_rate()),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — cache policy comparison via trace replay
# ----------------------------------------------------------------------
def replay_cache_hit_rate(
    trace: RoutingTrace,
    capacity: int,
    policy_name: str,
    mrs_alpha: float = 0.7,
) -> float:
    """Replay a routing trace through a cache and measure decode hits.

    Misses insert the expert (modelling the on-demand load), exactly
    the access pattern Fig. 9 isolates. The prefill step warms the
    cache; only decode accesses count.
    """
    if capacity <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity}")
    if policy_name == "mrs":
        policy = make_policy(
            "mrs", alpha=mrs_alpha, top_p=2 * trace.num_activated
        )
    else:
        policy = make_policy(policy_name)
    cache = ExpertCache(capacity, policy)

    counts = expert_activation_frequency(trace)
    ranking = sorted(
        (
            (layer, expert)
            for layer in range(trace.num_layers)
            for expert in range(trace.num_experts)
        ),
        key=lambda key: (-counts[key[0], key[1]], key[0], key[1]),
    )
    cache.warm_fill(ranking)

    decode_hits = 0
    decode_accesses = 0
    for step in trace.steps:
        for routing in step.layers:
            cache.observe_scores(routing.layer, routing.mean_scores)
            for expert in routing.activated():
                key = (routing.layer, expert)
                hit = cache.access(key)
                if not step.is_prefill:
                    decode_accesses += 1
                    decode_hits += int(hit)
                if not hit:
                    cache.insert(key)
    if decode_accesses == 0:
        raise ConfigError("trace has no decode accesses")
    return decode_hits / decode_accesses


def fig9_cache_hit_rate(
    models: tuple[str, ...] = PAPER_MODELS,
    percentages: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7),
    policies: tuple[str, ...] = ("lru", "mrs"),
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """MRS vs LRU hit rates across cached-expert percentages."""
    rows = []
    for model_name in models:
        trace = _make_trace(model_name, scale, seed)
        total = trace.num_layers * trace.num_experts
        for percentage in percentages:
            capacity = max(1, int(round(percentage * total)))
            for policy_name in policies:
                hit_rate = replay_cache_hit_rate(trace, capacity, policy_name)
                rows.append(
                    {
                        "model": model_name,
                        "cached_percent": percentage,
                        "policy": policy_name,
                        "hit_rate": float(hit_rate),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Table III — component ablation
# ----------------------------------------------------------------------
#: Table III rows: configuration name -> HybriMoE component toggles.
ABLATION_CONFIGS = {
    "baseline": {"scheduling": False, "prefetching": False, "caching": False},
    "baseline+scheduling": {"scheduling": True, "prefetching": False, "caching": False},
    "baseline+prefetching": {"scheduling": False, "prefetching": True, "caching": False},
    "baseline+caching": {"scheduling": False, "prefetching": False, "caching": True},
    "all": {"scheduling": True, "prefetching": True, "caching": True},
}


def table3_ablation(
    model_name: str = "qwen2",
    cache_ratio: float = 0.25,
    scale: ExperimentScale = QUICK_SCALE,
    prefill_len: int = 128,
    seed: int = 0,
    configs: dict[str, dict] | None = None,
) -> list[dict]:
    """Speedup breakdown of the three techniques (paper Table III).

    The baseline configuration reproduces kTransformers behaviour; each
    row switches on one component, the last all three.
    """
    configs = configs or ABLATION_CONFIGS
    prefill = prefill_workloads(prefill_len, seed=seed)[0]
    decode = decode_workload(scale.decode_steps, seed=seed)
    rows = []
    baseline_prefill = baseline_decode = None
    for config_name, toggles in configs.items():
        prefill_result = run_workload(
            model=model_name,
            strategy="hybrimoe",
            cache_ratio=cache_ratio,
            workload=prefill,
            num_layers=scale.num_layers,
            seed=seed,
            strategy_kwargs=dict(toggles),
        )
        decode_result = run_workload(
            model=model_name,
            strategy="hybrimoe",
            cache_ratio=cache_ratio,
            workload=decode,
            num_layers=scale.num_layers,
            seed=seed,
            strategy_kwargs=dict(toggles),
        )
        prefill_latency = float(prefill_result.ttft)
        decode_latency = float(decode_result.mean_tbt)
        if config_name == "baseline":
            baseline_prefill = prefill_latency
            baseline_decode = decode_latency
        rows.append(
            {
                "config": config_name,
                "prefill_latency_s": prefill_latency,
                "decode_latency_s": decode_latency,
                "prefill_speedup": (
                    baseline_prefill / prefill_latency if baseline_prefill else 1.0
                ),
                "decode_speedup": (
                    baseline_decode / decode_latency if baseline_decode else 1.0
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Extra ablations — design choices beyond the paper's
# ----------------------------------------------------------------------
def ablation_scheduler_variants(
    model_name: str = "deepseek",
    cache_ratio: float = 0.25,
    scale: ExperimentScale = QUICK_SCALE,
    prefill_len: int = 128,
    seed: int = 0,
) -> list[dict]:
    """Transfer search and CPU stealing, toggled independently."""
    from repro.core.hybrid_scheduler import SchedulerConfig

    variants = {
        "search+steal": SchedulerConfig(search_transfers=True, allow_cpu_steal=True),
        "search-only": SchedulerConfig(search_transfers=True, allow_cpu_steal=False),
        "extremes+steal": SchedulerConfig(search_transfers=False, allow_cpu_steal=True),
        "extremes-only": SchedulerConfig(search_transfers=False, allow_cpu_steal=False),
    }
    prefill = prefill_workloads(prefill_len, seed=seed)[0]
    decode = decode_workload(scale.decode_steps, seed=seed)
    rows = []
    for name, scheduler_config in variants.items():
        engine_config = EngineConfig(
            cache_ratio=cache_ratio, seed=seed, scheduler=scheduler_config
        )
        prefill_result = run_workload(
            model=model_name,
            strategy="hybrimoe",
            cache_ratio=cache_ratio,
            workload=prefill,
            num_layers=scale.num_layers,
            seed=seed,
            engine_config=engine_config,
        )
        decode_result = run_workload(
            model=model_name,
            strategy="hybrimoe",
            cache_ratio=cache_ratio,
            workload=decode,
            num_layers=scale.num_layers,
            seed=seed,
            engine_config=engine_config,
        )
        rows.append(
            {
                "variant": name,
                "prefill_latency_s": float(prefill_result.ttft),
                "decode_latency_s": float(decode_result.mean_tbt),
            }
        )
    return rows


def ablation_prefetch_depth(
    model_name: str = "deepseek",
    cache_ratio: float = 0.25,
    depths: tuple[int, ...] = (1, 2, 3),
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """Impact of the prefetch lookahead depth (paper fixes 3)."""
    decode = decode_workload(scale.decode_steps, seed=seed)
    rows = []
    for depth in depths:
        engine_config = EngineConfig(
            cache_ratio=cache_ratio, seed=seed, prefetch_lookahead=depth
        )
        result = run_workload(
            model=model_name,
            strategy="hybrimoe",
            cache_ratio=cache_ratio,
            workload=decode,
            num_layers=scale.num_layers,
            seed=seed,
            engine_config=engine_config,
        )
        rows.append(
            {
                "lookahead": depth,
                "decode_latency_s": float(result.mean_tbt),
                "decode_hit_rate": float(result.decode_hit_rate()),
            }
        )
    return rows


def ablation_mrs_parameters(
    model_name: str = "deepseek",
    cached_percent: float = 0.3,
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.9),
    top_p_factors: tuple[int, ...] = (1, 2, 4),
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
) -> list[dict]:
    """MRS sensitivity to alpha and the top-p accumulation width.

    The paper sets ``p = 2 * num_activated`` (§IV-D); this sweep shows
    the neighbourhood of that choice via trace replay.
    """
    trace = _make_trace(model_name, scale, seed)
    total = trace.num_layers * trace.num_experts
    capacity = max(1, int(round(cached_percent * total)))
    rows = []
    for alpha in alphas:
        for factor in top_p_factors:
            policy = make_policy(
                "mrs", alpha=alpha, top_p=factor * trace.num_activated
            )
            cache = ExpertCache(capacity, policy)
            counts = expert_activation_frequency(trace)
            ranking = sorted(
                (
                    (layer, expert)
                    for layer in range(trace.num_layers)
                    for expert in range(trace.num_experts)
                ),
                key=lambda key: (-counts[key[0], key[1]], key[0], key[1]),
            )
            cache.warm_fill(ranking)
            hits = accesses = 0
            for step in trace.steps:
                for routing in step.layers:
                    cache.observe_scores(routing.layer, routing.mean_scores)
                    for expert in routing.activated():
                        key = (routing.layer, expert)
                        hit = cache.access(key)
                        if not step.is_prefill:
                            accesses += 1
                            hits += int(hit)
                        if not hit:
                            cache.insert(key)
            rows.append(
                {
                    "alpha": alpha,
                    "top_p_factor": factor,
                    "hit_rate": hits / accesses if accesses else 0.0,
                }
            )
    return rows
