"""Convenience constructors for strategies and engines.

The experiment harness, examples and tests all build engines the same
way; these helpers keep that construction in one place.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING

from repro.baselines.adapmoe import AdapMoEStrategy
from repro.baselines.ktransformers import KTransformersStrategy
from repro.baselines.llamacpp import LlamaCppStrategy
from repro.baselines.ondemand import OnDemandStrategy
from repro.core.strategy import HybriMoEStrategy
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.strategy_base import Strategy
from repro.errors import ConfigError
from repro.hardware.cost_model import HardwareProfile
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.model import ReferenceMoEModel
from repro.models.presets import get_preset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import EngineSpec, FleetSpec, ServingSpec

__all__ = [
    "available_strategies",
    "make_strategy",
    "make_engine",
    "make_serving_engine",
    "make_fleet",
]

_STRATEGIES = {
    "hybrimoe": HybriMoEStrategy,
    "ktransformers": KTransformersStrategy,
    "adapmoe": AdapMoEStrategy,
    "llamacpp": LlamaCppStrategy,
    "ondemand": OnDemandStrategy,
}


def available_strategies() -> list[str]:
    """Names accepted by :func:`make_strategy` / :func:`make_engine`."""
    return sorted(_STRATEGIES)


def _require_spec_exclusive(func, args: dict, spec_type: type, spec) -> None:
    """Enforce ``factory(spec=...)`` taking no other configuration.

    A spec *is* the configuration; mixing it with loose keyword
    overrides would create two sources of truth (and silently ignore
    one of them). Any argument that differs from its declared default
    alongside ``spec`` is an error naming the offending keywords.
    """
    if not isinstance(spec, spec_type):
        raise ConfigError(
            f"{func.__name__} spec must be a {spec_type.__name__}, got "
            f"{type(spec).__name__}"
        )
    clash = []
    for name, param in inspect.signature(func).parameters.items():
        if name == "spec":
            continue
        value = args[name]
        if value is param.default:
            continue
        try:
            if bool(value == param.default):
                continue
        except Exception:
            pass
        clash.append(name)
    if clash:
        raise ConfigError(
            f"{func.__name__}(spec=...) replaces the keyword configuration; "
            f"fold these arguments into the spec: {', '.join(sorted(clash))}"
        )


def make_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a strategy by short name.

    Keyword arguments are forwarded (e.g. the HybriMoE ablation toggles
    ``scheduling=False``).
    """
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(available_strategies())
        raise ConfigError(f"unknown strategy {name!r} (known: {known})") from None
    return cls(**kwargs)


def make_engine(
    model: str | ReferenceMoEModel = "deepseek",
    strategy: str | Strategy = "hybrimoe",
    cache_ratio: float = 0.5,
    hardware: str | HardwareProfile = "paper",
    num_layers: int | None = None,
    seed: int = 0,
    num_gpus: int = 1,
    placement: str = "round_robin",
    cpu_cache_capacity: int | None = None,
    cpu_cache_policy: str = "lru",
    disk_bandwidth: float | None = None,
    predictor: str | None = None,
    predict_horizon: int = 4,
    confidence_gate: float = 0.6,
    engine_config: EngineConfig | None = None,
    strategy_kwargs: dict | None = None,
    model_kwargs: dict | None = None,
    spec: "EngineSpec | None" = None,
) -> InferenceEngine:
    """One-call engine construction from preset names.

    Parameters
    ----------
    spec:
        An :class:`~repro.scenarios.spec.EngineSpec` carrying the whole
        configuration. Mutually exclusive with every other argument;
        the spec's fields feed the exact same construction path as the
        legacy keywords, so ``make_engine(spec=s)`` is bit-identical to
        spelling ``s``'s fields out as keywords.
    model:
        Preset name (``"mixtral"``, ``"qwen2"``, ``"deepseek"``) or a
        ready-made functional model.
    strategy:
        Strategy short name or instance.
    cache_ratio:
        GPU expert cache ratio (ignored when ``engine_config`` given).
    hardware:
        Hardware preset name or profile.
    num_layers:
        Optional layer-count override for fast runs.
    seed:
        Root seed for the model and engine workloads.
    num_gpus:
        Simulated GPU devices; above 1 the expert cache shards across
        devices (ignored when ``engine_config`` given).
    placement:
        Expert-placement policy for the sharded cache —
        ``"round_robin"``, ``"layer_striped"`` or ``"load_aware"``
        (ignored when ``engine_config`` given).
    cpu_cache_capacity:
        Routed-expert slots of host DRAM; ``None`` keeps the unbounded
        CPU store (the classic two-tier engine). An integer enables the
        tiered memory hierarchy — experts outside both caches spill to
        disk (ignored when ``engine_config`` given).
    cpu_cache_policy:
        DRAM-tier eviction policy: ``"lru"``, ``"lfu"`` or ``"mrs"``
        (ignored when ``engine_config`` given).
    disk_bandwidth:
        Disk read-bandwidth override in bytes/s, replacing the hardware
        profile's ``disk_bw`` (ignored when ``engine_config`` given).
    predictor:
        Cross-layer expert predictor name (``"frequency"`` /
        ``"transition"``) driving confidence-gated deep prefetching;
        ``None`` keeps the historical heuristic bit-identically
        (ignored when ``engine_config`` given).
    predict_horizon:
        Deepest lookahead distance a confident predictor may extend
        prefetching to (ignored when ``engine_config`` given).
    confidence_gate:
        Calibrated-confidence threshold of the predictor's gate; 1.0
        never fires (ignored when ``engine_config`` given).
    engine_config:
        Full engine configuration; overrides ``cache_ratio``/``seed``/
        ``num_gpus``/``placement``/the tiered-memory knobs.
    strategy_kwargs / model_kwargs:
        Extra constructor arguments for strategy / functional model.
    """
    if spec is not None:
        # Imported lazily: repro.scenarios builds on this module.
        from repro.scenarios.spec import EngineSpec

        _require_spec_exclusive(make_engine, locals(), EngineSpec, spec)
        model = spec.model
        strategy = spec.strategy
        cache_ratio = spec.cache_ratio
        hardware = spec.hardware
        num_layers = spec.num_layers
        seed = spec.seed
        num_gpus = spec.num_gpus
        placement = spec.placement
        cpu_cache_capacity = spec.cpu_cache_capacity
        cpu_cache_policy = spec.cpu_cache_policy
        disk_bandwidth = spec.disk_bandwidth
        predictor = spec.predictor
        predict_horizon = spec.predict_horizon
        confidence_gate = spec.confidence_gate
    if isinstance(model, str):
        config = get_preset(model, num_layers=num_layers)
        model = ReferenceMoEModel(config, seed=seed, **(model_kwargs or {}))
    if isinstance(strategy, str):
        strategy = make_strategy(strategy, **(strategy_kwargs or {}))
    elif strategy_kwargs:
        raise ConfigError("strategy_kwargs only apply when strategy is a name")
    if isinstance(hardware, str):
        hardware = get_hardware_preset(hardware)
    if engine_config is None:
        engine_config = EngineConfig(
            cache_ratio=cache_ratio,
            seed=seed,
            num_gpus=num_gpus,
            placement=placement,
            cpu_cache_capacity=cpu_cache_capacity,
            cpu_cache_policy=cpu_cache_policy,
            disk_bandwidth=disk_bandwidth,
            predictor=predictor,
            predict_horizon=predict_horizon,
            confidence_gate=confidence_gate,
        )
    return InferenceEngine(model, strategy, hardware, engine_config)


def make_serving_engine(
    model: str | ReferenceMoEModel = "deepseek",
    strategy: str | Strategy = "hybrimoe",
    cache_ratio: float = 0.5,
    hardware: str | HardwareProfile = "paper",
    num_layers: int | None = None,
    seed: int = 0,
    num_gpus: int = 1,
    placement: str = "round_robin",
    cpu_cache_capacity: int | None = None,
    cpu_cache_policy: str = "lru",
    disk_bandwidth: float | None = None,
    predictor: str | None = None,
    predict_horizon: int = 4,
    confidence_gate: float = 0.6,
    max_batch_size: int = 8,
    prefill_chunk_tokens: int | None = None,
    preemption: bool = False,
    request_timeout_s: float | None = None,
    shed_queue_depth: int | None = None,
    shed_resume_depth: int | None = None,
    faults=None,
    serving_config=None,
    engine_config: EngineConfig | None = None,
    strategy_kwargs: dict | None = None,
    model_kwargs: dict | None = None,
    spec: "ServingSpec | None" = None,
):
    """One-call construction of a continuous-batching serving engine.

    ``spec`` takes a :class:`~repro.scenarios.spec.ServingSpec` carrying
    the whole configuration (mutually exclusive with every other
    argument) and feeds the same construction path as the legacy
    keywords — ``make_serving_engine(spec=s)`` is bit-identical to
    spelling ``s`` out.

    Builds a fresh :func:`make_engine` (cold clock, warm cache) and
    wraps it in a :class:`~repro.serving.engine.ServingEngine`.
    ``serving_config`` overrides ``max_batch_size`` /
    ``prefill_chunk_tokens`` / ``preemption`` / the resilience knobs
    when given; ``num_gpus``/``placement`` configure the sharded
    expert cache and device-aware dispatch exactly as in
    :func:`make_engine`.

    ``prefill_chunk_tokens`` bounds each prefill step to that many
    prompt tokens (slices interleave with fused decode steps);
    ``preemption`` lets arrived higher-priority requests pause the
    lowest-priority decoder when the batch is full. The defaults keep
    the historical FCFS behaviour bit-identically.
    ``request_timeout_s`` aborts requests past their end-to-end budget
    (terminal status ``TIMED_OUT``); ``shed_queue_depth`` /
    ``shed_resume_depth`` enable overload shedding between the
    high/low backlog watermarks; ``faults`` injects a hardware-kind
    :class:`~repro.hardware.faults.FaultSchedule` (replica-0 windows
    apply).
    ``cpu_cache_capacity``/``cpu_cache_policy``/``disk_bandwidth``
    configure the tiered memory hierarchy exactly as in
    :func:`make_engine` (the shared serving cache then spans all three
    tiers).
    """
    # Imported lazily: repro.serving builds on repro.engine, so a
    # top-level import here would be circular.
    from repro.serving.engine import ServingEngine
    from repro.serving.scheduler import ServingConfig

    if spec is not None:
        from repro.scenarios.spec import ServingSpec

        _require_spec_exclusive(make_serving_engine, locals(), ServingSpec, spec)
        e = spec.engine
        model, strategy, cache_ratio = e.model, e.strategy, e.cache_ratio
        hardware, num_layers, seed = e.hardware, e.num_layers, e.seed
        num_gpus, placement = e.num_gpus, e.placement
        cpu_cache_capacity = e.cpu_cache_capacity
        cpu_cache_policy = e.cpu_cache_policy
        disk_bandwidth = e.disk_bandwidth
        predictor = e.predictor
        predict_horizon = e.predict_horizon
        confidence_gate = e.confidence_gate
        max_batch_size = spec.max_batch_size
        prefill_chunk_tokens = spec.prefill_chunk_tokens
        preemption = spec.preemption
        request_timeout_s = spec.request_timeout_s
        shed_queue_depth = spec.shed_queue_depth
        shed_resume_depth = spec.shed_resume_depth

    engine = make_engine(
        model=model,
        strategy=strategy,
        cache_ratio=cache_ratio,
        hardware=hardware,
        num_layers=num_layers,
        seed=seed,
        num_gpus=num_gpus,
        placement=placement,
        cpu_cache_capacity=cpu_cache_capacity,
        cpu_cache_policy=cpu_cache_policy,
        disk_bandwidth=disk_bandwidth,
        predictor=predictor,
        predict_horizon=predict_horizon,
        confidence_gate=confidence_gate,
        engine_config=engine_config,
        strategy_kwargs=strategy_kwargs,
        model_kwargs=model_kwargs,
    )
    if serving_config is None:
        serving_config = ServingConfig(
            max_batch_size=max_batch_size,
            prefill_chunk_tokens=prefill_chunk_tokens,
            preemption=preemption,
            request_timeout_s=request_timeout_s,
            shed_queue_depth=shed_queue_depth,
            shed_resume_depth=shed_resume_depth,
        )
    return ServingEngine(engine, serving_config, faults=faults)


def make_fleet(
    model: str | ReferenceMoEModel = "deepseek",
    strategy: str | Strategy = "hybrimoe",
    cache_ratio: float = 0.5,
    hardware: str | HardwareProfile = "paper",
    num_layers: int | None = None,
    seed: int = 0,
    num_gpus: int = 1,
    placement: str = "round_robin",
    cpu_cache_capacity: int | None = None,
    cpu_cache_policy: str = "lru",
    disk_bandwidth: float | None = None,
    predictor: str | None = None,
    predict_horizon: int = 4,
    confidence_gate: float = 0.6,
    max_batch_size: int = 8,
    prefill_chunk_tokens: int | None = None,
    preemption: bool = False,
    request_timeout_s: float | None = None,
    shed_queue_depth: int | None = None,
    shed_resume_depth: int | None = None,
    replicas: int = 2,
    router: str = "round_robin",
    faults=None,
    autoscale=None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.5,
    serving_config=None,
    engine_config: EngineConfig | None = None,
    strategy_kwargs: dict | None = None,
    model_kwargs: dict | None = None,
    spec: "FleetSpec | None" = None,
):
    """One-call construction of a multi-replica serving fleet.

    ``spec`` takes a :class:`~repro.scenarios.spec.FleetSpec` carrying
    the whole configuration (mutually exclusive with every other
    argument) and feeds the same construction path as the legacy
    keywords — ``make_fleet(spec=s)`` is bit-identical to spelling
    ``s`` out. Fault schedules and autoscale configs are live objects,
    not spec data; inject them via the keyword path.

    Builds a :class:`~repro.fleet.fleet.FleetRouter` whose ``replicas``
    identical replica engines are produced lazily by a
    :func:`make_engine` closure over these arguments — every replica
    gets the same model, strategy, hardware, seed and cache
    configuration (a homogeneous pool, required for the merged fleet
    report). ``router`` names the routing policy (``"round_robin"``,
    ``"least_loaded"`` or ``"cache_affinity"``); ``faults`` injects
    replica crashes / slow windows and sub-replica resource
    degradation (link / disk / straggler windows),
    ``max_retries``/``retry_backoff_s`` configure timeout
    retry-with-backoff, and ``autoscale`` enables threshold
    autoscaling of the active pool. The per-replica serving knobs
    (``max_batch_size`` / ``prefill_chunk_tokens`` / ``preemption`` /
    ``request_timeout_s`` / the shedding watermarks, or a full
    ``serving_config``) mirror :func:`make_serving_engine`.

    A fleet of one replica is bit-identical to the bare serving engine
    under every routing policy — the fleet equivalence tests pin this.
    """
    # Imported lazily: repro.fleet builds on repro.engine, so a
    # top-level import here would be circular.
    from repro.fleet.fleet import FleetRouter
    from repro.serving.scheduler import ServingConfig

    if spec is not None:
        from repro.scenarios.spec import FleetSpec

        _require_spec_exclusive(make_fleet, locals(), FleetSpec, spec)
        e = spec.engine
        model, strategy, cache_ratio = e.model, e.strategy, e.cache_ratio
        hardware, num_layers, seed = e.hardware, e.num_layers, e.seed
        num_gpus, placement = e.num_gpus, e.placement
        cpu_cache_capacity = e.cpu_cache_capacity
        cpu_cache_policy = e.cpu_cache_policy
        disk_bandwidth = e.disk_bandwidth
        predictor = e.predictor
        predict_horizon = e.predict_horizon
        confidence_gate = e.confidence_gate
        s = spec.serving
        max_batch_size = s.max_batch_size
        prefill_chunk_tokens = s.prefill_chunk_tokens
        preemption = s.preemption
        request_timeout_s = s.request_timeout_s
        shed_queue_depth = s.shed_queue_depth
        shed_resume_depth = s.shed_resume_depth
        replicas = spec.replicas
        router = spec.router
        max_retries = spec.max_retries
        retry_backoff_s = spec.retry_backoff_s

    if not isinstance(strategy, str) and replicas > 1:
        raise ConfigError(
            "pass the strategy by name for a multi-replica fleet: a shared "
            "strategy instance would leak scheduler state across replicas"
        )
    if isinstance(model, str):
        model = ReferenceMoEModel(
            get_preset(model, num_layers=num_layers),
            seed=seed,
            **(model_kwargs or {}),
        )

    def engine_factory() -> InferenceEngine:
        # Strategy instances hold per-engine state, so each replica
        # builds its own; the functional model is stateless per forward
        # and shared across the pool.
        return make_engine(
            model=model,
            strategy=strategy,
            cache_ratio=cache_ratio,
            hardware=hardware,
            num_layers=num_layers,
            seed=seed,
            num_gpus=num_gpus,
            placement=placement,
            cpu_cache_capacity=cpu_cache_capacity,
            cpu_cache_policy=cpu_cache_policy,
            disk_bandwidth=disk_bandwidth,
            predictor=predictor,
            predict_horizon=predict_horizon,
            confidence_gate=confidence_gate,
            engine_config=engine_config,
            strategy_kwargs=strategy_kwargs,
            model_kwargs=None,
        )

    if serving_config is None:
        serving_config = ServingConfig(
            max_batch_size=max_batch_size,
            prefill_chunk_tokens=prefill_chunk_tokens,
            preemption=preemption,
            request_timeout_s=request_timeout_s,
            shed_queue_depth=shed_queue_depth,
            shed_resume_depth=shed_resume_depth,
        )
    return FleetRouter(
        engine_factory,
        replicas=replicas,
        policy=router,
        config=serving_config,
        faults=faults,
        autoscale=autoscale,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
