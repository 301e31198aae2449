"""Typed, JSON-round-trippable configuration specs.

PRs 1-8 grew ``make_engine`` / ``make_serving_engine`` / ``make_fleet``
to ~20 keyword arguments each. This module consolidates that kwarg
sprawl into three frozen dataclasses that compose the way the systems
they configure do::

    EngineSpec                 one inference engine (model x strategy x
                               hardware x cache topology)
      -> ServingSpec           a continuous-batching serving loop over it
        -> FleetSpec           M replica serving engines behind a router

plus :class:`WorkloadRecipe`, a declarative request-trace description.
Every spec

- validates its fields eagerly (unknown strategy / hardware / placement
  names raise :class:`~repro.errors.ConfigError` at construction, not
  at build time deep inside a sweep worker);
- round-trips through plain JSON dicts: ``Spec.from_dict(s.to_dict())
  == s`` and ``s.to_dict()`` contains only JSON primitives — this is
  what lets the sweep runner ship specs to worker processes and stamp
  them into resumable per-cell output files;
- builds the real object via the factory it replaces (``build()``), so
  a spec-built engine is **bit-identical** to the equivalent kwarg
  call — the factories now route their legacy kwargs through these
  specs, and the spec-equivalence tests enforce it.

The legacy keyword arguments on the factories remain as thin shims
(they construct a spec internally); new code should build specs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import InferenceEngine
    from repro.fleet.fleet import FleetRouter
    from repro.serving.engine import ServingEngine
    from repro.workloads.generator import ArrivedWorkload

__all__ = [
    "EngineSpec",
    "ServingSpec",
    "FleetSpec",
    "WorkloadRecipe",
]


def _check_dict_keys(cls, data: Mapping[str, Any]) -> None:
    """Reject unknown keys so typos fail loudly instead of silently."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def _plain(value):
    """Coerce a spec field value to JSON-representable primitives."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class EngineSpec:
    """Declarative recipe for one :class:`~repro.engine.engine.InferenceEngine`.

    Field-for-field this mirrors the name-based keyword arguments of
    :func:`~repro.engine.factory.make_engine`; unlike the kwargs it only
    admits *preset names* (never model/strategy/profile instances), so a
    spec is pure data — comparable, hashable and JSON-round-trippable.

    Attributes
    ----------
    model / num_layers:
        Model preset name and optional layer-count override.
    strategy:
        Strategy short name (``"hybrimoe"``, ``"ondemand"``, ...).
    cache_ratio / seed:
        GPU expert cache ratio and root seed.
    hardware:
        Hardware preset name (``"paper"``, ``"disk-slow"``, ``"edge"``, ...).
    num_gpus / placement:
        Simulated device count and sharded-cache placement policy.
    cpu_cache_capacity / cpu_cache_policy / disk_bandwidth:
        Tiered-memory knobs (``None`` capacity keeps the classic
        two-tier engine).
    predictor / predict_horizon / confidence_gate:
        Predictive-scheduling knobs: cross-layer expert predictor name
        (``None`` keeps the heuristic prefetcher bit-identically), the
        deepest lookahead a confident predictor may extend to, and the
        calibrated-confidence threshold of the gate.
    """

    model: str = "deepseek"
    num_layers: int | None = None
    strategy: str = "hybrimoe"
    cache_ratio: float = 0.5
    hardware: str = "paper"
    seed: int = 0
    num_gpus: int = 1
    placement: str = "round_robin"
    cpu_cache_capacity: int | None = None
    cpu_cache_policy: str = "lru"
    disk_bandwidth: float | None = None
    predictor: str | None = None
    predict_horizon: int = 4
    confidence_gate: float = 0.6

    def __post_init__(self) -> None:
        # Imported here: the factory imports this module lazily inside
        # its functions, so a module-level import back into the factory
        # stack is safe but kept local for symmetry and startup cost.
        from repro.cache.base import available_policies
        from repro.cache.placement import available_placements
        from repro.engine.factory import available_strategies
        from repro.hardware.platform_presets import HARDWARE_PRESETS
        from repro.models.presets import MODEL_PRESETS

        if self.model not in MODEL_PRESETS:
            known = ", ".join(sorted(MODEL_PRESETS))
            raise ConfigError(f"unknown model preset {self.model!r} (known: {known})")
        if self.strategy not in available_strategies():
            known = ", ".join(available_strategies())
            raise ConfigError(f"unknown strategy {self.strategy!r} (known: {known})")
        if self.hardware not in HARDWARE_PRESETS:
            known = ", ".join(sorted(HARDWARE_PRESETS))
            raise ConfigError(
                f"unknown hardware preset {self.hardware!r} (known: {known})"
            )
        if not 0.0 < self.cache_ratio <= 1.0:
            raise ConfigError(
                f"cache_ratio must be in (0, 1], got {self.cache_ratio}"
            )
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.placement not in available_placements():
            known = ", ".join(available_placements())
            raise ConfigError(f"unknown placement {self.placement!r} (known: {known})")
        if self.cpu_cache_policy not in available_policies():
            known = ", ".join(available_policies())
            raise ConfigError(
                f"unknown cpu_cache_policy {self.cpu_cache_policy!r} (known: {known})"
            )
        if self.cpu_cache_capacity is not None and self.cpu_cache_capacity < 1:
            raise ConfigError(
                f"cpu_cache_capacity must be >= 1 (or None), got "
                f"{self.cpu_cache_capacity}"
            )
        if self.disk_bandwidth is not None and self.disk_bandwidth <= 0:
            raise ConfigError(
                f"disk_bandwidth must be positive (or None), got "
                f"{self.disk_bandwidth}"
            )
        if self.predictor is not None:
            from repro.prediction import available_predictors

            if self.predictor not in available_predictors():
                known = ", ".join(available_predictors())
                raise ConfigError(
                    f"unknown predictor {self.predictor!r} (known: {known})"
                )
        if self.predict_horizon < 1:
            raise ConfigError(
                f"predict_horizon must be >= 1, got {self.predict_horizon}"
            )
        if not 0.0 <= self.confidence_gate <= 1.0:
            raise ConfigError(
                f"confidence_gate must be in [0, 1], got {self.confidence_gate}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _check_dict_keys(cls, data)
        return cls(**dict(data))

    def build(self) -> "InferenceEngine":
        """Construct the engine this spec describes (via ``make_engine``)."""
        from repro.engine.factory import make_engine

        return make_engine(spec=self)


@dataclass(frozen=True)
class ServingSpec:
    """Declarative recipe for a continuous-batching serving engine.

    Composes an :class:`EngineSpec` with the serving-loop knobs of
    :class:`~repro.serving.scheduler.ServingConfig` — the spec analogue
    of :func:`~repro.engine.factory.make_serving_engine`.
    """

    engine: EngineSpec = field(default_factory=EngineSpec)
    max_batch_size: int = 8
    prefill_chunk_tokens: int | None = None
    preemption: bool = False
    request_timeout_s: float | None = None
    shed_queue_depth: int | None = None
    shed_resume_depth: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, EngineSpec):
            raise ConfigError(
                f"ServingSpec.engine must be an EngineSpec, got "
                f"{type(self.engine).__name__}"
            )
        # Delegate range validation to the config the spec describes:
        # one source of truth for the serving-knob invariants.
        self.serving_config()

    def serving_config(self):
        """The :class:`~repro.serving.scheduler.ServingConfig` equivalent."""
        from repro.serving.scheduler import ServingConfig

        return ServingConfig(
            max_batch_size=self.max_batch_size,
            prefill_chunk_tokens=self.prefill_chunk_tokens,
            preemption=self.preemption,
            request_timeout_s=self.request_timeout_s,
            shed_queue_depth=self.shed_queue_depth,
            shed_resume_depth=self.shed_resume_depth,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        data = {
            f.name: _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name != "engine"
        }
        data["engine"] = self.engine.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _check_dict_keys(cls, data)
        data = dict(data)
        if "engine" in data:
            data["engine"] = EngineSpec.from_dict(data["engine"])
        return cls(**data)

    def build(self) -> "ServingEngine":
        """Construct the serving engine (via ``make_serving_engine``)."""
        from repro.engine.factory import make_serving_engine

        return make_serving_engine(spec=self)


@dataclass(frozen=True)
class FleetSpec:
    """Declarative recipe for an M-replica serving fleet.

    Composes a per-replica :class:`ServingSpec` with the fleet-level
    knobs of :func:`~repro.engine.factory.make_fleet`. ``replicas=1``
    is meaningful to the scenario layer: it means "serve on the bare
    single engine" (a :class:`~repro.serving.engine.ServingEngine`,
    reporting a ``ServingReport``), not a one-replica fleet — the two
    are bit-identical, but the report types differ.
    """

    serving: ServingSpec = field(default_factory=ServingSpec)
    replicas: int = 2
    router: str = "round_robin"
    max_retries: int = 0
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        from repro.fleet.router import available_routers

        if not isinstance(self.serving, ServingSpec):
            raise ConfigError(
                f"FleetSpec.serving must be a ServingSpec, got "
                f"{type(self.serving).__name__}"
            )
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.router not in available_routers():
            known = ", ".join(available_routers())
            raise ConfigError(f"unknown router {self.router!r} (known: {known})")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s <= 0:
            raise ConfigError(
                f"retry_backoff_s must be positive, got {self.retry_backoff_s}"
            )

    @property
    def engine(self) -> EngineSpec:
        """Shortcut to the per-replica engine spec."""
        return self.serving.engine

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        data = {
            f.name: _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name != "serving"
        }
        data["serving"] = self.serving.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _check_dict_keys(cls, data)
        data = dict(data)
        if "serving" in data:
            data["serving"] = ServingSpec.from_dict(data["serving"])
        return cls(**data)

    def build(self) -> "FleetRouter":
        """Construct the fleet router (via ``make_fleet``).

        Valid for any ``replicas >= 1``; callers that want the
        scenario-layer "1 replica = bare engine" convention should
        check :attr:`replicas` and build ``self.serving`` instead.
        """
        from repro.engine.factory import make_fleet

        return make_fleet(spec=self)


# ----------------------------------------------------------------------
# workload recipes
# ----------------------------------------------------------------------
#: Per-kind parameter contract: (required keys, optional keys). The
#: builder functions own value validation; the recipe owns key hygiene
#: so a typo'd parameter fails at spec construction.
_RECIPE_KINDS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "poisson": (
        frozenset({"num_requests", "arrival_rate"}),
        frozenset({"decode_steps", "priority_mix", "class_deadlines", "datasets"}),
    ),
    "diurnal": (
        frozenset({"num_requests", "base_rate", "peak_rate"}),
        frozenset(
            {"period", "decode_steps", "priority_mix", "class_deadlines", "datasets"}
        ),
    ),
    "bursty": (
        frozenset({"num_requests", "base_rate", "burst_rate"}),
        frozenset(
            {
                "burst_every",
                "burst_duration",
                "decode_steps",
                "priority_mix",
                "class_deadlines",
                "datasets",
            }
        ),
    ),
    "trace": (
        frozenset({"arrival_times"}),
        frozenset({"decode_steps", "datasets"}),
    ),
    "skewed": (
        frozenset({"num_requests", "arrival_rate"}),
        frozenset({"num_profiles", "decode_steps", "prompt_length", "dataset"}),
    ),
    "chat": (
        frozenset({"num_sessions"}),
        frozenset(
            {
                "turns_per_session",
                "session_rate",
                "think_time_s",
                "user_tokens",
                "decode_steps",
                "dataset",
            }
        ),
    ),
}

#: Parameters clamped by :meth:`WorkloadRecipe.capped` — the sweep
#: runner's ``--requests`` / ``--steps`` smoke caps.
_REQUEST_CAP_KEYS = ("num_requests", "num_sessions")
_STEP_CAP_KEYS = ("decode_steps",)


@dataclass(frozen=True)
class WorkloadRecipe:
    """Declarative request-trace description: an arrival *kind* + params.

    ``kind`` selects the generator in :mod:`repro.workloads.generator`:

    ========== =========================================================
    kind       builder
    ========== =========================================================
    poisson    :func:`~repro.workloads.generator.serving_workload`
    diurnal    :func:`~repro.workloads.generator.diurnal_arrivals` trace
    bursty     :func:`~repro.workloads.generator.bursty_arrivals` trace
    trace      explicit ``arrival_times`` (non-monotone traces allowed —
               they surface the ``requests_from_trace`` reorder warning
               in the scenario's cell output instead of being rejected)
    skewed     :func:`~repro.workloads.generator.skewed_serving_workload`
    chat       :func:`~repro.workloads.generator.chat_serving_workload`
    ========== =========================================================

    ``params`` must use each builder's keyword names; unknown or
    missing-required keys raise at construction. The build seed comes
    from the scenario (not the recipe), so one recipe replays under
    every sweep seed.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RECIPE_KINDS:
            known = ", ".join(sorted(_RECIPE_KINDS))
            raise ConfigError(f"unknown workload kind {self.kind!r} (known: {known})")
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"WorkloadRecipe params must be a mapping, got "
                f"{type(self.params).__name__}"
            )
        required, optional = _RECIPE_KINDS[self.kind]
        keys = set(self.params)
        unknown = sorted(keys - required - optional)
        if unknown:
            raise ConfigError(
                f"unknown {self.kind!r} workload params: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(required | optional))})"
            )
        missing = sorted(required - keys)
        if missing:
            raise ConfigError(
                f"{self.kind!r} workload is missing required params: "
                f"{', '.join(missing)}"
            )
        # Freeze a JSON-plain copy so to_dict() is stable and callers
        # can't alias internal state through the constructor argument.
        object.__setattr__(self, "params", _plain(dict(self.params)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        return {"kind": self.kind, "params": _plain(dict(self.params))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadRecipe":
        """Rebuild a recipe from :meth:`to_dict` output."""
        _check_dict_keys(cls, data)
        data = dict(data)
        return cls(kind=data.get("kind", ""), params=data.get("params", {}))

    def capped(
        self, max_requests: int | None = None, max_steps: int | None = None
    ) -> "WorkloadRecipe":
        """A copy with request-count / decode-step params clamped down.

        This is the sweep runner's smoke control: CI caps every cell's
        size without editing the registered scenarios. Caps only ever
        shrink a workload — a cap above the recipe's own value is a
        no-op, so capped replays of an already-small scenario are
        byte-identical to uncapped ones.
        """
        params = dict(self.params)
        if max_requests is not None:
            if max_requests < 1:
                raise ConfigError(f"max_requests must be >= 1, got {max_requests}")
            for key in _REQUEST_CAP_KEYS:
                if params.get(key) is not None:
                    params[key] = min(int(params[key]), max_requests)
        if max_steps is not None:
            if max_steps < 0:
                raise ConfigError(f"max_steps must be >= 0, got {max_steps}")
            for key in _STEP_CAP_KEYS:
                if params.get(key) is not None:
                    params[key] = min(int(params[key]), max_steps)
        return WorkloadRecipe(kind=self.kind, params=params)

    def build(self, seed: int = 0, vocab_size: int = 512) -> "list[ArrivedWorkload]":
        """Materialise the recipe as a serving trace.

        A pure function of ``(recipe, seed, vocab_size)`` — the same
        recipe under the same seed always yields the same trace, which
        is what makes sweep cells resumable and replays byte-identical.
        """
        from repro.workloads import generator as wg

        p = dict(self.params)
        decode_steps = int(p.pop("decode_steps", 16))
        if self.kind == "poisson":
            return wg.serving_workload(
                num_requests=int(p.pop("num_requests")),
                arrival_rate=float(p.pop("arrival_rate")),
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "diurnal":
            num_requests = int(p.pop("num_requests"))
            times = wg.diurnal_arrivals(
                num_requests,
                base_rate=float(p.pop("base_rate")),
                peak_rate=float(p.pop("peak_rate")),
                period=float(p.pop("period", 60.0)),
                seed=seed,
            )
            return wg.serving_workload(
                arrival_times=times,
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "bursty":
            num_requests = int(p.pop("num_requests"))
            times = wg.bursty_arrivals(
                num_requests,
                base_rate=float(p.pop("base_rate")),
                burst_rate=float(p.pop("burst_rate")),
                burst_every=float(p.pop("burst_every", 30.0)),
                burst_duration=float(p.pop("burst_duration", 5.0)),
                seed=seed,
            )
            return wg.serving_workload(
                arrival_times=times,
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "trace":
            return self._explicit_trace(decode_steps, seed, vocab_size, p)
        if self.kind == "skewed":
            return wg.skewed_serving_workload(
                num_requests=int(p.pop("num_requests")),
                arrival_rate=float(p.pop("arrival_rate")),
                num_profiles=int(p.pop("num_profiles", 2)),
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                dataset=p.pop("dataset", "chatgpt-prompts"),
                prompt_length=p.pop("prompt_length", None),
                seed=seed,
            )
        # kind == "chat" (the registry rejected everything else)
        return wg.chat_serving_workload(
            num_sessions=int(p.pop("num_sessions")),
            turns_per_session=int(p.pop("turns_per_session", 3)),
            session_rate=float(p.pop("session_rate", 0.5)),
            think_time_s=float(p.pop("think_time_s", 2.0)),
            user_tokens=int(p.pop("user_tokens", 16)),
            decode_steps=decode_steps,
            vocab_size=vocab_size,
            dataset=p.pop("dataset", "chatgpt-prompts"),
            seed=seed,
        )

    @staticmethod
    def _mix_kwargs(params: dict[str, Any]) -> dict[str, Any]:
        """The optional serving_workload kwargs shared by arrival kinds."""
        kwargs: dict[str, Any] = {}
        if params.get("priority_mix") is not None:
            kwargs["priority_mix"] = {
                str(k): float(v) for k, v in params["priority_mix"].items()
            }
        if params.get("class_deadlines") is not None:
            kwargs["class_deadlines"] = {
                str(k): float(v) for k, v in params["class_deadlines"].items()
            }
        if params.get("datasets") is not None:
            kwargs["datasets"] = tuple(params["datasets"])
        return kwargs

    def _explicit_trace(
        self, decode_steps: int, seed: int, vocab_size: int, params: dict[str, Any]
    ) -> "list[ArrivedWorkload]":
        """Entries from explicit arrival instants, preserving trace order.

        Unlike :func:`~repro.workloads.generator.serving_workload`
        (which *rejects* non-monotone traces up front), this path keeps
        the entries in trace order and lets
        :func:`~repro.serving.engine.requests_from_trace` emit its
        reorder ``UserWarning`` at serve time — the scenario layer
        records that warning in the cell output rather than swallowing
        or pre-empting it.
        """
        from repro.workloads.datasets import DATASET_PROFILES, sample_prompt
        from repro.workloads.generator import ArrivedWorkload, WorkloadSpec

        times = [float(t) for t in params.pop("arrival_times")]
        if not times:
            raise ConfigError("trace workload needs at least one arrival time")
        datasets = tuple(params.pop("datasets", ("mtbench", "vicuna", "chatgpt-prompts")))
        for dataset in datasets:
            if dataset not in DATASET_PROFILES:
                raise ConfigError(f"unknown dataset {dataset!r}")
        entries = []
        for index, at_time in enumerate(times):
            dataset = datasets[index % len(datasets)]
            tokens = sample_prompt(dataset, vocab_size, seed=seed, index=index)
            entries.append(
                ArrivedWorkload(
                    arrival_time=at_time,
                    workload=WorkloadSpec(
                        kind="decode" if decode_steps > 0 else "prefill",
                        dataset=dataset,
                        prompt_tokens=tokens,
                        decode_steps=decode_steps,
                    ),
                )
            )
        return entries
