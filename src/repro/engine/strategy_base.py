"""Strategy interface: how a framework schedules one MoE layer.

Every evaluated framework (HybriMoE and the four baselines) implements
:class:`Strategy`. The engine owns the mechanics — clocks, the cache
object, plan validation/execution, metric collection — and delegates
three decisions to the strategy:

- :meth:`Strategy.cache_spec` — policy, capacity, pinning and warm
  fill, as a declarative :class:`~repro.cache.sharded.CacheSpec` the
  engine materialises unsharded (one GPU) or sharded (N GPUs);
- :meth:`Strategy.plan_layer` — the per-layer execution plan, invoked
  once per device group on a multi-GPU platform;
- :meth:`Strategy.prefetch_requests` — which experts of future layers
  to pull over PCIe during idle windows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.manager import ExpertCache
from repro.cache.sharded import CacheSpec
from repro.core.prefetch import PredictedLayer
from repro.core.tasks import ExecutionPlan
from repro.models.gating import RouterOutput

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.engine import EngineRuntime

__all__ = ["LayerContext", "Strategy"]


@dataclass(frozen=True)
class LayerContext:
    """Everything a strategy may consult when planning one layer.

    On a single-GPU platform there is one context per layer. On a
    multi-GPU platform the pipeline partitions the layer's activated
    experts by home device and hands the strategy one context per
    device group — ``activated``/``cached_experts`` then cover only
    that device's slice, ``device_id`` names the device, and exactly
    one group per layer carries ``include_shared=True``.
    """

    layer: int
    stage: str  # "prefill" | "decode"
    n_tokens: int
    router: RouterOutput
    activated: tuple[tuple[int, int], ...]
    cached_experts: frozenset[int]
    moe_start: float
    pcie_backlog: float
    #: Ready-time offsets (relative to moe_start) of cached experts
    #: whose prefetch transfers are still in flight.
    inflight_offsets: tuple[tuple[int, float], ...] = ()
    #: GPU device this context's experts are homed on (0 unsharded).
    device_id: int = 0
    #: Whether this device's plan carries the fused shared-experts
    #: block (exactly one device per layer does).
    include_shared: bool = True
    #: Seconds until the fleet-shared CPU frees up, relative to
    #: ``moe_start`` (earlier devices' CPU fallback queues ahead;
    #: always 0 on a single-GPU platform thanks to the layer barrier).
    cpu_backlog: float = 0.0
    #: Activated experts of this context resident in *no* memory tier
    #: (tiered platforms only — empty on the classic two-tier engine).
    #: Using one first pays ``disk_fetch_s`` on the shared disk link.
    spilled_experts: frozenset[int] = frozenset()
    #: Estimated disk -> DRAM read seconds per spilled expert.
    disk_fetch_s: float = 0.0

    def inflight_dict(self) -> dict[int, float]:
        return dict(self.inflight_offsets)


class Strategy(ABC):
    """Per-framework scheduling behaviour plugged into the engine."""

    #: Short identifier used in configs and result tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.runtime: "EngineRuntime | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "EngineRuntime") -> None:
        """Attach the engine runtime, then run strategy setup."""
        self.runtime = runtime
        self.setup()

    def setup(self) -> None:
        """Hook for warmup-trace profiling, pinning decisions, etc."""

    def on_costs_changed(self) -> None:
        """Hook fired when the engine's cost models changed in place.

        Hardware fault injection degrades a resource mid-run by
        mutating the shared cost-model wrappers; strategies that froze
        a cost-derived scalar at :meth:`setup` time refresh it here.
        The default is a no-op — strategies that always query the cost
        models live need nothing.
        """

    def cache_spec(self) -> CacheSpec:
        """Declarative recipe of the expert cache this strategy manages.

        The engine materialises the spec: unsharded on one GPU
        (:meth:`CacheSpec.build`), or as per-device shards behind a
        :class:`~repro.cache.sharded.ShardedCacheManager` when the
        platform has several (:meth:`CacheSpec.build_sharded`).
        """
        raise NotImplementedError(
            f"strategy {self.name!r} defines neither cache_spec() nor "
            "build_cache()"
        )

    def build_cache(self) -> ExpertCache:
        """Create the unsharded expert cache (materialises the spec)."""
        return self.cache_spec().build()

    # ------------------------------------------------------------------
    # per-layer behaviour
    # ------------------------------------------------------------------
    @abstractmethod
    def plan_layer(self, ctx: LayerContext) -> ExecutionPlan:
        """Produce the execution plan for one routed MoE layer."""

    def after_layer(self, ctx: LayerContext, plan: ExecutionPlan) -> None:
        """Post-execution cache maintenance.

        Default behaviour: insert every transferred expert into the
        cache (dynamic caching). Static-mapping strategies override
        this with a no-op.
        """
        runtime = self._runtime()
        for transfer in plan.transfers:
            runtime.cache.insert((transfer.layer, transfer.expert))

    def observe_scores(self, ctx: LayerContext) -> None:
        """Feed routing scores to the cache policy (MRS signal).

        Called once per layer before planning; default forwards the
        mean scores so score-aware policies stay current.
        """
        runtime = self._runtime()
        runtime.cache.observe_scores(ctx.layer, ctx.router.mean_scores())

    def prefetch_requests(
        self,
        ctx: LayerContext,
        predictions: list[PredictedLayer],
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[tuple]:
        """Experts of future layers to transfer during idle PCIe time.

        ``layer_span_s`` estimates the wall time of one layer and
        ``backlog_s`` the PCIe link's queued work — together they bound
        which transfers can land before their target layer. Returns
        ``(layer, expert)`` keys in issue order; default is no
        prefetching.

        On a tiered-memory platform a request may instead be the
        triple ``(layer, expert, "dram")``: promote the (spilled)
        expert into host DRAM only — pay the disk read now so a later
        use is a plain CPU compute or PCIe transfer — without spending
        PCIe bandwidth or a GPU cache slot on it.
        """
        return []

    def attention_device(self, layer: int) -> str:
        """Device running the layer's attention (llama.cpp overrides)."""
        return "gpu"

    # ------------------------------------------------------------------
    def _runtime(self) -> "EngineRuntime":
        if self.runtime is None:
            raise RuntimeError(
                f"strategy {self.name!r} used before being bound to an engine"
            )
        return self.runtime
