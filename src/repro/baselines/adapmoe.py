"""AdapMoE baseline: GPU-centric scheduling with prefetch + LRU cache.

AdapMoE is the state of the art for *GPU-only* MoE offloading: every
expert computes on the GPU, misses trigger on-demand loads, an LRU
cache retains recently used experts, and the next layer's experts are
prefetched during the current layer's non-MoE computation using
gate-reuse prediction. (AdapMoE's sensitivity-based adaptive gating —
skipping low-impact experts — changes model outputs and is out of scope
for a scheduling comparison.)
"""

from __future__ import annotations

import numpy as np

from repro.cache.lru import LRUPolicy
from repro.cache.sharded import CacheSpec
from repro.core.fixed_plan import gpu_only_plan
from repro.core.prefetch import PredictedLayer
from repro.core.tasks import ExecutionPlan
from repro.engine.strategy_base import LayerContext, Strategy

__all__ = ["AdapMoEStrategy"]


class AdapMoEStrategy(Strategy):
    """GPU-centric on-demand loading with next-layer prefetching."""

    name = "adapmoe"

    def cache_spec(self) -> CacheSpec:
        runtime = self._runtime()
        return CacheSpec(
            runtime.capacity, LRUPolicy, warm=runtime.frequency_ranking()
        )

    def observe_scores(self, ctx: LayerContext) -> None:
        """LRU ignores scores; recency updates happen on access."""

    def plan_layer(self, ctx: LayerContext) -> ExecutionPlan:
        runtime = self._runtime()
        return gpu_only_plan(
            layer=ctx.layer,
            activated=list(ctx.activated),
            cached_experts=set(ctx.cached_experts),
            n_tokens=ctx.n_tokens,
            oracle=runtime.estimated_oracle(ctx.n_tokens),
            include_shared=ctx.include_shared,
        )

    def prefetch_requests(
        self,
        ctx: LayerContext,
        predictions: list[PredictedLayer],
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[tuple[int, int]]:
        """Prefetch the predicted top-K of the *next* layer by score."""
        if not predictions:
            return []
        runtime = self._runtime()
        nxt = predictions[0]
        k = runtime.model_config.num_activated_experts
        order = np.argsort(-np.asarray(nxt.scores), kind="stable")[:k]
        shape = runtime.model_config.routed_expert_shape
        cost = runtime.cost_estimated.transfer_time(shape)
        chosen: list[tuple[int, int]] = []
        spent = 0.0
        for expert in order:
            expert = int(expert)
            if expert in nxt.cached_experts:
                continue
            if spent + cost > budget_s:
                break
            chosen.append((nxt.layer, expert))
            spent += cost
        return chosen
