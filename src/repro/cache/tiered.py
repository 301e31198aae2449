"""Tiered expert memory: a capacity-limited DRAM tier over disk spill.

:class:`TieredCacheManager` generalises the two-tier memory model (a
GPU expert cache over an *infinite* CPU store) to the three-tier
hierarchy of memory-limited deployments:

- **GPU tier** — the existing :class:`~repro.cache.manager.ExpertCache`
  (or a :class:`~repro.cache.sharded.ShardedCacheManager` on a fleet),
  built from the strategy's :class:`~repro.cache.sharded.CacheSpec`
  exactly as before;
- **CPU DRAM tier** — a second, capacity-limited :class:`ExpertCache`
  with its own eviction policy from the same strategy registry
  (LRU/LFU/MRS apply per tier). An expert resident here can be
  CPU-computed in place or transferred to a GPU at plain PCIe cost;
- **disk tier** — the implicit backing store holding *every* expert.
  An expert resident in neither cache is **spilled**: using it first
  pays a disk -> DRAM read on the platform's shared disk link, before
  any CPU compute or PCIe transfer.

The manager duck-types the full single-cache surface the engine,
pipeline and strategies consume (membership and mutation always mean
the **GPU tier**, so two-tier callers are unaffected), and adds the
tier queries the scheduler and prefetcher need: :meth:`dram_resident`,
:meth:`spilled_experts`, :meth:`promote_to_dram`. GPU-tier statistics
stay authoritative for the paper's hit-rate figures; the DRAM tier
keeps its own counters, where an *access* is recorded only for GPU
misses — its hit rate is therefore the fraction of GPU misses served
from DRAM rather than disk.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cache.base import ExpertKey
from repro.cache.manager import CacheStats, ExpertCache
from repro.cache.sharded import ShardedCacheManager
from repro.errors import CacheError

__all__ = ["TieredCacheManager"]


class TieredCacheManager:
    """GPU-tier facade composing a DRAM tier with implicit disk spill.

    Parameters
    ----------
    gpu_tier:
        The GPU expert cache (unsharded or sharded) the engine would
        have used on its own; every two-tier operation forwards here
        verbatim, which is what keeps the unbounded-DRAM configuration
        bit-identical to the historical engine.
    cpu_tier:
        The capacity-limited DRAM cache. Its capacity counts *routed
        expert slots* of host memory; keys outside both tiers are
        spilled to disk.
    """

    def __init__(self, gpu_tier: ExpertCache | ShardedCacheManager,
                 cpu_tier: ExpertCache) -> None:
        if cpu_tier.pinned_keys:
            raise CacheError("the DRAM tier does not support pinned keys")
        self.gpu_tier = gpu_tier
        self.cpu_tier = cpu_tier

    def set_fast_path(self, enabled: bool) -> None:
        """Forward the structural-acceleration toggle to both tiers."""
        self.gpu_tier.set_fast_path(enabled)
        self.cpu_tier.set_fast_path(enabled)

    # ------------------------------------------------------------------
    # tier queries
    # ------------------------------------------------------------------
    def dram_resident(self, key: ExpertKey) -> bool:
        """Whether ``key`` has a copy in host DRAM."""
        return key in self.cpu_tier

    def is_spilled(self, key: ExpertKey) -> bool:
        """Whether using ``key`` requires a disk read first."""
        return key not in self.gpu_tier and key not in self.cpu_tier

    def spilled_experts(self, layer: int, experts: Iterable[int]) -> frozenset[int]:
        """The subset of ``experts`` of ``layer`` resident in no tier."""
        return frozenset(
            expert for expert in experts if self.is_spilled((layer, expert))
        )

    def promote_to_dram(self, key: ExpertKey) -> list[ExpertKey]:
        """Make ``key`` DRAM-resident (after a disk read has been paid).

        Returns the DRAM keys evicted to make room. Evicting a DRAM
        copy of a GPU-resident expert is legal — the GPU copy is
        independent — but re-fetching it later costs a disk read.
        """
        return self.cpu_tier.insert(key)

    def dram_would_admit(self, key: ExpertKey, margin: float = 0.0) -> bool:
        """Whether a speculative DRAM promotion of ``key`` makes sense.

        With ``margin=0`` (the default): plain insertion semantics —
        any non-resident key is admitted as long as the tier has slots
        at all (evicting the policy's victim when full), the classic
        behaviour of an OS page cache. A positive ``margin`` makes the
        promotion policy-aware: when the tier is full, ``key`` must
        outrank the would-be victim by the relative margin
        (:meth:`~repro.cache.manager.ExpertCache.would_admit`).
        Confidence-gated prefetching passes a margin shrinking with
        prediction confidence, so only well-earned deep predictions
        churn DRAM residency.
        """
        if margin <= 0.0:
            return self.cpu_tier.capacity > 0 and key not in self.cpu_tier
        return self.cpu_tier.would_admit(key, margin=margin)

    def tier_stats(self) -> dict[str, CacheStats]:
        """Counters per tier (``gpu`` aggregate and ``cpu``)."""
        return {"gpu": self.gpu_tier.stats, "cpu": self.cpu_tier.stats}

    def per_tier_hit_rates(self) -> dict[str, float]:
        """Hit rate per tier; the CPU rate is over GPU misses only."""
        return {
            "gpu": self.gpu_tier.stats.hit_rate,
            "cpu": self.cpu_tier.stats.hit_rate,
        }

    # ------------------------------------------------------------------
    # ExpertCache interface (GPU-tier semantics)
    # ------------------------------------------------------------------
    def __contains__(self, key: ExpertKey) -> bool:
        return key in self.gpu_tier

    def __len__(self) -> int:
        return len(self.gpu_tier)

    @property
    def capacity(self) -> int:
        return self.gpu_tier.capacity

    @property
    def stats(self) -> CacheStats:
        return self.gpu_tier.stats

    @property
    def resident_keys(self) -> set[ExpertKey]:
        return self.gpu_tier.resident_keys

    @property
    def pinned_keys(self) -> set[ExpertKey]:
        return self.gpu_tier.pinned_keys

    @property
    def locked_keys(self) -> set[ExpertKey]:
        return self.gpu_tier.locked_keys

    def cached_experts_of_layer(self, layer: int) -> set[int]:
        return self.gpu_tier.cached_experts_of_layer(layer)

    def access(self, key: ExpertKey) -> bool:
        """Record a lookup; a GPU miss additionally probes the DRAM tier.

        The DRAM access keeps that tier's policy recency/score state
        live and counts its hit/miss (DRAM hit = the miss is served
        from host memory; DRAM miss = it spills to disk).
        """
        hit = self.gpu_tier.access(key)
        if not hit:
            self.cpu_tier.access(key)
        return hit

    def touch(self, key: ExpertKey) -> None:
        self.gpu_tier.touch(key)

    def insert(self, key: ExpertKey) -> list[ExpertKey]:
        return self.gpu_tier.insert(key)

    def insert_if_better(self, key: ExpertKey) -> list[ExpertKey]:
        return self.gpu_tier.insert_if_better(key)

    def would_admit(self, key: ExpertKey, margin: float = 0.0) -> bool:
        return self.gpu_tier.would_admit(key, margin=margin)

    def warm_fill(self, keys: Iterable[ExpertKey]) -> None:
        self.gpu_tier.warm_fill(keys)

    def lock(self, keys: Iterable[ExpertKey]) -> None:
        self.gpu_tier.lock(keys)

    def unlock_all(self) -> None:
        self.gpu_tier.unlock_all()

    def observe_scores(self, layer: int, scores: np.ndarray) -> None:
        """Feed routing scores to *both* tiers' policies.

        A score-aware DRAM policy (MRS) needs the same signal the GPU
        tier gets; score-agnostic policies ignore it.
        """
        self.gpu_tier.observe_scores(layer, scores)
        self.cpu_tier.observe_scores(layer, scores)

    # ------------------------------------------------------------------
    # sharded-cache pass-through (multi-GPU pipeline)
    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        """Whether the GPU tier is device-sharded."""
        return isinstance(self.gpu_tier, ShardedCacheManager)

    @property
    def shards(self) -> list[ExpertCache]:
        return self.gpu_tier.shards

    @property
    def placement(self):
        return self.gpu_tier.placement

    @property
    def num_devices(self) -> int:
        return self.gpu_tier.num_devices

    def device_of(self, key: ExpertKey) -> int:
        return self.gpu_tier.device_of(key)

    def peek_device_of(self, key: ExpertKey) -> int | None:
        return self.gpu_tier.peek_device_of(key)

    def device_experts_of_layer(self, layer: int, device: int) -> set[int]:
        return self.gpu_tier.device_experts_of_layer(layer, device)

    def per_device_stats(self) -> list[CacheStats]:
        return self.gpu_tier.per_device_stats()

    def per_device_hit_rates(self) -> list[float]:
        return self.gpu_tier.per_device_hit_rates()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Validate both tiers' capacity/pinning/placement invariants."""
        self.gpu_tier.validate()
        self.cpu_tier.validate()
