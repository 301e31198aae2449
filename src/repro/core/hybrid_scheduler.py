"""Hybrid CPU-GPU scheduling via schedule simulation (paper §IV-B).

The scheduling problem — which device computes each activated expert,
and which uncached experts are worth transferring to the GPU first — is
NP-hard in general. HybriMoE constrains it with three priority rules:

- **GPU priority**: the GPU computes cached experts, higher load first;
- **CPU priority**: the CPU computes uncached experts, lower load
  first, and may *steal* low-load cached experts when otherwise idle;
- **Transfer priority**: PCIe moves high-load uncached experts first,
  so expensive computations become GPU-eligible as early as possible.

With the orders fixed, the only remaining decision is the *allocation*:
how many (and therefore which) uncached experts go to the transfer
queue rather than the CPU queue (eq. 2). :class:`HybridScheduler`
resolves it exactly as the paper describes — an event-driven simulation
fills the three timelines for each candidate allocation, and the
allocation with the smallest simulated makespan wins.

Two search implementations produce **bit-identical plans**:

- the *reference* simulator (:meth:`HybridScheduler._simulate`) builds
  all three timelines from scratch for every candidate transfer count —
  the paper's description taken literally;
- the *fast path* (default, ``SchedulerConfig.fast_path``) ranks the
  experts in ``(-load, id)`` order — the order every priority sort and
  tie-break of the simulation agrees with — hoists the sorts, the
  per-expert durations and the PCIe arrival prefix out of the
  per-candidate loop, evaluates each candidate with a record-free
  replica of the event loop on ranks (same float operations in the
  same order, so the argmin cannot drift), and prunes candidates whose
  makespan lower bound provably cannot beat the incumbent — the
  transfer-chain bound is monotone in ``k``, so once it crosses the
  incumbent the whole remaining ascending search terminates. For a
  plan, the loop also logs each candidate's GPU order, CPU order and
  steals, and the winner's log becomes the plan.

On a **tiered-memory platform** (capacity-limited host DRAM over disk
spill) the planner additionally receives the layer's *spilled* expert
set and the estimated per-expert disk -> DRAM read time. A spilled
expert pays that read before either use: its PCIe transfer chain grows
by one disk hop (disk -> CPU -> GPU) and its CPU-fallback compute is
delayed by the same fetch. Both search paths apply the surcharge with
identical float operations, so fast-vs-reference bit-identity is
preserved; with an empty spilled set (the default two-tier platform)
every duration is byte-for-byte the historical one.

On top of either path sit two bounded LRU memos, each holding up to
``plan_cache_size`` entries, so the plans' low hit rate under batched
load cannot push out the screening entries:

- the **plan memo** keys :meth:`HybridScheduler.plan` on its exact
  inputs (layer, activated loads, cached set, in-flight offsets,
  backlogs, token count, shared flag, spilled set + disk cost);
- the **screening memo** holds the prefetcher's quick simulations
  (:class:`QuickLayer` queries and :meth:`~HybridScheduler.simulate_makespan`)
  under *relabel-invariant* keys. A simulation reads expert ids only
  through ``(load, id)`` tie-breaks and set membership (cached,
  spilled, queried, in flight). Ranking the activated experts in
  ``(-load, id)`` order preserves both, so inputs whose ranked
  ``(load, flags)`` sequences agree run the same float operations in
  the same order, whatever the ids. The key is that ranked sequence
  plus ``n_tokens`` and the disk cost; results are stored by rank and
  mapped back to the caller's ids on a hit. Decode steps keep
  predicting layers that differ only in *which* experts carry a load
  pattern, so these keys hit where exact-id keys miss.

Keys are value-complete — floats kept exact, so a hit reproduces the
miss bit-for-bit — and nothing is ever invalidated except by
:meth:`~HybridScheduler.invalidate_costs`. Memoization assumes the
oracle factory is deterministic per ``n_tokens`` (true of the engine's
estimated cost models; a stateful noisy oracle must disable it via
``plan_cache_size=0``).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.errors import SchedulingError

__all__ = [
    "SchedulerConfig",
    "HybridScheduler",
    "QuickLayer",
    "SimulatedTask",
    "SimulationResult",
]

#: Strict-improvement tolerance of the allocation argmin (shared by the
#: reference loop, the fast path and its lower-bound pruning).
_TIE_EPS = 1e-15


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable behaviour of the hybrid scheduler.

    Attributes
    ----------
    search_transfers:
        When True (paper behaviour), simulate every transfer count
        ``k = 0..|uncached|`` and keep the best. When False, only the
        two extremes (no transfers / transfer everything) are evaluated
        — the cheap mode used inside prefetch impact estimation and as
        an ablation.
    allow_cpu_steal:
        Allow an idle CPU to take low-load *cached* experts from the
        GPU queue (the paper's CPU priority rule, second clause).
    steal_margin:
        Fractional safety margin on the steal-benefit test; a steal
        happens only if the CPU would finish the stolen expert before
        ``(1 - margin) *`` the GPU's estimated finish time.
    max_search_width:
        Upper bound on the number of simulated transfer counts (nested
        dyadic subsampling, always including both extremes; widening
        the width only ever *adds* candidates, so a wider search can
        never pick a worse makespan). ``None`` means exhaustive.
    fast_path:
        Use the incremental search (hoisted sorts and durations,
        lower-bound pruning, plans from the winner's event log). Plans are
        bit-identical to the reference simulator's — property-tested —
        so this is purely a latency knob; False forces the reference
        path for oracle comparisons and perf baselines.
    plan_cache_size:
        Entries of each of the two bounded LRU memos: plans, and quick
        screening simulations (see module docs). ``0`` disables
        memoization. Requires a deterministic oracle factory.
    """

    search_transfers: bool = True
    allow_cpu_steal: bool = True
    steal_margin: float = 0.0
    max_search_width: int | None = None
    fast_path: bool = True
    plan_cache_size: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 <= self.steal_margin < 1.0:
            raise SchedulingError(
                f"steal_margin must be in [0, 1), got {self.steal_margin}"
            )
        if self.max_search_width is not None and self.max_search_width < 2:
            raise SchedulingError(
                f"max_search_width must be >= 2, got {self.max_search_width}"
            )
        if self.plan_cache_size < 0:
            raise SchedulingError(
                f"plan_cache_size must be non-negative, got {self.plan_cache_size}"
            )


@dataclass(frozen=True)
class SimulatedTask:
    """One simulated operation with its timeline placement."""

    expert: int
    start: float
    finish: float
    resource: str


@dataclass
class SimulationResult:
    """Outcome of one schedule simulation (one transfer allocation)."""

    makespan: float
    transfers: list[int]
    gpu_order: list[SimulatedTask]
    cpu_order: list[SimulatedTask]
    stolen: list[int]
    loads: dict[int, int]


class _DurationTable:
    """Per-``n_tokens`` memo of oracle durations keyed by load.

    The oracle is deterministic per ``(n_tokens, load)``, so a cached
    duration is the *same float* an oracle call would return — lookups
    cannot change any simulated timeline bit.
    """

    __slots__ = ("oracle", "transfer", "shared_gpu", "_gpu", "_cpu", "_cpu_first")

    def __init__(self, oracle: LayerCostOracle) -> None:
        self.oracle = oracle
        self.transfer = oracle.transfer()
        self.shared_gpu = oracle.shared_compute(Device.GPU)
        self._gpu: dict[int, float] = {}
        self._cpu: dict[int, float] = {}
        self._cpu_first: dict[int, float] = {}

    def gpu(self, load: int) -> float:
        d = self._gpu.get(load)
        if d is None:
            d = self._gpu[load] = self.oracle.gpu_compute(load)
        return d

    def cpu(self, load: int, first_task: bool) -> float:
        table = self._cpu_first if first_task else self._cpu
        d = table.get(load)
        if d is None:
            d = table[load] = self.oracle.cpu_compute(load, first_task=first_task)
        return d


class _Ranked:
    """A layer's activated experts by rank in ``(-load, id)`` order.

    Rank order *is* the GPU priority order and the tie-break of every
    sort the simulation makes, so the search runs on ranks: the GPU pool
    stays sorted by plain integer comparison, arrivals sort as
    ``(ready, rank)`` tuples, and durations are list lookups. Every
    duration is the duration table's float; a spilled expert's CPU job
    time includes its disk fetch — the same ``+= disk_fetch_s`` the
    simulation performs.
    """

    __slots__ = (
        "table", "ids", "loads", "spilled", "gpu", "cpu_first", "cpu_rest",
        "cpu_order", "steal_key",
    )

    def __init__(
        self,
        table: _DurationTable,
        order: list[int],
        loads: dict[int, int],
        spilled: frozenset[int],
        disk_fetch_s: float,
    ) -> None:
        self.table = table
        self.ids = order
        self.loads = [loads[e] for e in order]
        self.spilled = [e in spilled for e in order]
        self.gpu = [table.gpu(load) for load in self.loads]
        self.cpu_first = []
        self.cpu_rest = []
        for load, is_spilled in zip(self.loads, self.spilled):
            first = table.cpu(load, True)
            rest = table.cpu(load, False)
            if is_spilled:
                first += disk_fetch_s
                rest += disk_fetch_s
            self.cpu_first.append(first)
            self.cpu_rest.append(rest)
        # The CPU queue's (load, id) order; within one load, rank order
        # is id order. A rank's position in it is its steal priority.
        self.cpu_order = sorted(range(len(order)), key=lambda r: (self.loads[r], r))
        self.steal_key = [0] * len(order)
        for position, rank in enumerate(self.cpu_order):
            self.steal_key[rank] = position


class QuickLayer:
    """One layer's inputs to the quick (two-extremes) simulations.

    Built by :meth:`HybridScheduler.quick_layer`, which validates the
    inputs and ranks the activated experts in ``(-load, id)`` order
    once. The prefetcher then asks the layer for its base makespan and
    screening bounds (:meth:`screen`) and for the with-expert makespans
    of the screening survivors (:meth:`makespans_with`) without
    repeating that work. Every query is memoized in the scheduler's
    screening LRU under the layer's relabel-invariant signature (see
    the module docs) plus the ranks of the queried experts. Queried
    experts outside the activated set touch no timeline, so they all
    get one shared value and the key records only whether any occur.
    """

    __slots__ = (
        "_scheduler",
        "n_tokens",
        "disk_fetch_s",
        "_loads",
        "_cached",
        "_spilled",
        "_order",
        "_rank",
        "_signature",
        "_sorted",
    )

    def __init__(
        self,
        scheduler: HybridScheduler,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None,
        disk_fetch_s: float,
    ) -> None:
        if disk_fetch_s < 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        loads = HybridScheduler._validated_loads(activated)
        order = sorted(loads, key=lambda e: (-loads[e], e))
        # Only activated experts enter a timeline, so the layer keeps
        # its own copy of their cached flags (callers may reuse sets),
        # and only uncached ones can be spilled.
        cached = {e for e in order if e in cached_experts}
        spilled_eff = (
            frozenset(e for e in order if e in spilled and e not in cached)
            if spilled
            else frozenset()
        )
        signature = [n_tokens, disk_fetch_s]
        for expert in order:
            signature.append(loads[expert])
            signature.append((expert in cached) * 2 + (expert in spilled_eff))
        self._scheduler = scheduler
        self.n_tokens = n_tokens
        self.disk_fetch_s = disk_fetch_s
        self._loads = loads
        self._cached = cached
        self._spilled = spilled_eff
        self._order = order
        self._rank = {expert: rank for rank, expert in enumerate(order)}
        self._signature = tuple(signature)
        self._sorted: tuple | None = None

    # ------------------------------------------------------------------
    def screen(self, candidates: list[int]) -> tuple[float, dict[int, float]]:
        """Base quick makespan plus one screening bound per candidate.

        See :meth:`HybridScheduler.quick_screen`.
        """
        mask, outside = self._queried(candidates)
        base, by_rank, outside_value = self._memoized(
            ("qs", mask, outside, self._signature),
            lambda: (self._quick_makespan(None), *self._per_rank(mask, outside, self._bound)),
        )
        return base, self._by_caller(candidates, by_rank, outside_value)

    def lower_bounds(self, candidates: list[int]) -> dict[int, float]:
        """Screening bounds only.

        See :meth:`HybridScheduler.quick_makespan_lower_bounds`.
        """
        mask, outside = self._queried(candidates)
        entry = self._memoized(
            ("qb", mask, outside, self._signature),
            lambda: self._per_rank(mask, outside, self._bound),
        )
        return self._by_caller(candidates, *entry)

    def makespans_with(self, experts: list[int]) -> dict[int, float]:
        """Quick makespan with each expert cached.

        See :meth:`HybridScheduler.quick_makespans_with`.
        """
        mask, outside = self._queried(experts)
        entry = self._memoized(
            ("qw", mask, outside, self._signature),
            lambda: self._per_rank(mask, outside, self._quick_makespan),
        )
        return self._by_caller(experts, *entry)

    # ------------------------------------------------------------------
    def _memoized(self, key: tuple, compute):
        """The screening-LRU entry under ``key``, computed on a miss."""
        scheduler = self._scheduler
        entry = scheduler._memo_get(scheduler._screen_memo, key)
        if entry is None:
            entry = compute()
            scheduler._memo_put(scheduler._screen_memo, key, entry)
        return entry

    def _queried(self, experts: list[int]) -> tuple[int, bool]:
        """Rank bitmask of the queried activated experts, and whether
        any queried expert lies outside the activated set."""
        mask = 0
        outside = False
        rank = self._rank
        for expert in experts:
            r = rank.get(expert)
            if r is None:
                outside = True
            else:
                mask |= 1 << r
        return mask, outside

    def _per_rank(self, mask: int, outside: bool, value) -> tuple[list, object]:
        """``value(rank)`` for every queried rank, and ``value(None)`` —
        an outside expert, which changes nothing — if one was queried."""
        by_rank = [
            value(rank) if mask >> rank & 1 else None
            for rank in range(len(self._order))
        ]
        return by_rank, value(None) if outside else None

    def _by_caller(self, experts: list[int], by_rank: list, outside_value) -> dict:
        """Map rank-indexed results back to the caller's expert ids."""
        rank = self._rank
        out = {}
        for expert in experts:
            r = rank.get(expert)
            out[expert] = outside_value if r is None else by_rank[r]
        return out

    def _lists(self) -> tuple:
        """Ranked durations and orders of the layer (first miss only)."""
        if self._sorted is None:
            table = self._scheduler._duration_table(self.n_tokens)
            ranked = _Ranked(
                table, self._order, self._loads, self._spilled, self.disk_fetch_s
            )
            cached_r = [e in self._cached for e in self._order]
            uncached = [r for r, cached in enumerate(cached_r) if not cached]
            cpu_all = [r for r in ranked.cpu_order if not cached_r[r]]
            gpu_t0 = table.shared_gpu if table.shared_gpu > 0.0 else 0.0
            self._sorted = (ranked, cached_r, uncached, cpu_all, gpu_t0)
        return self._sorted

    def _quick_makespan(self, skip: int | None) -> float:
        """Two-extremes makespan with rank ``skip`` also cached."""
        ranked, cached_r, uncached, cpu_all, gpu_t0 = self._lists()
        if skip is not None:
            # Filtering one rank from a sorted list keeps its order, so
            # the search walks the floats of a from-scratch sort. `skip`
            # is cached now, never a CPU job, so the layer's job
            # durations serve every variant.
            cached_r = list(cached_r)
            cached_r[skip] = True
            uncached = [r for r in uncached if r != skip]
            cpu_all = [r for r in cpu_all if r != skip]
        _, makespan, _ = self._scheduler._search_sorted(
            ranked,
            cached_r,
            uncached,
            [r for r, cached in enumerate(cached_r) if cached],
            cpu_all,
            gpu_t0,
            [0] if not uncached else [0, len(uncached)],
            disk_fetch_s=self.disk_fetch_s,
        )
        return makespan

    def _bound(self, skip: int | None) -> float:
        """Lower bound on the quick makespan with rank ``skip`` also cached.

        Provably ``<=`` that makespan and built from the same duration
        floats: ``k = |uncached|`` puts every uncached expert on the
        PCIe chain and then the GPU (transferred experts are never
        stolen); ``k = 0`` runs them back to back on the CPU in
        ascending-load order (the first pays the warmup). Spilled
        experts carry their disk hop on both branches.
        """
        ranked, _, uncached, cpu_all, gpu_t0 = self._lists()
        gpu = ranked.gpu
        spilled = ranked.spilled
        disk_fetch_s = self.disk_fetch_s
        transfer = ranked.table.transfer
        t_pcie = 0.0
        chain = gpu_t0
        remaining = 0
        for rank in uncached:
            if rank == skip:
                continue
            if spilled[rank]:
                t_pcie += disk_fetch_s
            t_pcie += transfer
            chain = max(chain, t_pcie) + gpu[rank]
            remaining += 1
        if not remaining:
            return gpu_t0
        t_cpu = 0.0
        durations = ranked.cpu_first
        for rank in cpu_all:
            if rank == skip:
                continue
            t_cpu += durations[rank]
            durations = ranked.cpu_rest
        return min(chain, max(gpu_t0, t_cpu))


class HybridScheduler:
    """Schedule-simulation planner implementing eq. (2) of the paper.

    Parameters
    ----------
    oracle_factory:
        Callable ``(n_tokens) -> LayerCostOracle`` giving *estimated*
        durations (typically a warmup-fitted cost model). The planner
        never sees actual execution times. Must be deterministic per
        ``n_tokens`` when memoization or the fast path is enabled.
    config:
        Search and stealing behaviour.
    """

    #: Bound on the per-``n_tokens`` duration tables kept alive.
    _MAX_DURATION_TABLES = 64

    def __init__(self, oracle_factory, config: SchedulerConfig | None = None) -> None:
        self._oracle_factory = oracle_factory
        self.config = config or SchedulerConfig()
        self._tables: OrderedDict[int, _DurationTable] = OrderedDict()
        self._plan_memo: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self._screen_memo: OrderedDict[tuple, object] = OrderedDict()
        self._memo_hits = 0
        self._memo_misses = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plan(
        self,
        layer: int,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        pcie_backlog: float = 0.0,
        include_shared: bool = True,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> ExecutionPlan:
        """Produce the minimal-makespan execution plan for one layer.

        Parameters
        ----------
        layer:
            MoE layer index (only labels the plan).
        activated:
            ``(expert_id, load)`` pairs for every activated routed
            expert of the layer.
        cached_experts:
            Expert ids of this layer resident (or in flight) on the GPU.
        n_tokens:
            Tokens in this step (drives shared-expert cost).
        pcie_backlog:
            Seconds until the PCIe link frees up relative to the MoE
            phase start (in-flight prefetch transfers queue ahead).
        include_shared:
            Prepend the fused shared-experts block to the GPU queue
            (the paper's timelines always run shared experts on GPU
            first, Fig. 5).
        inflight:
            Ready-time offsets (relative to the MoE phase start) of
            cached experts whose prefetch transfers are still in
            flight; the GPU cannot start them earlier.
        cpu_backlog:
            Seconds until the shared CPU frees up relative to the MoE
            phase start. Zero on a single-GPU platform (the layer
            barrier drains the CPU); on a multi-GPU platform earlier
            devices' CPU-fallback work queues ahead, and this offset is
            how each device's planner arbitrates its own CPU fallback
            against the fleet-shared CPU (the per-device min-latency
            rule).
        spilled:
            Expert ids of this layer resident in *no* memory tier
            (tiered platforms only): each pays ``disk_fetch_s`` before
            its PCIe transfer or CPU compute can start.
        disk_fetch_s:
            Estimated disk -> DRAM read time per spilled expert.
        """
        # Value-complete key: every input the simulation reads, with
        # floats kept exact, so a hit reproduces the miss bit-for-bit.
        key = (
            layer,
            n_tokens,
            pcie_backlog,
            cpu_backlog,
            include_shared,
            tuple(sorted(activated)),
            frozenset(cached_experts),
            tuple(sorted((inflight or {}).items())),
            frozenset(spilled or ()),
            disk_fetch_s,
        )
        hit = self._memo_get(self._plan_memo, key)
        if hit is not None:
            return hit.clone()
        oracle = self._oracle_factory(n_tokens)
        if self.config.fast_path:
            loads, inflight_eff, spilled_eff = self._validated_inputs(
                activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
                spilled, disk_fetch_s,
            )
            _, makespan, orders = self._search_fast(
                loads,
                cached_experts,
                oracle,
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
                record=True,
            )
        else:
            best = self._best_simulation(
                activated,
                cached_experts,
                oracle,
                pcie_backlog,
                include_shared,
                inflight,
                cpu_backlog=cpu_backlog,
                spilled=spilled,
                disk_fetch_s=disk_fetch_s,
            )
            loads, makespan = best.loads, best.makespan
            orders = (
                best.transfers,
                [task.expert for task in best.gpu_order],
                [task.expert for task in best.cpu_order],
                best.stolen,
            )
        plan = self._materialise(
            layer, n_tokens, loads, *orders, makespan, include_shared
        )
        self._memo_put(self._plan_memo, key, plan.clone())
        return plan

    def simulate_makespan(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        pcie_backlog: float = 0.0,
        include_shared: bool = True,
        quick: bool = False,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> float:
        """Estimated makespan of the best allocation (no plan object).

        ``quick=True`` forces the two-extremes search regardless of
        config — used heavily by the prefetcher's impact simulation.
        """
        loads, inflight_eff, spilled_eff = self._validated_inputs(
            activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
            spilled, disk_fetch_s,
        )
        # Relabel-invariant key (module docs): per activated expert in
        # (-load, id) order, its load, cached/spilled flags and
        # effective in-flight offset.
        key = [
            "mk", quick, include_shared, pcie_backlog, cpu_backlog, n_tokens,
            disk_fetch_s,
        ]
        for expert in sorted(loads, key=lambda e: (-loads[e], e)):
            key.append(loads[expert])
            key.append((expert in cached_experts) * 2 + (expert in spilled_eff))
            key.append(inflight_eff.get(expert))
        key = tuple(key)
        hit = self._memo_get(self._screen_memo, key)
        if hit is not None:
            return hit
        oracle = self._oracle_factory(n_tokens)
        if self.config.fast_path:
            _, makespan, _ = self._search_fast(
                loads,
                cached_experts,
                oracle,
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog,
                force_quick=quick,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )
        else:
            best = self._best_simulation(
                activated,
                cached_experts,
                oracle,
                pcie_backlog,
                include_shared,
                inflight,
                force_quick=quick,
                cpu_backlog=cpu_backlog,
                spilled=spilled,
                disk_fetch_s=disk_fetch_s,
            )
            makespan = best.makespan
        self._memo_put(self._screen_memo, key, makespan)
        return makespan

    def quick_layer(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> QuickLayer:
        """Validate and load-rank one layer for the quick queries.

        The impact-driven prefetcher asks every predicted layer for its
        base makespan and screening bounds, then for the with-expert
        makespans of the survivors; the returned :class:`QuickLayer`
        answers both from one validation and one sort, memoized under
        relabel-invariant keys (module docs). Inputs follow
        :meth:`plan`'s conventions with zero backlogs and no inflight.
        """
        return QuickLayer(self, activated, cached_experts, n_tokens, spilled, disk_fetch_s)

    def quick_makespan_lower_bound(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> float:
        """Cheap lower bound on the quick (two-extremes) makespan.

        Used by the impact-driven prefetcher to *screen* candidates:
        the bound is provably ``<=`` the value
        :meth:`simulate_makespan` with ``quick=True`` (and zero
        backlogs) would return, built from the same duration floats the
        simulation would use, so screening on it can never change an
        exact decision. Spilled experts carry their disk-fetch
        surcharge on both branches, mirroring the simulation exactly.
        Not memoized (the per-candidate baseline of the batched calls).
        """
        layer = self.quick_layer(activated, cached_experts, n_tokens, spilled, disk_fetch_s)
        return layer._bound(None)

    def quick_makespan_lower_bounds(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        candidates: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> dict[int, float]:
        """Batched :meth:`quick_makespan_lower_bound` over candidates.

        Returns, per candidate ``e``, the exact float
        ``quick_makespan_lower_bound(activated, cached_experts | {e},
        n_tokens, ...)`` would produce. Filtering one expert from a
        sorted list is order-preserving, so each candidate's walks add
        the same floats in the same order as the per-call method
        (test-enforced); the batch memoizes as one ``"qb"`` entry.
        """
        layer = self.quick_layer(activated, cached_experts, n_tokens, spilled, disk_fetch_s)
        return layer.lower_bounds(candidates)

    def screen_prediction_batch(
        self,
        items: list[tuple],
        disk_fetch_s: float = 0.0,
    ) -> list[tuple[float, dict[int, float]]]:
        """:meth:`quick_screen` over a whole prediction window at once.

        ``items`` holds one ``(activated, cached_experts, n_tokens,
        candidates, spilled)`` tuple per predicted layer. Each item's
        result is the exact :meth:`quick_screen` pair (test-enforced).
        """
        return [
            self.quick_screen(
                activated,
                cached_experts,
                n_tokens,
                candidates,
                spilled=spilled,
                disk_fetch_s=disk_fetch_s,
            )
            for activated, cached_experts, n_tokens, candidates, spilled in items
        ]

    def quick_screen(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        candidates: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> tuple[float, dict[int, float]]:
        """Base quick makespan plus screening bounds, one memo entry.

        Returns ``(base, bounds)`` where ``base`` is the exact float
        ``simulate_makespan(activated, cached_experts, n_tokens,
        quick=True, ...)`` would produce (zero backlogs, no inflight)
        and ``bounds`` is exactly :meth:`quick_makespan_lower_bounds`
        over ``candidates``; the pair memoizes as one ``"qs"`` entry.
        ``base`` runs through the same search core as the general
        quick path, so values are bit-identical to the separate calls
        (test-enforced).
        """
        layer = self.quick_layer(activated, cached_experts, n_tokens, spilled, disk_fetch_s)
        return layer.screen(candidates)

    def quick_makespans_with(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        experts: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> dict[int, float]:
        """Batched with-expert quick simulations for the prefetcher.

        Returns, per expert ``e`` of ``experts``, the exact float
        ``simulate_makespan(activated, cached_experts | {e}, n_tokens,
        quick=True, ...)`` would produce (zero backlogs, no inflight —
        the impact simulation's calling convention). Each expert's
        uncached / cached / CPU-job orders are stable filters of the
        layer's sorted lists — order-preserving, so the search walks
        the same floats in the same order as the per-call path
        (test-enforced) — and the batch memoizes as one ``"qw"`` entry.
        """
        layer = self.quick_layer(activated, cached_experts, n_tokens, spilled, disk_fetch_s)
        return layer.makespans_with(experts)

    def invalidate_costs(self) -> None:
        """Drop every memoized plan, makespan and duration table.

        Required whenever the oracle factory's underlying cost model
        changes in place (hardware fault injection degrading a
        resource mid-run): memo entries and duration tables cache raw
        floats of the *old* costs, and serving a plan priced against an
        undegraded link would silently decouple planning from the
        platform. Hit/miss counters survive — they describe the run,
        not the costs.
        """
        self._tables.clear()
        self._plan_memo.clear()
        self._screen_memo.clear()

    def cache_info(self) -> dict[str, int]:
        """Memo statistics, totalled over the plan and screening LRUs.

        ``capacity`` is the bound on *each* LRU (``plan_cache_size``),
        so ``size`` can reach twice it.
        """
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "size": len(self._plan_memo) + len(self._screen_memo),
            "capacity": self.config.plan_cache_size,
        }

    # ------------------------------------------------------------------
    # memoization
    # ------------------------------------------------------------------
    def _memo_get(self, memo: OrderedDict, key: tuple):
        if not self.config.plan_cache_size:
            return None
        entry = memo.get(key)
        if entry is None:
            self._memo_misses += 1
            return None
        memo.move_to_end(key)
        self._memo_hits += 1
        return entry

    def _memo_put(self, memo: OrderedDict, key: tuple, value) -> None:
        if not self.config.plan_cache_size:
            return
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > self.config.plan_cache_size:
            memo.popitem(last=False)

    def _duration_table(self, n_tokens: int) -> _DurationTable:
        table = self._tables.get(n_tokens)
        if table is None:
            table = self._tables[n_tokens] = _DurationTable(
                self._oracle_factory(n_tokens)
            )
        self._tables.move_to_end(n_tokens)
        while len(self._tables) > self._MAX_DURATION_TABLES:
            self._tables.popitem(last=False)
        return table

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _candidate_transfer_counts(self, n_uncached: int, force_quick: bool) -> list[int]:
        if n_uncached == 0:
            return [0]
        if force_quick or not self.config.search_transfers:
            return sorted({0, n_uncached})
        width = self.config.max_search_width
        if width is None or n_uncached + 1 <= width:
            return list(range(n_uncached + 1))
        # Nested dyadic subsampling: extremes first, then breadth-first
        # interval bisection. The first `width` values of this priority
        # order are a *superset-monotone* family — widening the width
        # only adds candidates, so a wider search never worsens the
        # chosen makespan (test-enforced).
        chosen = [0, n_uncached]
        intervals = deque([(0, n_uncached)])
        while len(chosen) < width and intervals:
            lo, hi = intervals.popleft()
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            chosen.append(mid)
            intervals.append((lo, mid))
            intervals.append((mid, hi))
        return sorted(chosen)

    @staticmethod
    def _validated_loads(activated) -> dict[int, int]:
        loads = dict(activated)
        if len(loads) != len(activated):
            raise SchedulingError("duplicate expert ids in activated list")
        if any(load <= 0 for load in loads.values()):
            raise SchedulingError("activated experts must have positive load")
        return loads

    @staticmethod
    def _validated_inputs(
        activated,
        cached_experts,
        pcie_backlog: float,
        cpu_backlog: float,
        inflight,
        spilled=None,
        disk_fetch_s: float = 0.0,
    ) -> tuple[dict[int, int], dict[int, float], frozenset[int]]:
        """Shared input validation of both search paths.

        The effective spilled set is intersected with the *uncached*
        activated experts: a GPU-cached expert never touches disk, and
        spill state of non-activated experts is irrelevant to this
        layer's plan.
        """
        if pcie_backlog < 0:
            raise SchedulingError(f"pcie_backlog must be non-negative, got {pcie_backlog}")
        if cpu_backlog < 0:
            raise SchedulingError(f"cpu_backlog must be non-negative, got {cpu_backlog}")
        if disk_fetch_s < 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        loads = HybridScheduler._validated_loads(activated)
        inflight_eff = {
            e: max(0.0, ready)
            for e, ready in (inflight or {}).items()
            if e in loads and e in cached_experts
        }
        spilled_eff = frozenset(
            e for e in (spilled or ()) if e in loads and e not in cached_experts
        )
        return loads, inflight_eff, spilled_eff

    def _best_simulation(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        oracle: LayerCostOracle,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float] | None = None,
        force_quick: bool = False,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> SimulationResult:
        """The reference eq.-2 search: every candidate simulated in full."""
        loads, inflight_eff, spilled_eff = self._validated_inputs(
            activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
            spilled, disk_fetch_s,
        )
        uncached = [e for e, _ in activated if e not in cached_experts]
        best: SimulationResult | None = None
        for k in self._candidate_transfer_counts(len(uncached), force_quick):
            result = self._simulate(
                loads,
                cached_experts,
                oracle,
                k,
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog=cpu_backlog,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )
            better = best is None or result.makespan < best.makespan - _TIE_EPS
            tie_fewer_transfers = (
                best is not None
                and abs(result.makespan - best.makespan) <= _TIE_EPS
                and len(result.transfers) < len(best.transfers)
            )
            if better or tie_fewer_transfers:
                best = result
        assert best is not None  # at least k=0 is always simulated
        return best

    # ------------------------------------------------------------------
    # the incremental fast path
    # ------------------------------------------------------------------
    def _search_fast(
        self,
        loads: dict[int, int],
        cached_experts: set[int],
        oracle: LayerCostOracle,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float],
        cpu_backlog: float,
        force_quick: bool = False,
        spilled: frozenset[int] = frozenset(),
        disk_fetch_s: float = 0.0,
        record: bool = False,
    ) -> tuple[int, float, tuple | None]:
        """Find the optimal transfer count without building plans.

        Ranks the experts and hoists the priority orders — identical for
        every candidate ``k`` — into :meth:`_search_sorted`. With
        ``record``, also returns the winner's ``(transfers, gpu_order,
        cpu_order, stolen)`` in expert ids, for :meth:`_materialise`.
        """
        table = self._duration_table(oracle.n_tokens)
        order = sorted(loads, key=lambda e: (-loads[e], e))
        ranked = _Ranked(table, order, loads, spilled, disk_fetch_s)
        cached_r = [e in cached_experts for e in order]
        uncached = [r for r, cached in enumerate(cached_r) if not cached]
        best_k, best_mk, log = self._search_sorted(
            ranked,
            cached_r,
            uncached,
            [r for r, e in enumerate(order) if cached_r[r] and e not in inflight],
            [r for r in ranked.cpu_order if not cached_r[r]],
            table.shared_gpu if include_shared and table.shared_gpu > 0.0 else 0.0,
            self._candidate_transfer_counts(len(uncached), force_quick),
            pcie_backlog,
            cpu_backlog,
            [(ready, order.index(e)) for e, ready in inflight.items()],
            disk_fetch_s,
            record,
        )
        if log is not None:
            gpu_order, cpu_order, stolen = log
            log = (
                [order[r] for r in uncached[:best_k]],
                [SHARED_BLOCK if r == SHARED_BLOCK else order[r] for r in gpu_order],
                [order[r] for r in cpu_order],
                [order[r] for r in stolen],
            )
        return best_k, best_mk, log

    def _search_sorted(
        self,
        ranked: _Ranked,
        cached_r: list[bool],
        uncached: list[int],
        cached_desc: list[int],
        cpu_all: list[int],
        gpu_t0: float,
        counts: list[int],
        pcie_backlog: float = 0.0,
        cpu_backlog: float = 0.0,
        inflight_arrivals: list[tuple[float, int]] | None = None,
        disk_fetch_s: float = 0.0,
        record: bool = False,
    ) -> tuple[int, float, tuple | None]:
        """Search the transfer counts ``counts`` over presorted ranks.

        ``cached_r`` flags each rank GPU-resident; ``uncached`` and
        ``cached_desc`` list ranks ascending (GPU priority order;
        ``cached_desc`` without in-flight experts), ``cpu_all`` lists
        the uncached ranks in the CPU queue's ``(load, id)`` order.
        Returns ``(best_k, best_makespan, log)`` where
        ``best_makespan`` is bit-identical to what the reference loop
        would select: every candidate it does evaluate goes through a
        float-exact replica of the reference event loop, and every
        candidate it prunes is provably unable to beat the incumbent
        (lower bounds are built from the same duration floats the
        simulation would add). With ``record``, ``log`` is the winner's
        ``(gpu_order, cpu_order, stolen)`` in ranks; else None.
        """
        gpu = ranked.gpu
        spilled = ranked.spilled
        # Transfer-timeline prefix: moving k -> k+1 appends exactly one
        # arrival, so the whole family of PCIe timelines is one shared
        # accumulation (same `t_pcie += transfer` float sequence as the
        # reference). A spilled expert's chain grows by its disk hop.
        transfer = ranked.table.transfer
        arrivals: list[tuple[float, int]] = []
        t_pcie = pcie_backlog
        for rank in uncached:
            if spilled[rank]:
                t_pcie += disk_fetch_s
            t_pcie += transfer
            arrivals.append((t_pcie, rank))
        # The event loop takes arrivals sorted by (ready, rank). A
        # strictly increasing prefix is already in that order, so each
        # k can use its first k pairs as they stand.
        presorted = not inflight_arrivals and all(
            arrivals[i][0] < arrivals[i + 1][0] for i in range(len(arrivals) - 1)
        )
        n_uncached = len(uncached)
        best_k = -1
        best_mk = float("inf")
        best_log = log = None
        # Monotone transfer-chain lower bound, advanced incrementally:
        # the k-th chain is the (k-1)-th plus one max/add step, so it
        # only grows with k — once it crosses the incumbent, every
        # remaining (larger) candidate is provably worse and the whole
        # ascending search terminates.
        chain_t = gpu_t0
        chain_idx = 0
        for k in counts:
            while chain_idx < k:
                chain_t = max(chain_t, arrivals[chain_idx][0]) + gpu[uncached[chain_idx]]
                chain_idx += 1
            if best_k >= 0 and chain_t >= best_mk - _TIE_EPS:
                break
            # The first k uncached ranks transfer; filtering the
            # presorted CPU order keeps it sorted, so the queue equals a
            # fresh sort of the rest.
            if k == 0:
                cpu_jobs = cpu_all
            elif k == n_uncached:
                cpu_jobs = []
            else:
                first_kept = uncached[k]
                cpu_jobs = [r for r in cpu_all if r >= first_kept]
            if best_k >= 0 and cpu_jobs:
                # CPU-side lower bound: the CPU queue runs back to back
                # from the backlog with exactly these float durations
                # (disk-fetch surcharges included); steals only extend
                # it. Not monotone in k, so this one skips a single
                # candidate rather than terminating.
                t_cpu = cpu_backlog
                durations = ranked.cpu_first
                for rank in cpu_jobs:
                    t_cpu += durations[rank]
                    durations = ranked.cpu_rest
                if t_cpu >= best_mk - _TIE_EPS:
                    continue
            if presorted:
                events = arrivals
            else:
                events = (inflight_arrivals or []) + arrivals[:k]
                events.sort()
            if record:
                log = ([SHARED_BLOCK] if gpu_t0 > 0.0 else [], [], [])
            mk = self._fast_makespan(
                ranked,
                cached_r,
                cpu_jobs,
                events,
                len(events) if not presorted else k,
                cached_desc,
                gpu_t0,
                cpu_backlog,
                log,
            )
            # Ascending k: ties keep the earlier (fewer-transfer)
            # incumbent, exactly like the reference tie-break.
            if mk < best_mk - _TIE_EPS or best_k < 0:
                best_mk = mk
                best_k = k
                best_log = log
        assert best_k >= 0  # k=0 is never pruned (no incumbent yet)
        return best_k, best_mk, best_log

    def _fast_makespan(
        self,
        ranked: _Ranked,
        cached_r: list[bool],
        cpu_jobs: list[int],
        arrivals: list[tuple[float, int]],
        n_arrivals: int,
        cached_desc: list[int],
        gpu_t0: float,
        cpu_backlog: float,
        log: tuple[list[int], list[int], list[int]] | None = None,
    ) -> float:
        """Record-free replica of :meth:`_simulate`'s event loop, on ranks.

        Performs the same float operations in the same order as the
        reference simulation but builds no task objects, so the
        returned makespan is bit-identical at a fraction of the cost.
        ``arrivals[:n_arrivals]`` are the GPU arrivals in event order;
        CPU jobs take their :class:`_Ranked` time (disk fetch
        included). The bookkeeping differs only where no float is
        involved: the pool's stealable (cached) experts are counted,
        and listed only when a steal is attempted; arrivals are
        absorbed inline. ``log``, when given, receives the ranks of the
        GPU order, the CPU order and the steals as the reference would
        list them.
        """
        gpu = ranked.gpu
        cpu_first = ranked.cpu_first
        cpu_rest = ranked.cpu_rest
        t_gpu = gpu_t0
        gpu_pool: list[int] = list(cached_desc)  # ascending rank
        n_stealable = len(gpu_pool)  # cached_desc is cached throughout
        arrival_idx = 0
        t_cpu = cpu_backlog
        cpu_idx = 0
        cpu_any = False
        cpu_finished = False
        n_cpu_jobs = len(cpu_jobs)
        allow_steal = self.config.allow_cpu_steal
        steal_factor = 1.0 - self.config.steal_margin
        inf = float("inf")
        gpu_log, cpu_log, steal_log = log if log is not None else (None, None, None)

        while True:
            while arrival_idx < n_arrivals and arrivals[arrival_idx][0] <= t_gpu:
                rank = arrivals[arrival_idx][1]
                insort(gpu_pool, rank)
                if cached_r[rank]:
                    n_stealable += 1
                arrival_idx += 1
            if gpu_pool:
                gpu_start = t_gpu
            elif arrival_idx < n_arrivals:
                gpu_start = max(t_gpu, arrivals[arrival_idx][0])
            else:
                gpu_start = inf
            if cpu_idx < n_cpu_jobs or (
                allow_steal and not cpu_finished and n_stealable
            ):
                cpu_start = t_cpu
            else:
                cpu_start = inf

            if gpu_start == inf and cpu_start == inf:
                break

            cpu_wins_tie = gpu_start == cpu_start and cpu_idx >= n_cpu_jobs
            if gpu_start <= cpu_start and not cpu_wins_tie:
                # A non-empty pool starts at t_gpu, up to which arrivals
                # were just absorbed; an idle GPU waits for the next.
                while arrival_idx < n_arrivals and arrivals[arrival_idx][0] <= gpu_start:
                    rank = arrivals[arrival_idx][1]
                    insort(gpu_pool, rank)
                    if cached_r[rank]:
                        n_stealable += 1
                    arrival_idx += 1
                if not gpu_pool:
                    raise SchedulingError(
                        "simulation invariant: empty GPU pool at dispatch"
                    )
                rank = gpu_pool.pop(0)
                if cached_r[rank]:
                    n_stealable -= 1
                t_gpu = gpu_start + gpu[rank]
                if gpu_log is not None:
                    gpu_log.append(rank)
            else:
                if cpu_idx < n_cpu_jobs:
                    rank = cpu_jobs[cpu_idx]
                    cpu_idx += 1
                    duration = (cpu_rest if cpu_any else cpu_first)[rank]
                else:
                    # Steal the lowest-load (then lowest-id) cached
                    # expert. Cached, hence never spilled — no disk
                    # surcharge on this branch.
                    rank = min(
                        (r for r in gpu_pool if cached_r[r]),
                        key=ranked.steal_key.__getitem__,
                    )
                    duration = ranked.table.cpu(ranked.loads[rank], not cpu_any)
                    # Lower-bound finish time of all GPU-bound work.
                    gpu_finish = t_gpu
                    for pooled in gpu_pool:
                        gpu_finish += gpu[pooled]
                    for index in range(arrival_idx, n_arrivals):
                        ready, pending = arrivals[index]
                        gpu_finish = max(gpu_finish, ready) + gpu[pending]
                    if t_cpu + duration >= gpu_finish * steal_factor:
                        cpu_finished = True
                        continue
                    gpu_pool.remove(rank)
                    n_stealable -= 1
                    if steal_log is not None:
                        steal_log.append(rank)
                t_cpu += duration
                cpu_any = True
                if cpu_log is not None:
                    cpu_log.append(rank)

        cpu_end = t_cpu if cpu_any else 0.0
        return max(t_gpu, cpu_end)

    # ------------------------------------------------------------------
    # the event-driven schedule simulation (reference oracle)
    # ------------------------------------------------------------------
    def _simulate(
        self,
        loads: dict[int, int],
        cached_experts: set[int],
        oracle: LayerCostOracle,
        k_transfers: int,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] = frozenset(),
        disk_fetch_s: float = 0.0,
    ) -> SimulationResult:
        """Fill the three timelines for one transfer allocation.

        The simulation advances the resource whose next operation
        *starts* earliest, exactly reproducing the interleaving a real
        run with these priority queues would produce. This is the
        reference oracle the fast path is property-tested against.
        Spilled experts (tiered memory) pay ``disk_fetch_s`` before
        their PCIe transfer or CPU compute — the planner's serialised
        estimate of the disk -> CPU -> GPU chain.
        """
        inflight = inflight or {}
        by_load_desc = sorted(loads, key=lambda e: (-loads[e], e))
        uncached_desc = [e for e in by_load_desc if e not in cached_experts]
        cached_desc = [
            e for e in by_load_desc if e in cached_experts and e not in inflight
        ]

        transfer_list = uncached_desc[:k_transfers]
        cpu_jobs = sorted(
            (e for e in uncached_desc[k_transfers:]), key=lambda e: (loads[e], e)
        )

        # PCIe: sequential transfers, high-load first, behind the backlog.
        # In-flight prefetches arrive at their own ready offsets without
        # consuming new PCIe time (their transfers are already queued).
        arrivals: list[tuple[float, int]] = [
            (ready, e) for e, ready in inflight.items()
        ]
        t_pcie = pcie_backlog
        for expert in transfer_list:
            if expert in spilled:
                t_pcie += disk_fetch_s
            t_pcie += oracle.transfer()
            arrivals.append((t_pcie, expert))
        arrivals.sort(key=lambda pair: (pair[0], -loads[pair[1]], pair[1]))

        gpu_order: list[SimulatedTask] = []
        cpu_order: list[SimulatedTask] = []
        stolen: list[int] = []

        t_gpu = 0.0
        if include_shared:
            shared_dur = oracle.shared_compute(Device.GPU)
            if shared_dur > 0.0:
                gpu_order.append(SimulatedTask(SHARED_BLOCK, 0.0, shared_dur, "gpu"))
                t_gpu = shared_dur

        gpu_pool: list[int] = list(cached_desc)  # descending load
        arrival_idx = 0
        t_cpu = cpu_backlog  # shared-CPU work of earlier devices queues ahead
        cpu_idx = 0
        cpu_finished = False

        def absorb_arrivals(up_to: float) -> None:
            nonlocal arrival_idx
            while arrival_idx < len(arrivals) and arrivals[arrival_idx][0] <= up_to:
                expert = arrivals[arrival_idx][1]
                # Insert preserving descending-load order (paper: a
                # transferred expert joins the GPU queue by load).
                position = 0
                while position < len(gpu_pool) and (
                    loads[gpu_pool[position]] > loads[expert]
                    or (
                        loads[gpu_pool[position]] == loads[expert]
                        and gpu_pool[position] < expert
                    )
                ):
                    position += 1
                gpu_pool.insert(position, expert)
                arrival_idx += 1

        def gpu_finish_estimate() -> float:
            """Lower-bound finish time of all GPU-bound work (no steal)."""
            t = t_gpu
            for expert in gpu_pool:
                t += oracle.gpu_compute(loads[expert])
            for ready, expert in arrivals[arrival_idx:]:
                t = max(t, ready) + oracle.gpu_compute(loads[expert])
            return t

        while True:
            absorb_arrivals(t_gpu)
            # --- candidate GPU action -------------------------------------
            if gpu_pool:
                gpu_start = t_gpu
            elif arrival_idx < len(arrivals):
                gpu_start = max(t_gpu, arrivals[arrival_idx][0])
            else:
                gpu_start = float("inf")
            # --- candidate CPU action -------------------------------------
            steal_candidates = [e for e in gpu_pool if e in cached_experts]
            cpu_can_steal = (
                self.config.allow_cpu_steal
                and not cpu_finished
                and cpu_idx >= len(cpu_jobs)
                and bool(steal_candidates)
            )
            if cpu_idx < len(cpu_jobs):
                cpu_start = t_cpu
            elif cpu_can_steal:
                cpu_start = t_cpu
            else:
                cpu_start = float("inf")

            if gpu_start == float("inf") and cpu_start == float("inf"):
                break

            # Tie-break: a beneficial CPU steal commits before the GPU's
            # pop of the same instant — when the CPU can finish a cached
            # expert sooner than the GPU would clear its queue, holding
            # the expert hostage on the GPU only inflates the makespan.
            cpu_wins_tie = gpu_start == cpu_start and cpu_idx >= len(cpu_jobs)
            if gpu_start <= cpu_start and not cpu_wins_tie:
                absorb_arrivals(gpu_start)
                if not gpu_pool:
                    raise SchedulingError("simulation invariant: empty GPU pool at dispatch")
                expert = gpu_pool.pop(0)
                duration = oracle.gpu_compute(loads[expert])
                gpu_order.append(
                    SimulatedTask(expert, gpu_start, gpu_start + duration, "gpu")
                )
                t_gpu = gpu_start + duration
            else:
                if cpu_idx < len(cpu_jobs):
                    expert = cpu_jobs[cpu_idx]
                    cpu_idx += 1
                else:
                    # Steal the lowest-load cached expert if the CPU can
                    # finish it before the GPU would get everything done.
                    # (Cached, hence never spilled — no disk surcharge.)
                    candidate = min(steal_candidates, key=lambda e: (loads[e], e))
                    duration = oracle.cpu_compute(
                        loads[candidate], first_task=not cpu_order
                    )
                    threshold = gpu_finish_estimate() * (1.0 - self.config.steal_margin)
                    if t_cpu + duration >= threshold:
                        cpu_finished = True
                        continue
                    gpu_pool.remove(candidate)
                    stolen.append(candidate)
                    expert = candidate
                duration = oracle.cpu_compute(loads[expert], first_task=not cpu_order)
                if expert in spilled:
                    duration += disk_fetch_s
                cpu_order.append(
                    SimulatedTask(expert, t_cpu, t_cpu + duration, "cpu")
                )
                t_cpu += duration

        # The CPU contributes to the makespan only through tasks of this
        # layer — a pre-existing backlog with no CPU work here is other
        # devices' problem, not this plan's.
        cpu_end = cpu_order[-1].finish if cpu_order else 0.0
        makespan = max(t_gpu, cpu_end)
        return SimulationResult(
            makespan=makespan,
            transfers=list(transfer_list),
            gpu_order=gpu_order,
            cpu_order=cpu_order,
            stolen=stolen,
            loads=dict(loads),
        )

    # ------------------------------------------------------------------
    # plan assembly
    # ------------------------------------------------------------------
    def _materialise(
        self,
        layer: int,
        n_tokens: int,
        loads: dict[int, int],
        transfers: list[int],
        gpu_order: list[int],
        cpu_order: list[int],
        stolen: list[int],
        makespan: float,
        include_shared: bool,
    ) -> ExecutionPlan:
        transferred = set(transfers)
        gpu_tasks = [
            ComputeTask(layer, SHARED_BLOCK, n_tokens, Device.GPU)
            if expert == SHARED_BLOCK
            else ComputeTask(
                layer,
                expert,
                loads[expert],
                Device.GPU,
                after_transfer=expert in transferred,
            )
            for expert in gpu_order
        ]
        cpu_tasks = [
            ComputeTask(layer, expert, loads[expert], Device.CPU)
            for expert in cpu_order
        ]
        return ExecutionPlan(
            layer=layer,
            n_tokens=n_tokens,
            gpu_tasks=gpu_tasks,
            cpu_tasks=cpu_tasks,
            transfers=[TransferTask(layer, expert, loads[expert]) for expert in transfers],
            estimated_makespan=makespan,
            metadata={
                "scheduler": "hybrid",
                "transfer_count": len(transfers),
                "stolen": list(stolen),
                "include_shared": include_shared,
            },
        )
