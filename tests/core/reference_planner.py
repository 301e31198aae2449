"""The from-scratch reference planner: the test oracle of the search.

:class:`ReferenceScheduler` is :class:`HybridScheduler` with its search
replaced by the paper's description taken literally: for every
candidate transfer count, :meth:`ReferenceScheduler._simulate` fills the
three timelines from scratch with the priority rules of §IV-B, and the
allocation with the smallest simulated makespan wins (eq. 2). It keeps
no memo, and it answers the prefetcher's quick queries one candidate at
a time (:class:`ReferenceQuickLayer`). The incremental search in
:mod:`repro.core.hybrid_scheduler` must produce bit-identical plans,
makespans and prefetch decisions; the property tests in this directory
compare the two. ``benchmarks/bench_planner_speed.py`` times it as the
planner's ``reference`` column, and :func:`use_reference_planner` puts
it into a built engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.hybrid_scheduler import (
    _TIE_EPS,
    HybridScheduler,
    QuickLayer,
    SchedulerConfig,
)
from repro.core.tasks import SHARED_BLOCK, Device, ExecutionPlan, LayerCostOracle
from repro.errors import SchedulingError

__all__ = [
    "ReferenceQuickLayer",
    "ReferenceScheduler",
    "SimulatedTask",
    "SimulationResult",
    "use_reference_planner",
]


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


class ReferenceScheduler(HybridScheduler):
    """From-scratch eq.-2 search with the memo off.

    Accepts the same arguments as :class:`HybridScheduler`;
    ``plan_cache_size`` is forced to 0 so every call runs the full
    search.
    """

    def __init__(self, oracle_factory, config: SchedulerConfig | None = None) -> None:
        config = replace(config or SchedulerConfig(), plan_cache_size=0)
        super().__init__(oracle_factory, config)

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
        best = self._best_simulation(
            activated,
            cached_experts,
            self._oracle_factory(n_tokens),
            pcie_backlog,
            include_shared,
            inflight,
            cpu_backlog=cpu_backlog,
            spilled=spilled,
            disk_fetch_s=disk_fetch_s,
        )
        return self._materialise(
            layer,
            n_tokens,
            best.loads,
            best.transfers,
            [task.expert for task in best.gpu_order],
            [task.expert for task in best.cpu_order],
            best.stolen,
            best.makespan,
            include_shared,
        )

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
        return self._best_simulation(
            activated,
            cached_experts,
            self._oracle_factory(n_tokens),
            pcie_backlog,
            include_shared,
            inflight,
            force_quick=quick,
            cpu_backlog=cpu_backlog,
            spilled=spilled,
            disk_fetch_s=disk_fetch_s,
        ).makespan

    def quick_layer(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> ReferenceQuickLayer:
        return ReferenceQuickLayer(
            self, activated, cached_experts, n_tokens, spilled, disk_fetch_s
        )

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
                    if t_cpu + duration >= gpu_finish_estimate():
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


class ReferenceQuickLayer:
    """Per-candidate answers to the :class:`QuickLayer` queries.

    Each makespan is its own from-scratch two-extremes search
    (:meth:`ReferenceScheduler.simulate_makespan` with ``quick=True``),
    and each screening bound is the whole-layer bound of the layer with
    that one candidate cached. No query is memoized.
    """

    def __init__(
        self,
        scheduler: ReferenceScheduler,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None,
        disk_fetch_s: float,
    ) -> None:
        self._scheduler = scheduler
        self._activated = activated
        self._cached = set(cached_experts)
        self._n_tokens = n_tokens
        self._spilled = spilled
        self._disk_fetch_s = disk_fetch_s

    def _makespan(self, cached: set[int]) -> float:
        return self._scheduler.simulate_makespan(
            self._activated, cached, self._n_tokens, quick=True,
            spilled=self._spilled, disk_fetch_s=self._disk_fetch_s,
        )

    def screen(self, candidates: list[int]) -> tuple[float, dict[int, float]]:
        return self._makespan(self._cached), self.lower_bounds(candidates)

    def lower_bounds(self, candidates: list[int]) -> dict[int, float]:
        return {
            expert: QuickLayer(
                self._scheduler, self._activated, self._cached | {expert},
                self._n_tokens, self._spilled, self._disk_fetch_s,
            )._bound(None)
            for expert in candidates
        }

    def makespans_with(self, experts: list[int]) -> dict[int, float]:
        return {expert: self._makespan(self._cached | {expert}) for expert in experts}


def use_reference_planner(engine):
    """Swap a built engine's planner for a :class:`ReferenceScheduler`.

    The strategy is re-bound so that everything it built around the
    planner at setup (the impact-driven prefetcher) uses the reference
    too. Returns the engine.
    """
    runtime = engine.runtime
    runtime.scheduler = ReferenceScheduler(
        runtime.estimated_oracle, runtime.config.scheduler
    )
    engine.strategy.bind(runtime)
    return engine
