"""Hybrid scheduler unit tests, including the paper's Fig. 5 example."""

import pytest
from reference_planner import ReferenceScheduler

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.tasks import SHARED_BLOCK, LayerCostOracle
from repro.errors import SchedulingError

# The Fig. 5 scenario: A=0:1, B=1:1, C=2:3 uncached; D=3:4, E=4:1 cached.
FIG5_ACTIVATED = [(0, 1), (1, 1), (2, 3), (3, 4), (4, 1)]
FIG5_CACHED = {3, 4}


@pytest.fixture
def scheduler(toy_oracle_factory) -> HybridScheduler:
    return HybridScheduler(toy_oracle_factory)


class TestFig5Example:
    """The worked example of paper §IV-B / Fig. 5."""

    def test_transfers_high_load_uncached(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert plan.transferred_experts() == [2]

    def test_cpu_computes_low_load_then_steals_cached(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert [t.expert for t in plan.cpu_tasks] == [0, 1, 4]
        assert plan.metadata["stolen"] == [4]

    def test_gpu_runs_shared_then_high_load(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        experts = [t.expert for t in plan.gpu_tasks]
        assert experts[0] == SHARED_BLOCK
        assert experts[1] == 3  # D, the high-load cached expert
        assert experts[2] == 2  # C, after its transfer lands

    def test_plan_validates(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        plan.validate(dict(FIG5_ACTIVATED), FIG5_CACHED)

    def test_makespan_beats_no_transfer(self, scheduler, toy_oracle_factory):
        chosen = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1).estimated_makespan
        no_transfer = ReferenceScheduler(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=True)
        )._simulate(
            dict(FIG5_ACTIVATED), FIG5_CACHED, toy_oracle_factory(1), 0, 0.0, True
        )
        assert chosen < no_transfer.makespan


class TestDegenerateInputs:
    def test_all_cached(self, scheduler):
        plan = scheduler.plan(0, [(0, 2), (1, 1)], {0, 1}, n_tokens=1)
        assert plan.transfers == []
        plan.validate({0: 2, 1: 1}, {0, 1})

    def test_none_cached(self, scheduler):
        plan = scheduler.plan(0, [(0, 2), (1, 1)], set(), n_tokens=1)
        plan.validate({0: 2, 1: 1}, set())

    def test_single_expert(self, scheduler):
        plan = scheduler.plan(0, [(5, 4)], set(), n_tokens=1)
        assert plan.computed_experts() == [5]

    def test_duplicate_activation_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1), (0, 2)], set(), n_tokens=1)

    def test_zero_load_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 0)], set(), n_tokens=1)

    def test_negative_backlog_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1)], set(), n_tokens=1, pcie_backlog=-1.0)


class TestPriorityRules:
    def test_gpu_descending_load_order(self, scheduler):
        plan = scheduler.plan(
            0, [(0, 1), (1, 5), (2, 3)], {0, 1, 2}, n_tokens=1
        )
        routed = [t for t in plan.gpu_tasks if not t.is_shared]
        loads = [t.load for t in routed]
        # CPU stealing may take low-load tasks, but GPU order must stay desc.
        assert loads == sorted(loads, reverse=True)

    def test_cpu_ascending_load_order(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=False)
        )
        plan = scheduler.plan(0, [(0, 3), (1, 1), (2, 2)], set(), n_tokens=1)
        cpu_loads = [t.load for t in plan.cpu_tasks]
        assert cpu_loads == sorted(cpu_loads)

    def test_transfer_descending_load(self, scheduler):
        plan = scheduler.plan(
            0, [(0, 1), (1, 8), (2, 4), (3, 9)], set(), n_tokens=1
        )
        loads = [t.load for t in plan.transfers]
        assert loads == sorted(loads, reverse=True)

    def test_steal_disabled_respected(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=False)
        )
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert plan.metadata["stolen"] == []

    def test_cpu_wins_tie_when_only_steals_remain(self, tiny_config):
        # Hand-made tie, no shared block. The GPU runs H=(0, load 4)
        # over [0, 2]; the CPU runs the uncached U=(1, load 1) over
        # [0, 2] (1.5 + 0.5 warm-up). At t=2 both are free, the CPU has
        # no jobs left and the cached L=(2, load 1) waits in the GPU
        # queue. The CPU must take the tie and steal L (2 + 1.5 beats
        # the GPU finish of 4): makespan 3.5. Had the GPU popped L
        # first the layer would end at 4; transferring U ends at 5.
        from tests.conftest import ToyCostModel

        cost = ToyCostModel(cpu_warmup=0.5)

        def factory(n_tokens):
            return LayerCostOracle.for_model(cost, tiny_config, n_tokens)

        args = (0, [(0, 4), (1, 1), (2, 1)], {0, 2}, 1)
        plan = HybridScheduler(factory).plan(*args, include_shared=False)
        assert plan == ReferenceScheduler(factory).plan(*args, include_shared=False)
        assert plan.estimated_makespan == 3.5
        assert plan.transfers == []
        assert plan.metadata["stolen"] == [2]
        assert [t.expert for t in plan.cpu_tasks] == [1, 2]
        assert [t.expert for t in plan.gpu_tasks] == [0]

    def test_pcie_backlog_delays_arrivals(self, scheduler):
        fast = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1, pcie_backlog=0.0)
        slow = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1, pcie_backlog=10.0)
        assert slow.estimated_makespan >= fast.estimated_makespan

    def test_inflight_expert_delays_gpu(self, scheduler):
        base = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1)
        delayed = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1, inflight={0: 5.0})
        assert delayed.estimated_makespan > base.estimated_makespan

    def test_inflight_of_unactivated_ignored(self, scheduler):
        base = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1)
        same = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1, inflight={7: 99.0})
        assert same.estimated_makespan == base.estimated_makespan


class TestSearch:
    def test_quick_mode_subset_of_full(self, toy_oracle_factory):
        full = HybridScheduler(toy_oracle_factory)
        activated = [(e, e + 1) for e in range(6)]
        best_full = full.simulate_makespan(activated, {0, 1}, 1)
        best_quick = full.simulate_makespan(activated, {0, 1}, 1, quick=True)
        assert best_full <= best_quick + 1e-12

    def test_max_search_width_keeps_extremes(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(max_search_width=3)
        )
        counts = scheduler._candidate_transfer_counts(10, force_quick=False)
        assert 0 in counts and 10 in counts and len(counts) <= 4

    def test_invalid_config(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(max_search_width=1)

    def test_search_beats_or_matches_extremes(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(e, (e * 7) % 5 + 1) for e in range(8)]
        cached = {1, 4}
        full = scheduler.simulate_makespan(activated, cached, 1)
        quick = scheduler.simulate_makespan(activated, cached, 1, quick=True)
        assert full <= quick + 1e-12


class TestSearchWidthSubsampling:
    """`max_search_width` candidate subsampling (nested dyadic family)."""

    def _counts(self, toy_oracle_factory, width, n_uncached):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(max_search_width=width)
        )
        return scheduler._candidate_transfer_counts(n_uncached, force_quick=False)

    def test_extremes_always_included(self, toy_oracle_factory):
        for n_uncached in (1, 2, 5, 10, 33):
            for width in (2, 3, 4, 7, None):
                counts = self._counts(toy_oracle_factory, width, n_uncached)
                assert counts[0] == 0 and counts[-1] == n_uncached
                assert counts == sorted(set(counts))
                if width is not None:
                    assert len(counts) <= max(width, 2)

    def test_width_two_equals_quick_mode(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(max_search_width=2)
        )
        for n_uncached in (1, 3, 10):
            assert scheduler._candidate_transfer_counts(
                n_uncached, force_quick=False
            ) == scheduler._candidate_transfer_counts(n_uncached, force_quick=True)
        activated = [(e, (e * 5) % 7 + 1) for e in range(9)]
        cached = {0, 2}
        width2 = scheduler.simulate_makespan(activated, cached, 1)
        quick = HybridScheduler(toy_oracle_factory).simulate_makespan(
            activated, cached, 1, quick=True
        )
        assert width2 == quick

    def test_widening_is_nested(self, toy_oracle_factory):
        """The width-w candidate set is a subset of every wider set —
        the structural property behind makespan monotonicity."""
        for n_uncached in (4, 9, 17, 30):
            previous: set[int] = set()
            for width in range(2, n_uncached + 2):
                counts = set(self._counts(toy_oracle_factory, width, n_uncached))
                assert previous <= counts
                previous = counts
            assert previous == set(range(n_uncached + 1))

    def test_monotone_widening_never_worsens_makespan(self, toy_oracle_factory):
        """Because widening only adds candidates, the chosen makespan is
        non-increasing in the search width, down to the exhaustive
        optimum."""
        from repro.rng import derive_rng

        rng = derive_rng(0, "width-monotone")
        for trial in range(15):
            n = int(rng.integers(5, 14))
            experts = [int(e) for e in rng.choice(32, size=n, replace=False)]
            activated = [(e, int(rng.integers(1, 12))) for e in experts]
            cached = {e for e in experts if rng.random() < 0.3}
            best_so_far = float("inf")
            for width in (2, 3, 4, 6, 9, None):
                scheduler = HybridScheduler(
                    toy_oracle_factory, SchedulerConfig(max_search_width=width)
                )
                makespan = scheduler.simulate_makespan(activated, cached, 1)
                assert makespan <= best_so_far + 1e-12
                best_so_far = min(best_so_far, makespan)
            exhaustive = HybridScheduler(toy_oracle_factory).simulate_makespan(
                activated, cached, 1
            )
            assert abs(best_so_far - exhaustive) <= 1e-12
