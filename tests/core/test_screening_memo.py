"""Exactness of the planner memos, relabel-invariant screening keys included.

The screening LRU keys the prefetcher's quick simulations on the
*ranked* ``(load, cached?, spilled?)`` sequence of the activated
experts, so two layers that differ only in expert ids share an entry.
These tests pin down that a memoized scheduler returns bit-equal
results to a memo-free one over call sequences built to collide in
that key space — relabelled repeats, equal-load ties, spilled sets,
queried experts outside the activated set — and that a relabelled hit
answers in the caller's own ids.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_planner import ReferenceScheduler

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.tasks import LayerCostOracle
from repro.models.config import ExpertShape, MoEModelConfig

_MODEL = MoEModelConfig(
    name="memo-prop",
    num_layers=1,
    num_shared_experts=1,
    num_routed_experts=32,
    num_activated_experts=4,
    routed_expert_shape=ExpertShape(8, 8),
    shared_expert_shape=ExpertShape(8, 8),
)

DISK_FETCH = 2.5


class _Cost:
    """Load-dependent GPU and CPU costs, so loads and ties both matter."""

    def __init__(self, gpu, gpu_per_token, cpu_per_token, transfer, warmup):
        self.gpu = gpu
        self.gpu_per_token = gpu_per_token
        self.cpu_per_token = cpu_per_token
        self.transfer = transfer
        self.warmup = warmup

    def expert_bytes(self, shape):
        return 1.0

    def gpu_expert_time(self, shape, tokens):
        return self.gpu + self.gpu_per_token * tokens if tokens else 0.0

    def cpu_expert_time(self, shape, tokens, first_task=False):
        if not tokens:
            return 0.0
        return self.cpu_per_token * tokens + (self.warmup if first_task else 0.0)

    def transfer_time(self, shape):
        return self.transfer

    def attention_time(self, d_model, tokens, device="gpu"):
        return 0.1


def _scheduler(cost, size, steal=True):
    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    return HybridScheduler(
        factory, SchedulerConfig(plan_cache_size=size, allow_cpu_steal=steal)
    )


def _bits(value):
    """Exact bit pattern of a result, dict key order included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


#: One layer *shape*: per activated expert (by rank) its load and its
#: cached / spilled / queried flags. Small loads make equal-load ties
#: the common case.
_SHAPE = st.lists(
    st.tuples(
        st.integers(1, 4), st.booleans(), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=7,
)


def _with_siblings(data, shapes):
    """Each shape plus a sibling differing in one load or one flag, so
    near-collisions in the key space are common."""
    out = list(shapes)
    for shape in shapes:
        rank = data.draw(st.integers(0, len(shape) - 1))
        field = data.draw(st.integers(0, 3))
        entry = list(shape[rank])
        entry[field] = entry[field] % 4 + 1 if field == 0 else not entry[field]
        out.append(shape[:rank] + [tuple(entry)] + shape[rank + 1:])
    return out


def _draw_call(data, shapes):
    """One concrete call: a shape relabelled onto fresh random ids."""
    shape = data.draw(st.sampled_from(shapes))
    ids = data.draw(
        st.lists(
            st.integers(0, 31), min_size=len(shape) + 2, max_size=len(shape) + 2,
            unique=True,
        )
    )
    active_ids, outside = ids[: len(shape)], ids[len(shape):]
    activated = [(e, load) for e, (load, _, _, _) in zip(active_ids, shape)]
    activated = data.draw(st.permutations(activated))
    cached = {e for e, (_, c, _, _) in zip(active_ids, shape) if c}
    spilled = {e for e, (_, _, s, _) in zip(active_ids, shape) if s}
    queried = [e for e, (_, _, _, q) in zip(active_ids, shape) if q]
    # Non-activated ids in the cached / spilled sets must not matter.
    if data.draw(st.booleans()):
        cached.add(outside[0])
        spilled.add(outside[1])
    # Queried experts outside the activated set share one value.
    queried += outside[: data.draw(st.integers(0, 2))]
    queried = data.draw(st.permutations(queried))
    return activated, cached, frozenset(spilled), queried


class TestMemoExactness:
    @given(
        data=st.data(),
        shapes=st.lists(_SHAPE, min_size=1, max_size=3),
        gpu=st.floats(0.1, 4.0),
        gpu_per_token=st.sampled_from([0.0, 0.05, 0.5]),
        cpu=st.floats(0.1, 4.0),
        transfer=st.floats(0.1, 8.0),
        warmup=st.sampled_from([0.0, 1.0]),
        steal=st.booleans(),
        n_calls=st.integers(4, 14),
    )
    @settings(max_examples=120, deadline=None)
    def test_memo_is_bit_equal_to_no_memo(
        self, data, shapes, gpu, gpu_per_token, cpu, transfer, warmup, steal, n_calls
    ):
        cost = _Cost(gpu, gpu_per_token, cpu, transfer, warmup)
        memo = _scheduler(cost, 1024, steal)
        plain = _scheduler(cost, 0, steal)
        shapes = _with_siblings(data, shapes)
        for _ in range(n_calls):
            activated, cached, spilled, queried = _draw_call(data, shapes)
            n_tokens = data.draw(st.sampled_from([1, 4]))
            disk = data.draw(st.sampled_from([DISK_FETCH, DISK_FETCH, 0.0]))
            kind = data.draw(
                st.sampled_from(["screen", "with", "bounds", "makespan", "plan"])
            )
            layer_args = (activated, cached, n_tokens, spilled, disk)
            if kind == "screen":
                def call(scheduler):
                    return scheduler.quick_layer(*layer_args).screen(queried)
            elif kind == "with":
                def call(scheduler):
                    return scheduler.quick_layer(*layer_args).makespans_with(queried)
            elif kind == "bounds":
                def call(scheduler):
                    return scheduler.quick_layer(*layer_args).lower_bounds(queried)
            elif kind == "makespan":
                inflight = {e: 1.0 + 0.5 * i for i, e in enumerate(sorted(cached))}
                kwargs = dict(
                    quick=data.draw(st.booleans()),
                    spilled=spilled,
                    disk_fetch_s=disk,
                    inflight=inflight if data.draw(st.booleans()) else None,
                    pcie_backlog=data.draw(st.sampled_from([0.0, 1.5])),
                )

                def call(scheduler):
                    return scheduler.simulate_makespan(
                        activated, cached, n_tokens, **kwargs
                    )
            else:
                layer = data.draw(st.integers(0, 1))

                def call(scheduler):
                    return scheduler.plan(
                        layer, activated, cached, n_tokens,
                        spilled=spilled, disk_fetch_s=disk,
                    )
            got = call(memo)
            want = call(plain)
            if kind == "plan":
                assert got == want
                assert _bits(got.estimated_makespan) == _bits(want.estimated_makespan)
            else:
                assert _bits(got) == _bits(want), (kind, layer_args, queried)
        assert memo.cache_info()["hits"] + memo.cache_info()["misses"] == n_calls
        assert plain.cache_info()["hits"] == plain.cache_info()["misses"] == 0


class TestRelabelledHits:
    def _pair(self):
        cost = _Cost(2.0, 0.0, 1.5, 3.0, 0.0)
        return _scheduler(cost, 64), _scheduler(cost, 0)

    def test_relabelled_screen_hits_and_answers_in_caller_ids(self):
        scheduler, plain = self._pair()
        first = scheduler.quick_layer([(0, 3), (1, 1), (2, 1)], {0}, 1).screen([1, 2])
        assert scheduler.cache_info()["hits"] == 0
        activated = [(12, 1), (30, 3), (11, 1)]  # same ranked shape
        second = scheduler.quick_layer(activated, {30}, 1).screen([12, 11])
        assert scheduler.cache_info()["hits"] == 1
        base, bounds = second
        assert list(bounds) == [12, 11]  # the caller's ids, in its order
        assert second == plain.quick_layer(activated, {30}, 1).screen([12, 11])
        # Rank 1 is (load 1, id 11), rank 2 is (load 1, id 12).
        assert bounds == {11: first[1][1], 12: first[1][2]}
        assert base == first[0]

    def test_relabelled_makespans_with_hit(self):
        scheduler, plain = self._pair()
        scheduler.quick_layer([(0, 2), (1, 1)], set(), 4).makespans_with([0, 1, 7])
        activated = [(5, 1), (9, 2)]
        got = scheduler.quick_layer(activated, set(), 4).makespans_with([9, 5, 3])
        assert scheduler.cache_info()["hits"] == 1
        assert list(got) == [9, 5, 3]
        assert got == plain.quick_layer(activated, set(), 4).makespans_with([9, 5, 3])

    def test_flags_and_outside_candidates_are_part_of_the_key(self):
        scheduler, _ = self._pair()
        activated = [(0, 2), (1, 1)]
        scheduler.quick_layer(activated, set(), 1).screen([0, 1])
        variants = [
            ([(4, 2), (5, 1)], {5}, [4, 5], None),  # cached flag differs
            ([(4, 2), (5, 1)], set(), [4, 5], frozenset({4})),  # spilled
            ([(4, 2), (5, 1)], set(), [5], None),  # queried ranks differ
            ([(4, 2), (5, 1)], set(), [4, 5, 9], None),  # outside candidate
        ]
        for activated_v, cached_v, candidates_v, spilled_v in variants:
            scheduler.quick_layer(
                activated_v, cached_v, 1, spilled=spilled_v,
                disk_fetch_s=1.0 if spilled_v else 0.0,
            ).screen(candidates_v)
        assert scheduler.cache_info()["hits"] == 0
        # Which outside id is queried, and how many, does not matter.
        scheduler.quick_layer([(4, 2), (5, 1)], set(), 1).screen([4, 8, 5, 2])
        assert scheduler.cache_info()["hits"] == 1

    def test_spilled_flag_is_part_of_the_key(self):
        scheduler, plain = self._pair()
        activated = [(0, 2), (1, 1), (2, 1)]
        scheduler.quick_layer(activated, set(), 4, disk_fetch_s=DISK_FETCH).screen([0])
        relabelled = [(5, 2), (6, 1), (7, 1)]
        got = scheduler.quick_layer(
            relabelled, set(), 4, spilled={7}, disk_fetch_s=DISK_FETCH
        ).screen([5])
        assert scheduler.cache_info()["hits"] == 0
        assert got == plain.quick_layer(
            relabelled, set(), 4, spilled={7}, disk_fetch_s=DISK_FETCH
        ).screen([5])
        # A spilled expert that is cached is not spilled in effect.
        scheduler.quick_layer(
            relabelled, {7}, 4, spilled={7}, disk_fetch_s=DISK_FETCH
        ).screen([5])
        scheduler.quick_layer(
            [(0, 2), (1, 1), (2, 1)], {2}, 4, disk_fetch_s=DISK_FETCH
        ).screen([0])
        assert scheduler.cache_info()["hits"] == 1

    def test_makespan_key_covers_inflight_and_backlogs(self):
        scheduler, plain = self._pair()
        activated = [(0, 2), (1, 1), (2, 1)]
        scheduler.simulate_makespan(activated, {0, 1}, 4, quick=True)
        relabelled = [(9, 2), (4, 1), (6, 1)]
        calls = [
            dict(quick=True, inflight={9: 4.0}),
            dict(quick=True, inflight={4: 4.0}),
            dict(quick=True, pcie_backlog=1.0),
            dict(quick=True, cpu_backlog=1.0),
            dict(quick=False),
            dict(quick=True, include_shared=False),
        ]
        for kwargs in calls:
            got = scheduler.simulate_makespan(relabelled, {9, 4}, 4, **kwargs)
            assert got == plain.simulate_makespan(relabelled, {9, 4}, 4, **kwargs)
        assert scheduler.cache_info()["hits"] == 0
        # In-flight offsets of uncached or inactive experts are ignored.
        scheduler.simulate_makespan(relabelled, {9, 4}, 4, quick=True, inflight={6: 3.0, 30: 1.0})
        scheduler.simulate_makespan(relabelled, {9, 4}, 4, quick=True, inflight={4: 4.0})
        assert scheduler.cache_info()["hits"] == 2

    def test_plan_and_screening_lrus_are_separate(self):
        cost = _Cost(2.0, 0.0, 1.5, 3.0, 0.0)
        scheduler = _scheduler(cost, 2)
        scheduler.quick_layer([(0, 1)], set(), 1).screen([0])
        for expert in range(5):
            scheduler.plan(0, [(expert, 1)], set(), n_tokens=1)
        # Plans filled their own LRU; the screening entry survived.
        assert scheduler.cache_info()["size"] == 3
        scheduler.quick_layer([(7, 1)], set(), 1).screen([7])
        assert scheduler.cache_info()["hits"] == 1

    def test_quick_layer_answers_match_the_reference(self):
        """Batched, rank-filtered answers equal the reference planner's
        per-candidate ones: from-scratch makespans with each expert
        cached, and the whole-layer bound of each with-expert layer."""
        scheduler, _ = self._pair()
        reference = ReferenceScheduler(scheduler._oracle_factory)
        activated = [(3, 2), (1, 2), (6, 1), (2, 1)]
        cached = {1}
        layer = scheduler.quick_layer(activated, cached, 4, frozenset({6}), 2.0)
        ref_layer = reference.quick_layer(activated, cached, 4, frozenset({6}), 2.0)
        assert _bits(layer.screen([3, 6, 2])) == _bits(ref_layer.screen([3, 6, 2]))
        assert _bits(layer.makespans_with([6, 2])) == _bits(ref_layer.makespans_with([6, 2]))
        assert _bits(layer.lower_bounds([3, 6, 2])) == _bits(
            ref_layer.lower_bounds([3, 6, 2])
        )
