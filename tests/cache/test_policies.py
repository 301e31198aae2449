"""Eviction-policy semantics: LRU, LFU and MRS."""

import numpy as np
import pytest

from repro.cache.base import make_policy
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.mrs import MRSPolicy
from repro.errors import CacheError


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_insert((0, 1), 2)
        policy.on_access((0, 0), 3)
        assert policy.victim([(0, 0), (0, 1)]) == (0, 1)

    def test_access_unknown_key_raises(self):
        with pytest.raises(CacheError):
            LRUPolicy().on_access((0, 0), 1)

    def test_empty_candidates_raise(self):
        with pytest.raises(CacheError):
            LRUPolicy().victim([])

    def test_forget_then_reinsert(self):
        policy = LRUPolicy()
        policy.on_insert((0, 0), 1)
        policy.forget((0, 0))
        policy.on_insert((0, 0), 5)
        assert policy.priority((0, 0)) == 5.0

    def test_deterministic_tie_break(self):
        policy = LRUPolicy()
        policy.on_insert((0, 1), 1)
        policy.on_insert((0, 0), 1)
        assert policy.victim([(0, 1), (0, 0)]) == (0, 0)


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        for key in [(0, 0), (0, 1)]:
            policy.on_insert(key, 1)
        policy.on_access((0, 0), 2)
        policy.on_access((0, 0), 3)
        policy.on_access((0, 1), 4)
        assert policy.victim([(0, 0), (0, 1)]) == (0, 1)

    def test_counts_survive_eviction(self):
        policy = LFUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_access((0, 0), 2)
        policy.forget((0, 0))
        assert policy.priority((0, 0)) == 1.0

    def test_recency_breaks_count_ties(self):
        policy = LFUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_insert((0, 1), 2)
        assert policy.victim([(0, 0), (0, 1)]) == (0, 0)


class TestMRS:
    def test_eq3_update(self):
        """S <- alpha * TopP(s) + (1 - alpha) * S, exactly."""
        policy = MRSPolicy(alpha=0.5, top_p=2)
        scores = np.array([0.5, 0.3, 0.15, 0.05])
        policy.on_scores(0, scores, 1)
        assert policy.score_of((0, 0)) == pytest.approx(0.25)
        assert policy.score_of((0, 1)) == pytest.approx(0.15)
        # Outside top-p: pure decay from zero stays zero.
        assert policy.score_of((0, 2)) == 0.0
        policy.on_scores(0, scores, 2)
        assert policy.score_of((0, 0)) == pytest.approx(0.5 * 0.5 + 0.5 * 0.25)

    def test_non_top_p_decays(self):
        policy = MRSPolicy(alpha=0.5, top_p=1)
        policy.on_scores(0, np.array([0.9, 0.1]), 1)
        policy.on_scores(0, np.array([0.1, 0.9]), 2)
        # Expert 0 was top once then decayed.
        assert policy.score_of((0, 0)) == pytest.approx(0.5 * 0.45)

    def test_victim_is_min_score(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        policy.on_scores(0, np.array([0.4, 0.3, 0.2, 0.1]), 1)
        for expert in range(4):
            policy.on_insert((0, expert), 2)
        assert policy.victim([(0, e) for e in range(4)]) == (0, 3)

    def test_scores_persist_across_eviction(self):
        policy = MRSPolicy(alpha=1.0, top_p=2)
        policy.on_scores(0, np.array([0.7, 0.3]), 1)
        policy.on_insert((0, 0), 2)
        policy.forget((0, 0))
        assert policy.score_of((0, 0)) == pytest.approx(0.7)

    def test_top_p_clamped_to_pool(self):
        policy = MRSPolicy(alpha=1.0, top_p=10)
        policy.on_scores(0, np.array([0.6, 0.4]), 1)
        assert policy.score_of((0, 1)) == pytest.approx(0.4)

    def test_invalid_params(self):
        with pytest.raises(CacheError):
            MRSPolicy(alpha=0.0)
        with pytest.raises(CacheError):
            MRSPolicy(alpha=1.5)
        with pytest.raises(CacheError):
            MRSPolicy(top_p=0)

    def test_scores_must_be_1d(self):
        with pytest.raises(CacheError):
            MRSPolicy().on_scores(0, np.ones((2, 2)), 1)

    def test_layers_tracked_independently(self):
        policy = MRSPolicy(alpha=1.0, top_p=1)
        policy.on_scores(0, np.array([0.9, 0.1]), 1)
        policy.on_scores(1, np.array([0.2, 0.8]), 2)
        assert policy.score_of((0, 0)) == pytest.approx(0.9)
        assert policy.score_of((1, 1)) == pytest.approx(0.8)

    def test_insert_before_scores_then_fold(self):
        """A key inserted before its layer was ever scored keeps a zero
        priority, then folds into the layer array on first scoring."""
        policy = MRSPolicy(alpha=1.0, top_p=2)
        policy.on_insert((3, 5), 1)
        assert policy.priority((3, 5)) == 0.0
        policy.on_scores(3, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.7]), 2)
        assert policy.score_of((3, 5)) == pytest.approx(0.7)
        assert (3, 5) in policy.priority_snapshot()


class TestMRSVectorizedEquivalence:
    """The numpy MRS must match the historical per-key dict version
    bit-for-bit: same priorities, same eviction order."""

    class _ReferenceMRS:
        """The pre-vectorization implementation, kept as the oracle."""

        def __init__(self, alpha, top_p):
            self.alpha, self.top_p = alpha, top_p
            self._scores: dict[tuple[int, int], float] = {}
            self._last_used: dict[tuple[int, int], int] = {}

        def on_insert(self, key, now):
            self._scores.setdefault(key, 0.0)
            self._last_used[key] = now

        def on_access(self, key, now):
            self._last_used[key] = now

        def on_scores(self, layer, scores, now):
            scores = np.asarray(scores, dtype=np.float64)
            p = min(self.top_p, scores.size)
            top = set(int(i) for i in np.argsort(-scores, kind="stable")[:p])
            for expert in range(scores.size):
                previous = self._scores.get((layer, expert), 0.0)
                contribution = float(scores[expert]) if expert in top else 0.0
                self._scores[(layer, expert)] = (
                    self.alpha * contribution + (1.0 - self.alpha) * previous
                )

        def victim(self, candidates):
            return min(
                candidates,
                key=lambda k: (
                    self._scores.get(k, 0.0),
                    self._last_used.get(k, -1),
                    k,
                ),
            )

        def priority(self, key):
            return self._scores.get(key, 0.0)

        def forget(self, key):
            self._last_used.pop(key, None)

    @pytest.mark.parametrize("alpha,top_p", [(0.3, 2), (0.7, 4), (1.0, 1)])
    def test_identical_eviction_order(self, alpha, top_p):
        import random

        rng = random.Random(42)
        nprng = np.random.default_rng(42)
        policy = MRSPolicy(alpha=alpha, top_p=top_p)
        reference = self._ReferenceMRS(alpha, top_p)
        resident: set[tuple[int, int]] = set()
        evictions_new: list[tuple[int, int]] = []
        evictions_ref: list[tuple[int, int]] = []
        for clock in range(1, 300):
            roll = rng.random()
            if roll < 0.3:
                key = (rng.randint(0, 2), rng.randint(0, 9))
                policy.on_insert(key, clock)
                reference.on_insert(key, clock)
                resident.add(key)
            elif roll < 0.45 and resident:
                key = rng.choice(sorted(resident))
                policy.on_access(key, clock)
                reference.on_access(key, clock)
            elif roll < 0.8:
                layer = rng.randint(0, 2)
                scores = nprng.random(rng.choice([6, 8, 10]))
                policy.on_scores(layer, scores, clock)
                reference.on_scores(layer, scores, clock)
            elif len(resident) > 2:
                candidates = sorted(resident)
                victim_new = policy.victim(candidates)
                victim_ref = reference.victim(candidates)
                evictions_new.append(victim_new)
                evictions_ref.append(victim_ref)
                assert policy.priority(victim_new) == reference.priority(victim_ref)
                policy.forget(victim_new)
                reference.forget(victim_ref)
                resident.discard(victim_new)
        assert evictions_new == evictions_ref
        assert len(evictions_new) > 10
        for key in sorted(resident):
            assert policy.priority(key) == reference.priority(key)

    def test_victim_resident_matches_victim_under_churn(self):
        """The incremental victim index the cache consults agrees with
        the lexsort oracle through insert/evict/access/score/lock churn."""
        from repro.cache.manager import ExpertCache

        rng = np.random.default_rng(7)
        policy = MRSPolicy(top_p=4)
        cache = ExpertCache(6, policy)
        checked = 0
        for _ in range(300):
            op = rng.integers(0, 5)
            key = (int(rng.integers(0, 3)), int(rng.integers(0, 8)))
            if op == 0:
                cache.insert(key)
            elif op == 1:
                cache.access(key)
            elif op == 2:
                cache.observe_scores(key[0], rng.random(8))
            elif op == 3:
                cache.lock([key])
            else:
                cache.unlock_all()
            resident, locked = cache.dynamic_keys, cache.locked_keys
            candidates = resident - locked
            if candidates:
                assert policy.victim_resident(resident, locked) == policy.victim(
                    sorted(candidates)
                )
                checked += 1
        cache.validate()
        assert checked > 200


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("lru", LRUPolicy), ("lfu", LFUPolicy), ("mrs", MRSPolicy)])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_kwargs_forwarded(self):
        policy = make_policy("mrs", alpha=0.9, top_p=7)
        assert policy.alpha == 0.9 and policy.top_p == 7

    def test_unknown_policy(self):
        with pytest.raises(CacheError):
            make_policy("belady")
