"""Impact-driven prefetching (paper §IV-C, Fig. 6).

Between MoE phases the PCIe link is often idle. HybriMoE fills that
window by preloading experts of *upcoming* layers — but unlike prior
work, which prefetches the next layer greedily, it decides **which
layer's experts** to prioritise by *simulating the impact*: for each
candidate expert of layers ``l+1 .. l+depth`` it runs the hybrid
schedule simulation with and without that expert cached, and ranks
candidates by the expected makespan reduction, discounted by prediction
confidence (gate-reuse accuracy decays with distance).

Predictions reuse the gating weights of the future layers applied to
the current hidden state — exactly the mechanism of Fig. 6.

**Fast path.** A naive implementation pays a full with/without
simulation pair per candidate expert per lookahead layer, which makes
the prefetcher the planner's dominant cost in decode. Two mechanisms
cut that down without changing a single decision at default settings:

- *delta screening*: each candidate is first scored by a cheap
  timeline delta bound — the baseline makespan minus a provable lower
  bound on the with-expert makespan (built from the same duration
  floats the simulation would add). When even that optimistic gain
  cannot clear ``min_gain``, the exact simulation is skipped; the
  bound is one-sided, so screening can only drop candidates the exact
  path would also have dropped.
- *memoized simulations*: each predicted layer goes through one
  :class:`~repro.core.hybrid_scheduler.QuickLayer`, whose screening
  and exact simulations the scheduler memoizes under relabel-invariant
  keys. Decode steps keep predicting layers with the same load and
  residency pattern, so most layers are cache hits.

``exact_top_m`` additionally caps how many screening survivors get the
full simulation (best screening bound first). That is an *approximation*
— survivors beyond the cap are dropped — so it is off (``None``) by
default and exists for latency-critical deployments that accept small
decision drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hybrid_scheduler import HybridScheduler
from repro.errors import SchedulingError

__all__ = ["PredictedLayer", "PrefetchDecision", "ImpactDrivenPrefetcher"]


@dataclass(frozen=True)
class PredictedLayer:
    """Gate-reuse prediction for one future layer.

    Attributes
    ----------
    layer:
        Future layer index.
    scores:
        Predicted per-expert routing scores (mean over tokens), shape
        ``(n_experts,)``.
    n_tokens:
        Tokens the step will route (same as the current step's).
    cached_experts:
        Expert ids of that layer currently resident or in flight.
    spilled_experts:
        Expert ids of that layer resident in *no* memory tier (tiered
        platforms only): their impact simulations carry the disk-fetch
        surcharge, and a granted prefetch first stages them into DRAM.
    confidence:
        Calibrated confidence of a gate-backed prediction
        (:class:`~repro.prediction.gate.ConfidenceGate`), or ``None``
        for the historical heuristic prediction. When set it replaces
        the distance-decay discount on gains and licenses distances
        beyond the heuristic ``lookahead``.
    """

    layer: int
    scores: np.ndarray
    n_tokens: int
    cached_experts: frozenset[int]
    spilled_experts: frozenset[int] = frozenset()
    confidence: float | None = None


@dataclass(frozen=True)
class PrefetchDecision:
    """One selected prefetch with its estimated benefit."""

    layer: int
    expert: int
    gain: float
    cost: float
    distance: int
    confidence: float | None = None


class ImpactDrivenPrefetcher:
    """Rank prefetch candidates by simulated makespan reduction.

    Parameters
    ----------
    scheduler:
        The hybrid scheduler whose simulation estimates impact (shares
        the planner's *estimated* cost oracle).
    transfer_time_fn:
        Callable ``() -> float`` giving the estimated per-expert
        transfer duration (budget accounting).
    num_activated:
        Top-K of the model; predicted activation sets take the top-K
        experts by predicted score.
    lookahead:
        How many future layers to consider (the paper uses 3).
    confidence_decay:
        Multiplicative per-layer-distance discount on gains, modelling
        the decay of gate-reuse prediction accuracy.
    min_gain:
        Candidates whose discounted gain is not strictly above this
        threshold are dropped.
    delta_screen:
        Screen candidates with the cheap delta bound before paying for
        an exact impact simulation. Decision-preserving (the bound is
        one-sided); disable only to benchmark the unscreened path.
    exact_top_m:
        When set, at most this many screening survivors (best bound
        first) receive the exact simulation; the rest are dropped. An
        approximation knob — ``None`` (default) keeps decisions exact.
    disk_fetch_s:
        Estimated disk -> DRAM read time per spilled expert (tiered
        platforms; 0 keeps the two-tier behaviour). Impact simulations
        then cost the full disk -> CPU -> GPU chain, and prefetching a
        spilled expert is charged ``disk_fetch_s`` of extra lead time.
    fast_path:
        Screen and simulate through one
        :meth:`~repro.core.hybrid_scheduler.HybridScheduler.quick_layer`
        per predicted layer, which validates and sorts once and
        memoizes whole candidate batches. Bounds — and therefore
        decisions — are bit-identical either way; ``False`` keeps the
        per-candidate calls as a perf baseline
        (``EngineConfig.engine_fast_path`` threads here).
    """

    def __init__(
        self,
        scheduler: HybridScheduler,
        transfer_time_fn,
        num_activated: int,
        lookahead: int = 3,
        confidence_decay: float = 0.8,
        min_gain: float = 0.0,
        delta_screen: bool = True,
        exact_top_m: int | None = None,
        disk_fetch_s: float = 0.0,
        fast_path: bool = True,
    ) -> None:
        if lookahead < 1:
            raise SchedulingError(f"lookahead must be >= 1, got {lookahead}")
        if not 0.0 < confidence_decay <= 1.0:
            raise SchedulingError(
                f"confidence_decay must be in (0, 1], got {confidence_decay}"
            )
        if num_activated < 1:
            raise SchedulingError(f"num_activated must be >= 1, got {num_activated}")
        if exact_top_m is not None:
            if exact_top_m < 1:
                raise SchedulingError(f"exact_top_m must be >= 1, got {exact_top_m}")
            if not delta_screen:
                raise SchedulingError("exact_top_m requires delta_screen=True")
        if disk_fetch_s < 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        self.scheduler = scheduler
        self.transfer_time_fn = transfer_time_fn
        self.num_activated = num_activated
        self.lookahead = lookahead
        self.confidence_decay = confidence_decay
        self.min_gain = min_gain
        self.delta_screen = delta_screen
        self.exact_top_m = exact_top_m
        self.disk_fetch_s = disk_fetch_s
        self.fast_path = fast_path

    # ------------------------------------------------------------------
    def predicted_activation(
        self, prediction: PredictedLayer
    ) -> list[tuple[int, int]]:
        """Estimated ``(expert, load)`` set for a predicted layer.

        The top-K experts by predicted score are assumed activated.
        Loads are apportioned from scores: each of the ``n_tokens``
        tokens contributes K expert slots, distributed proportionally
        to the predicted scores of the selected experts (minimum 1).
        """
        scores = np.asarray(prediction.scores, dtype=np.float64)
        k = min(self.num_activated, scores.size)
        top = np.argsort(-scores, kind="stable")[:k]
        if self.fast_path and prediction.n_tokens == 1:
            # Decode: the `min(load, n_tokens)` cap below forces every
            # load to exactly 1, so the share apportionment is dead
            # arithmetic — skip it.
            return [(e, 1) for e in top.tolist()]
        total_slots = prediction.n_tokens * k
        weights = scores[top]
        weight_sum = float(weights.sum())
        if weight_sum <= 0:
            shares = np.full(k, 1.0 / k)
        else:
            shares = weights / weight_sum
        loads = np.maximum(1, np.round(shares * total_slots).astype(int))
        # Cap at n_tokens: an expert cannot receive more tokens than exist.
        loads = np.minimum(loads, prediction.n_tokens)
        return list(zip(top.tolist(), loads.tolist()))

    def evaluate_candidates(
        self, predictions: list[PredictedLayer], current_layer: int
    ) -> list[PrefetchDecision]:
        """Simulate the impact of each candidate expert, best first.

        A prediction within ``lookahead`` is the historical heuristic:
        its gain is discounted by ``confidence_decay ** (distance-1)``.
        A prediction carrying a gate-calibrated ``confidence`` uses
        that value instead — and is the only kind admitted *beyond*
        ``lookahead`` (predictor-earned lead time).
        """
        decisions: list[PrefetchDecision] = []
        transfer_s = None  # the estimated transfer time, asked once
        for prediction in predictions:
            distance = prediction.layer - current_layer
            if distance < 1:
                continue
            if prediction.confidence is None and distance > self.lookahead:
                continue
            activated = self.predicted_activation(prediction)
            cached = set(prediction.cached_experts)
            candidates = [e for e, _ in activated if e not in cached]
            if not candidates:
                continue
            spilled = prediction.spilled_experts
            bounds = None
            quick = None
            if self.fast_path:
                # One validated, load-ranked handle per predicted layer
                # answers both the screening pass and the survivors'
                # exact simulations, memoized; floats are bit-identical
                # to the per-call path below.
                quick = self.scheduler.quick_layer(
                    activated, cached, prediction.n_tokens, spilled, self.disk_fetch_s
                )
                base, bounds = quick.screen(candidates if self.delta_screen else [])
            else:
                base = self.scheduler.simulate_makespan(
                    activated, cached, prediction.n_tokens, quick=True,
                    spilled=spilled, disk_fetch_s=self.disk_fetch_s,
                )
            if prediction.confidence is not None:
                confidence = prediction.confidence
            else:
                confidence = self.confidence_decay ** (distance - 1)
            survivors = self._screen(
                activated, cached, candidates, base, confidence,
                prediction.n_tokens, spilled, bounds=bounds,
            )
            with_makespans = None
            if quick is not None and survivors:
                with_makespans = quick.makespans_with(survivors)
            for expert in survivors:
                # Simulating `expert` as cached: its own spill state is
                # moot (the scheduler intersects spilled with uncached),
                # but the rest of the layer keeps its surcharges.
                if with_makespans is not None:
                    with_expert = with_makespans[expert]
                else:
                    with_expert = self.scheduler.simulate_makespan(
                        activated, cached | {expert}, prediction.n_tokens, quick=True,
                        spilled=spilled, disk_fetch_s=self.disk_fetch_s,
                    )
                gain = (base - with_expert) * confidence
                if gain > self.min_gain:
                    if transfer_s is None:
                        transfer_s = self.transfer_time_fn()
                    cost = transfer_s
                    if expert in spilled:
                        # A spilled expert rides the disk link first —
                        # more lead time and more budget consumed.
                        cost += self.disk_fetch_s
                    decisions.append(
                        PrefetchDecision(
                            layer=prediction.layer,
                            expert=expert,
                            gain=gain,
                            cost=cost,
                            distance=distance,
                            confidence=prediction.confidence,
                        )
                    )
        decisions.sort(key=lambda d: (-d.gain, d.distance, d.layer, d.expert))
        return decisions

    def _screen(
        self,
        activated: list[tuple[int, int]],
        cached: set[int],
        candidates: list[int],
        base: float,
        confidence: float,
        n_tokens: int,
        spilled: frozenset[int] = frozenset(),
        bounds: dict[int, float] | None = None,
    ) -> list[int]:
        """Candidates whose exact simulation could still clear min_gain.

        The upper bound on a candidate's gain is
        ``(base - lower_bound(with-expert makespan)) * confidence``.
        A candidate is dropped only when even that bound cannot exceed
        ``min_gain`` — the exact path would have dropped it too, so the
        surviving set yields bit-identical decisions. ``exact_top_m``
        then optionally caps the survivors (approximation, off by
        default). ``bounds`` supplies precomputed screening bounds
        (:meth:`~repro.core.hybrid_scheduler.QuickLayer.screen`);
        otherwise each is computed per candidate.
        """
        if not self.delta_screen:
            return list(candidates)
        scored: list[tuple[float, int]] = []
        for expert in candidates:
            if bounds is not None:
                bound = bounds[expert]
            else:
                bound = self.scheduler.quick_makespan_lower_bound(
                    activated, cached | {expert}, n_tokens,
                    spilled=spilled, disk_fetch_s=self.disk_fetch_s,
                )
            gain_bound = (base - bound) * confidence
            if gain_bound > self.min_gain:
                scored.append((gain_bound, expert))
        if self.exact_top_m is not None and len(scored) > self.exact_top_m:
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            scored = scored[: self.exact_top_m]
        # Original candidate order is preserved so the exact evaluation
        # sequence matches the unscreened path.
        keep = {expert for _, expert in scored}
        return [expert for expert in candidates if expert in keep]

    def select(
        self,
        predictions: list[PredictedLayer],
        current_layer: int,
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[PrefetchDecision]:
        """Greedy selection of prefetches within budget and lead time.

        Two constraints gate each candidate:

        - **budget**: total prefetch transfer time stays within the
          estimated idle window of the PCIe link;
        - **lead time**: a transfer must be able to *finish* before its
          target layer's MoE phase, i.e. within ``distance *
          layer_span_s`` minus the link's current backlog. A prefetch
          that lands late merely stalls the GPU (the planner would have
          done better sending the expert to the CPU), so it is skipped.
        """
        if budget_s <= 0:
            return []
        if backlog_s < 0:
            raise SchedulingError(f"backlog_s must be non-negative, got {backlog_s}")
        chosen: list[PrefetchDecision] = []
        spent = 0.0
        for decision in self.evaluate_candidates(predictions, current_layer):
            if spent + decision.cost > budget_s:
                continue
            finish_offset = backlog_s + spent + decision.cost
            if finish_offset > decision.distance * layer_span_s:
                continue
            chosen.append(decision)
            spent += decision.cost
        return chosen
