"""Golden fingerprints pin the engine core's simulated behaviour.

The engine has one core. Its oracle is twofold:

- **Simulated outputs** — step timings, hit/miss counters, utilization,
  per-tier cache residency and statistics, every clock interval and
  frontier — are hashed per cell and compared with the committed
  ``golden_fingerprints.json``. The goldens were recorded from the
  historical per-task reference engine loop and the from-scratch
  reference planner, and checked equal to the incremental core at
  record time.
- **Hidden states** are compared bit-for-bit (``assert_array_equal``)
  with a live :meth:`ReferenceMoEModel.forward` over the same tokens.
  They are never hashed: BLAS/LAPACK builds may differ across hosts,
  and the model's own forward moves with them.

The matrix is 5 strategies x {1, 2} GPUs x {two-tier, three-tier with a
constrained DRAM tier} x {no predictor, ``transition`` predictor}: a
tiny model, one prefill plus four sampled decode steps per cell.

A change that is *meant* to move simulated behaviour re-records the
goldens by running this module as a script::

    PYTHONPATH=src python tests/engine/test_golden_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.config import ExpertShape, MoEModelConfig
from repro.models.model import ReferenceMoEModel
from repro.rng import derive_rng

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]

#: (num_gpus, cpu_cache_capacity or None) — single/multi GPU crossed
#: with two-tier (no DRAM tier) and three-tier (constrained DRAM, so
#: spills and disk reads actually happen) memory.
PLATFORMS = {
    "1gpu-two-tier": (1, None),
    "2gpu-two-tier": (2, None),
    "1gpu-three-tier": (1, 4),
    "2gpu-three-tier": (2, 4),
}

#: Predictor axis. The transition predictor's gate is set low enough
#: that it fires on this tiny model's short runs; at the default
#: threshold it never would, and the cell would repeat its neighbour.
PREDICTORS = {
    "no-predictor": {},
    "transition": {"predictor": "transition", "confidence_gate": 0.05},
}

DECODE_STEPS = 4

CELLS = [
    f"{strategy}-{platform}-{predictor}"
    for strategy in STRATEGIES
    for platform in PLATFORMS
    for predictor in PREDICTORS
]


def tiny_config() -> MoEModelConfig:
    """The ``tiny_config`` fixture: 3 layers, 8 experts, top-2, 1 shared."""
    return MoEModelConfig(
        name="tiny",
        num_layers=3,
        num_shared_experts=1,
        num_routed_experts=8,
        num_activated_experts=2,
        routed_expert_shape=ExpertShape(256, 512),
        shared_expert_shape=ExpertShape(256, 512),
    )


def prompt_tokens() -> np.ndarray:
    return np.arange(24, dtype=np.int64)


def parse_cell(cell: str) -> tuple[str, str, str]:
    strategy, rest = cell.split("-", 1)
    for platform in PLATFORMS:
        if rest.startswith(platform + "-"):
            return strategy, platform, rest[len(platform) + 1:]
    raise ValueError(f"unknown cell {cell!r}")


def build_engine(cell: str, **config_overrides) -> InferenceEngine:
    strategy, platform, predictor = parse_cell(cell)
    num_gpus, cpu_capacity = PLATFORMS[platform]
    overrides = dict(config_overrides)
    if cpu_capacity is not None:
        overrides["cpu_cache_capacity"] = cpu_capacity
    overrides.update(PREDICTORS[predictor])
    config = EngineConfig(
        cache_ratio=0.25,
        seed=0,
        num_gpus=num_gpus,
        profile_prompt_len=8,
        profile_decode_steps=2,
        **overrides,
    )
    model = ReferenceMoEModel(tiny_config(), seed=0)
    return InferenceEngine(model, make_strategy(strategy), paper_testbed(), config)


def run_cell(engine: InferenceEngine):
    """Prefill plus sampled decode steps, exactly as ``generate`` runs them.

    Returns ``(tokens, hidden_states, step_metrics)`` with one entry per
    step (the prefill's token entry is the prompt).
    """
    sample_rng = derive_rng(engine.config.seed, "engine", "decode-sampling")
    tokens = [prompt_tokens()]
    hidden, metrics = engine._run_step(tokens[0], "prefill")
    hiddens, steps = [hidden], [metrics]
    for _ in range(DECODE_STEPS):
        token = np.array([engine.model.sample_next_token(hidden[-1], sample_rng)])
        hidden, metrics = engine._run_step(token, "decode")
        tokens.append(token)
        hiddens.append(hidden)
        steps.append(metrics)
    return tokens, hiddens, steps


def step_fingerprint(metrics):
    return (
        metrics.stage,
        metrics.n_tokens,
        metrics.start,
        metrics.end,
        metrics.hits,
        metrics.misses,
        metrics.batch_size,
        tuple(sorted(metrics.utilization.items())),
    )


def cache_fingerprint(cache):
    """Residency and counters of every tier, order-normalised."""
    stats = cache.stats
    fingerprint = [
        tuple(sorted(cache.resident_keys)),
        (stats.hits, stats.misses, stats.insertions, stats.evictions,
         stats.rejected_inserts),
        tuple(sorted(stats.per_layer_hits.items())),
        tuple(sorted(stats.per_layer_misses.items())),
    ]
    cpu_tier = getattr(cache, "cpu_tier", None)
    if cpu_tier is not None:
        fingerprint.append(tuple(sorted(cpu_tier.resident_keys)))
        fingerprint.append(
            (cpu_tier.stats.hits, cpu_tier.stats.misses,
             cpu_tier.stats.insertions, cpu_tier.stats.evictions)
        )
    return tuple(fingerprint)


def clock_fingerprint(clock, num_gpus):
    """Every timeline's committed intervals plus the derived frontiers."""
    timelines = [clock.cpu] + [
        tl
        for device in range(num_gpus)
        for tl in (clock.gpu_timeline(device), clock.pcie_timeline(device))
    ]
    if clock.disk is not None:
        timelines.append(clock.disk)
    return (
        tuple(tuple(tl.intervals) for tl in timelines),
        tuple(tl.available_at for tl in timelines),
        clock.compute_frontier,
        clock.frontier,
        clock.min_pcie_available_at,
    )


def digest(value) -> str:
    """Stable hash of a fingerprint (``repr`` round-trips floats exactly)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def cell_fingerprints(engine: InferenceEngine, steps) -> dict[str, str]:
    runtime = engine.runtime
    return {
        "steps": digest(tuple(step_fingerprint(s) for s in steps)),
        "cache": digest(cache_fingerprint(runtime.cache)),
        "clock": digest(clock_fingerprint(runtime.clock, runtime.num_gpus)),
    }


def record(**config_overrides) -> dict[str, dict[str, str]]:
    goldens = {}
    for cell in CELLS:
        engine = build_engine(cell, **config_overrides)
        _, _, steps = run_cell(engine)
        goldens[cell] = cell_fingerprints(engine, steps)
    return goldens


def load_goldens() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_the_matrix():
    assert sorted(load_goldens()) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_engine_matches_goldens(cell):
    engine = build_engine(cell)
    _, _, steps = run_cell(engine)

    assert cell_fingerprints(engine, steps) == load_goldens()[cell]
    engine.runtime.clock.validate()
    engine.runtime.cache.validate()


@pytest.mark.parametrize("cell", CELLS)
def test_hidden_states_bit_identical(cell):
    tokens, hiddens, _ = run_cell(build_engine(cell))

    reference = ReferenceMoEModel(tiny_config(), seed=0)
    state = None
    for step_tokens, hidden in zip(tokens, hiddens):
        ref_hidden, _, state = reference.forward(step_tokens, state)
        np.testing.assert_array_equal(hidden, ref_hidden)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells -> {GOLDEN_PATH}", file=sys.stderr)
