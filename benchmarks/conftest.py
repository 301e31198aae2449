"""Shared benchmark utilities: result persistence and the bench scale.

Every benchmark regenerates one paper artifact, prints its table to the
terminal (so ``pytest benchmarks/ --benchmark-only | tee`` captures it)
and persists it under ``benchmarks/results/``.

``BENCH_SCALE`` trades fidelity for wall time: layer counts are reduced
(scheduling decisions are per-layer, so relative results are preserved;
only absolute latencies shrink proportionally) while the full bucket /
ratio / framework grids are retained.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"

#: Grid sizing for benchmark runs (see module docstring).
BENCH_SCALE = ExperimentScale(
    num_layers=10,
    prefill_buckets=(32, 128, 512, 1024),
    decode_steps=24,
    trace_decode_steps=192,
)

BENCH_SEED = 0


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir, capsys):
    """Callable ``report(name, text)``: print + persist one table."""

    def _report(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _report
