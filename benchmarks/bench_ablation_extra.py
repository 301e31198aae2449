"""Extra ablations of design choices, beyond the paper.

- transfer-count search and CPU work stealing, toggled independently;
- prefetch lookahead depth (the paper fixes 3 without ablating);
- MRS alpha / top-p sensitivity around the paper's ``p = 2K`` choice.
"""

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.experiments.figures import (
    ablation_mrs_parameters,
    ablation_prefetch_depth,
    ablation_scheduler_variants,
)
from repro.experiments.reporting import format_table


def test_ablation_scheduler_variants(benchmark, report):
    rows = benchmark.pedantic(
        lambda: ablation_scheduler_variants(scale=BENCH_SCALE, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    report(
        "ablation_scheduler_variants",
        format_table(rows, title="Ablation — transfer search / CPU stealing"),
    )
    by_variant = {r["variant"]: r for r in rows}
    # The full search is never worse than the two-extremes heuristic.
    assert (
        by_variant["search+steal"]["prefill_latency_s"]
        <= by_variant["extremes-only"]["prefill_latency_s"] * 1.02
    )


def test_ablation_prefetch_depth(benchmark, report):
    rows = benchmark.pedantic(
        lambda: ablation_prefetch_depth(scale=BENCH_SCALE, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    report(
        "ablation_prefetch_depth",
        format_table(rows, title="Ablation — prefetch lookahead depth"),
    )
    assert all(r["decode_latency_s"] > 0 for r in rows)
    # Deeper lookahead should not collapse hit rates.
    hit_rates = [r["decode_hit_rate"] for r in rows]
    assert max(hit_rates) - min(hit_rates) < 0.3


def test_ablation_mrs_parameters(benchmark, report):
    rows = benchmark.pedantic(
        lambda: ablation_mrs_parameters(scale=BENCH_SCALE, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    report(
        "ablation_mrs_parameters",
        format_table(rows, title="Ablation — MRS alpha / top-p sensitivity"),
    )
    # The paper's p = 2K neighbourhood must be competitive: the best
    # configuration is within a few points of the best overall.
    best = max(r["hit_rate"] for r in rows)
    paper_like = max(r["hit_rate"] for r in rows if r["top_p_factor"] == 2)
    assert paper_like > best - 0.05
