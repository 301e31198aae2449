"""Experiment harness regenerating every paper table and figure.

Each public function in :mod:`repro.experiments.figures` corresponds to
one artifact of the paper's evaluation (Fig. 3a-f, Fig. 7, Fig. 8,
Fig. 9, Table III) and returns plain row dictionaries;
:mod:`repro.experiments.reporting` renders them as the tables the
benchmark harness prints (see "Running the benchmark suite locally" in
docs/BENCHMARKS.md).
"""

from repro.experiments.figures import (
    FULL_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    ablation_mrs_parameters,
    ablation_prefetch_depth,
    ablation_scheduler_variants,
    fig3a_activation_cdf,
    fig3b_reuse_probability,
    fig3c_workload_distribution,
    fig3d_existing_methods,
    fig3e_expert_count_sweep,
    fig3f_workload_sweep,
    fig7_prefill,
    fig8_decode,
    fig9_cache_hit_rate,
    table3_ablation,
)
from repro.experiments.reporting import (
    add_speedup_column,
    format_table,
    geometric_mean,
    save_csv,
    save_json,
)
from repro.experiments.runner import run_workload

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "fig3a_activation_cdf",
    "fig3b_reuse_probability",
    "fig3c_workload_distribution",
    "fig3d_existing_methods",
    "fig3e_expert_count_sweep",
    "fig3f_workload_sweep",
    "fig7_prefill",
    "fig8_decode",
    "fig9_cache_hit_rate",
    "table3_ablation",
    "ablation_scheduler_variants",
    "ablation_prefetch_depth",
    "ablation_mrs_parameters",
    "run_workload",
    "format_table",
    "add_speedup_column",
    "geometric_mean",
    "save_csv",
    "save_json",
]
