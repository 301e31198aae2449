"""Smoke test for the step profiler's structured report.

``tools/profile_step.py`` is a debugging entry point, not library
code, so one fast end-to-end pass is enough: profile a handful of
decode steps and pin the report shape the CI
docs job (and any tooling) consumes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from profile_step import profile_report  # noqa: E402


def test_report_shape_and_sanity():
    report = profile_report(steps=5, num_layers=2, cache_ratio=0.5, top=5)
    assert report["steps"] == 5
    assert report["model"] == "deepseek"
    assert report["strategy"] == "hybrimoe"
    assert report["elapsed_s"] > 0.0
    assert report["steps_per_s"] > 0.0
    assert 0 < len(report["top"]) <= 5
    for row in report["top"]:
        assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        assert row["ncalls"] >= 1
        assert row["tottime_s"] >= 0.0
        assert row["cumtime_s"] >= 0.0


def test_top_rows_follow_sort_order():
    report = profile_report(steps=2, num_layers=2, cache_ratio=0.5, top=10)
    cumtimes = [row["cumtime_s"] for row in report["top"]]
    assert cumtimes == sorted(cumtimes, reverse=True)
