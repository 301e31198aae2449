"""Two-clock benchmark of the HybriMoE reproduction.

Runs one workload (see ``workloads.py`` and ``LAYERS.md``) against the
default ``hybrimoe`` strategy and reports end-to-end metrics on two
clocks: *sim* (simulated TTFT, TBT, goodput, SLO attainment;
deterministic per seed) and *wall* (how fast the simulator replays the
workload, set-up time, peak memory). With ``--trace 1`` it reports the
per-layer metrics of traced passes instead, writes their spans as
Chrome trace-event JSON and reports the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode-solo --seed 0 --seconds 15 --trace 0

A run sets the workload up several times (``setup_s`` is the median),
then replays whole passes of the seeded workload, each on a freshly set
up engine, until ``--seconds`` have passed. Every pass must produce the
same simulated output (same fingerprint); wall metrics are medians over
passes. The run checks that every request sent reaches exactly one
terminal status, that the clock and cache invariants hold, and that the
first request's hidden states match ``ReferenceMoEModel.forward``. The
last line of standard output is one JSON object; the exit code is 1 on
any correctness violation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# The replay is measured single-threaded: multi-threaded BLAS on the
# simulator's small matrices adds thread-scheduling noise, not speed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups timed besides the one each pass makes, half before the
#: passes and half after.
SETUP_REPEATS = 8
#: Tolerances of the reference check (those of the equivalence tests).
RTOL, ATOL = 1e-5, 1e-6
TERMINAL = {"finished", "timed_out", "shed"}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def beyond(count: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile's rank."""
    return count - int((count - 1) * q / 100.0) - 1 if count else 0


@dataclass
class Pass:
    replay: object
    wall_s: float
    traced: bool
    layer_metrics: dict | None = None
    tracer: object | None = None


def check_pass(setup, replay) -> list[str]:
    """Correctness violations of one pass (empty when all hold)."""
    from repro.errors import ReproError

    problems = []
    sent = len(setup.inputs)
    ids = replay.record_ids
    if len(ids) != sent or sorted(ids) != list(range(sent)):
        problems.append(f"{len(ids)} terminal records for {sent} requests sent")
    bad = [r.status for r in replay.requests if r.status not in TERMINAL]
    if bad:
        problems.append(f"non-terminal statuses {sorted(set(bad))}")
    if setup.server is not None:
        open_requests = [r.request_id for r in setup.inputs if not r.is_terminal]
        if open_requests:
            problems.append(f"requests never terminated: {open_requests[:5]}")
    runtime = setup.engine.runtime
    for name, validate in (("clock", runtime.clock.validate), ("cache", runtime.cache.validate)):
        try:
            validate()
        except ReproError as exc:
            problems.append(f"{name}.validate(): {exc}")
    return problems


def check_reference(workload, probe) -> list[str]:
    """The first request's hidden states against the reference forward."""
    from repro.models.model import ReferenceMoEModel
    from repro.models.presets import get_preset
    from workloads import ENGINE

    reference = ReferenceMoEModel(
        get_preset(workload.model, num_layers=ENGINE["num_layers"]), seed=ENGINE["seed"]
    )
    hidden, _, state = reference.forward(probe.prompt)
    problems = []
    if probe.prefill_hidden is not None and not np.allclose(
        probe.prefill_hidden, hidden, rtol=RTOL, atol=ATOL
    ):
        problems.append("first prompt's prefill hidden states differ from the reference")
    for token in probe.output_tokens:
        hidden, _, state = reference.forward(np.array([token]), state)
    if not np.allclose(probe.last_hidden, hidden[-1], rtol=RTOL, atol=ATOL):
        problems.append("first request's last hidden state differs from the reference")
    return problems


def sim_metrics(replay, limits: dict) -> tuple[dict, dict]:
    """Simulated end-to-end metrics and their sample counts."""
    done = [r for r in replay.requests if r.finished]
    ttft = [r.first_token - r.arrival for r in done]
    tbt = [t for r in done for t in r.tbt]
    window = max(r.finish for r in replay.requests) - min(r.arrival for r in replay.requests)
    met = sum(
        1
        for r in done
        if r.first_token - r.arrival <= limits["l_ttft_ms"] / 1e3
        and (not r.tbt or percentile(r.tbt, 99) <= limits["l_tbt_ms"] / 1e3)
    )
    metrics = {
        "ttft_p50_ms": percentile(ttft, 50) * 1e3,
        "ttft_p90_ms": percentile(ttft, 90) * 1e3,
        "tbt_p50_ms": percentile(tbt, 50) * 1e3,
        "tbt_p99_ms": percentile(tbt, 99) * 1e3,
        "goodput_rps": len(done) / window,
        "slo_attainment": met / len(replay.requests),
    }
    samples = {
        "ttft_p50_ms": (len(ttft), 50),
        "ttft_p90_ms": (len(ttft), 90),
        "tbt_p50_ms": (len(tbt), 50),
        "tbt_p99_ms": (len(tbt), 99),
        "goodput_rps": (len(done), None),
        "slo_attainment": (len(replay.requests), None),
    }
    return metrics, samples


UNITS = {
    "ttft_p50_ms": ("ms", "sim"),
    "ttft_p90_ms": ("ms", "sim"),
    "tbt_p50_ms": ("ms", "sim"),
    "tbt_p99_ms": ("ms", "sim"),
    "goodput_rps": ("1/s", "sim"),
    "slo_attainment": ("share", "sim"),
    "replay_tokens_per_s": ("1/s", "wall"),
    "setup_s": ("s", "wall"),
    "peak_rss_mb": ("MB", "wall"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import METRICS, Recorder, derive, read_counters, targets
    from tracer import Tracer, instrument
    from workloads import WORKLOADS

    calibration = json.loads((HERE / "calibration.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    params = calibration["workloads"][args.workload]
    workload = WORKLOADS[args.workload](params)
    seed = calibration["default_seed"] if args.seed is None else args.seed

    started = time.perf_counter()
    setup_times: list[float] = []

    def timed_setup():
        # Garbage left by the previous pass is collected before timing,
        # so neither set-up nor replay pays for its predecessor.
        gc.collect()
        t0 = time.perf_counter()
        setup = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        return setup

    # The wall speed of a shared host drifts over seconds; set-ups made
    # before and after the passes sample more of that drift.
    for _ in range(SETUP_REPEATS // 2):
        timed_setup()

    problems: list[str] = []
    passes: list[Pass] = []

    def run_pass(traced: bool) -> Pass:
        setup = timed_setup()
        counters = read_counters(setup.engine)
        gc.collect()
        tracer, recorder = (Tracer(), Recorder()) if traced else (None, None)
        with instrument(tracer, targets(recorder)) if traced else nullcontext():
            t0 = time.perf_counter()
            replay = workload.replay(setup, seed)
            wall = time.perf_counter() - t0
        layer = derive(tracer, recorder, setup.engine, replay, counters) if traced else None
        problems.extend(f"pass {len(passes)}: {p}" for p in check_pass(setup, replay))
        return Pass(replay, wall, traced, layer, tracer)

    # A traced run alternates untraced and traced passes, so the tracing
    # overhead compares passes made under the same machine conditions.
    group = 2 if args.trace else 1
    while not passes or time.perf_counter() - started < args.seconds:
        for i in range(group):
            passes.append(run_pass(traced=i == 1))

    for _ in range(SETUP_REPEATS // 2):
        timed_setup()

    first = passes[0].replay
    fingerprints = [p.replay.fingerprint() for p in passes]
    if len(set(fingerprints)) != 1:
        problems.append(f"passes disagree on the simulated output: {fingerprints}")
    problems += check_reference(workload, first.probe)

    sent = len(first.requests)
    completed = sum(1 for r in first.requests if r.finished)
    attempted = sent * len(passes)
    failed = sum(sum(1 for r in p.replay.requests if not r.finished) for p in passes)

    metrics, samples = sim_metrics(first, params["slo"])
    untraced = [p.replay.tokens / p.wall_s for p in passes if not p.traced]
    metrics["replay_tokens_per_s"] = statistics.median(untraced)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(
        f"workload {args.workload} seed {seed}: {len(passes)} passes "
        f"({sum(p.traced for p in passes)} traced), {len(setup_times)} set-ups, "
        f"{time.perf_counter() - started:.1f} s"
    )
    print(f"fingerprint {fingerprints[0]} (passes agree: {len(set(fingerprints)) == 1})")
    print(f"requests sent {sent} completed {completed} failed {sent - completed} (per pass)")
    for name, value in metrics.items():
        unit, clock = UNITS[name]
        note = ""
        if name in samples:
            count, q = samples[name]
            note = f"n={count}" + (f", {beyond(count, q)} beyond p{q}" if q else "")
        elif name == "replay_tokens_per_s":
            note = f"median of {len(untraced)} passes, {first.tokens} tokens each"
        elif name == "setup_s":
            note = f"median of {len(setup_times)} set-ups"
        print(f"  {name:<22} {value:>14.6g} {unit:<6} {clock:<5} {note}")

    result_metrics = {
        name: {"value": value, "unit": UNITS[name][0]} for name, value in metrics.items()
    }
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        rates = [p.replay.tokens / p.wall_s for p in traced_passes]
        overhead = metrics["replay_tokens_per_s"] / statistics.median(rates)
        layer = {
            name: statistics.median(p.layer_metrics[name] for p in traced_passes)
            for name, _ in METRICS
        }
        layer["trace.overhead_ratio"] = overhead
        out = HERE / "out" / f"{args.workload}.trace.json"
        count = traced_passes[0].tracer.write_chrome_trace(out)
        print(
            f"tracing overhead: untraced/traced replay_tokens_per_s = {overhead:.3f}; "
            f"{count} spans written to {out.relative_to(ROOT)}"
        )
        units = dict(METRICS, **{"trace.overhead_ratio": "ratio"})
        for name, value in layer.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
        result_metrics = {
            name: {"value": value, "unit": units[name]} for name, value in layer.items()
        }

    for problem in problems:
        print(f"VIOLATION: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
