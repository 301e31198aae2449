"""Profile the decode step pipeline and print the hot spots.

Runs a canned decode stream through the engine under :mod:`cProfile`
and prints the top cumulative-time functions — the first stop when a
step-latency regression shows up in ``BENCH_planner.json``'s
``end_to_end`` block (see ``docs/BENCHMARKS.md``). The default
scenario matches the benchmark's engine scenario, so numbers line up
with the committed trajectory.

Usage::

    python tools/profile_step.py                       # top 20
    python tools/profile_step.py --steps 128 --top 40
    python tools/profile_step.py --sort tottime
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.factory import make_engine  # noqa: E402


def profile_decode(
    model: str,
    strategy: str,
    num_layers: int,
    cache_ratio: float,
    steps: int,
    seed: int,
) -> tuple[cProfile.Profile, float]:
    engine = make_engine(
        model=model,
        strategy=strategy,
        cache_ratio=cache_ratio,
        num_layers=num_layers,
        seed=seed,
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    engine.decode_only(steps, warm_prompt_len=8)
    profiler.disable()
    return profiler, time.perf_counter() - start


def _top_rows(profiler: cProfile.Profile, top: int, sort: str) -> list[dict]:
    """The hottest ``top`` functions as plain rows (for the report)."""
    stats = pstats.Stats(profiler)
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # fcn_list is set by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    return rows


def profile_report(
    steps: int = 5,
    model: str = "deepseek",
    strategy: str = "hybrimoe",
    num_layers: int = 8,
    cache_ratio: float = 0.75,
    seed: int = 0,
    top: int = 20,
    sort: str = "cumulative",
) -> dict:
    """Profile a decode run; return a structured report.

    The wall time, derived step rate and the hottest ``top`` functions
    — the machine-readable counterpart of ``main``'s printed output,
    used by the smoke test and available to tooling.
    """
    profiler, elapsed = profile_decode(
        model=model,
        strategy=strategy,
        num_layers=num_layers,
        cache_ratio=cache_ratio,
        steps=steps,
        seed=seed,
    )
    return {
        "steps": steps,
        "model": model,
        "strategy": strategy,
        "elapsed_s": elapsed,
        "steps_per_s": steps / elapsed if elapsed > 0 else float("inf"),
        "top": _top_rows(profiler, top, sort),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="deepseek")
    parser.add_argument("--strategy", default="hybrimoe")
    parser.add_argument("--num-layers", type=int, default=8)
    parser.add_argument("--cache-ratio", type=float, default=0.75)
    parser.add_argument("--steps", type=int, default=256, help="decode steps")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also dump raw stats here"
    )
    args = parser.parse_args(argv)

    profiler, elapsed = profile_decode(
        model=args.model,
        strategy=args.strategy,
        num_layers=args.num_layers,
        cache_ratio=args.cache_ratio,
        steps=args.steps,
        seed=args.seed,
    )
    print(
        f"{args.steps} decode steps of "
        f"{args.model} L{args.num_layers} r{args.cache_ratio} in "
        f"{elapsed:.3f}s ({args.steps / elapsed:.1f} steps/s)"
    )
    stats = pstats.Stats(profiler)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
