"""Measure serve-poisson's saturation goodput, the base of its arrival rate.

Every request of the serve-poisson trace is sent at once (all arrivals
within a nanosecond), so the server runs at full batch occupancy from
the start and its goodput is the saturation goodput. The arrival rate
in ``calibration.json`` is ``load_fraction`` of the median over seeds;
re-run this only when the workload's shape changes, never to re-tune
the load of an existing baseline.

Usage, from the repository root::

    python3 perfbench/calibrate.py --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import ServePoisson  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    calibration = json.loads((HERE / "calibration.json").read_text())
    params = calibration["workloads"]["serve-poisson"]
    burst = ServePoisson(dict(params, arrival_rate_rps=1e9))
    goodputs = []
    for seed in args.seeds:
        setup = burst.setup(seed)
        report = setup.server.serve(setup.inputs)
        goodputs.append(report.goodput)
        print(f"seed {seed}: saturation goodput {report.goodput:.3f} req/s")
    saturation = statistics.median(goodputs)
    rate = params["load_fraction"] * saturation
    print(
        f"median saturation goodput {saturation:.3f} req/s; "
        f"{params['load_fraction']:.0%} of it is {rate:.3f} req/s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
