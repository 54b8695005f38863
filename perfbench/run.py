"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and README.md in this directory):

* ``table1`` — the 11 Van Roy programs parsed, compiled and analyzed
  from scratch, closed loop, one thread, each checked against the
  reference meta-interpreter;
* ``serve-edits`` — a seeded editing session through one in-process
  ``AnalysisService``, closed loop, one client;
* ``gateway`` — ``python -m repro.serve --listen`` with 2 shards of 1
  worker, driven open loop over 2 TCP connections.

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
is the separate traced run that prints the per-layer metrics.  The last
stdout line is the JSON result; the exit status is 1 when any answer
was wrong and 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import sys

import catalog
from common import (
    metric,
    pin_to_one_cpu,
    report,
    require_source,
    result_line,
)

WORKLOADS = ("table1", "serve-edits", "gateway")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    pin_to_one_cpu()
    traced = bool(args.trace)
    if args.workload == "gateway":
        import gateway

        outcome = gateway.run(args.seed, args.seconds, traced)
    else:
        import inprocess

        run = {"table1": inprocess.table1,
               "serve-edits": inprocess.serve_edits}[args.workload]
        outcome = run(args.seed, args.seconds, traced)
    attempted, failed = outcome["attempted"], outcome["failed"]
    units = catalog.units(traced)
    if traced:
        values = {name: 0.0 for name in units}
        values.update(outcome["layer"])
    else:
        values = dict(outcome["e2e"])
        values["setup_s"] = outcome["setup_s"]
        values["peak_rss_mb"] = outcome["peak_rss_mb"]
        values["served_frac"] = (attempted - failed) / attempted
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not in the catalog: {sorted(unknown)}")
    report(outcome["lines"] + [
        f"  setup_s {outcome['setup_s']:.4f} s (raw "
        f"{outcome['setup_raw_s']:.4f} s)  peak_rss_mb "
        f"{outcome['peak_rss_mb']:.1f} MB  failed_frac "
        f"{failed / attempted:.4f} ({failed}/{attempted})",
    ])
    metrics = {name: metric(values[name], units[name]) for name in units}
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
