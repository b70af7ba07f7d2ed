"""Run every workload once and print its end-to-end metrics in one table.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Each row gives a metric with its unit and the number of samples behind it
(timed passes for wall_s, spawned children for setup_s).  failed_frac is
failed scenario runs over attempted ones, after every output check ran.
Exits 1 if any scenario run failed.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import BenchError, end_to_end, run_workload
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    print(f"{'workload':<11} {'metric':<12} {'value':>12} {'unit':<6} samples")
    any_failed = False
    for workload in WORKLOADS:
        try:
            r = run_workload(workload, args.seed, args.seconds, trace=False)
        except BenchError as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 2
        m = end_to_end(r)
        rows = [("wall_s", m["wall_s"], "s", len(r["walls"])),
                ("setup_s", m["setup_s"], "s", len(r["setups"])),
                ("peak_rss_mb", m["peak_rss_mb"], "MiB", 1),
                ("failed_frac", r["failed"] / r["attempted"], "ratio",
                 r["attempted"])]
        for name, value, unit, n in rows:
            print(f"{workload:<11} {name:<12} {value:>12.4f} {unit:<6} {n}")
        print(f"{workload:<11} pass times {min(r['walls']):.4f}-"
              f"{max(r['walls']):.4f} s, median "
              f"{statistics.median(r['walls']):.4f} s; "
              f"csv_sha256 {r['csv_sha256'][:16]}")
        for msg in r["failures"]:
            print(f"{workload:<11} FAILED {msg}")
        any_failed = any_failed or r["failed"] > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
