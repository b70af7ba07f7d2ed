"""One-off diagnostic: the fock workload at the library's default BLAS
threading, beside the same run with BLAS pinned to one thread.

    python3 perfbench/blas_threads.py [--seed N] [--seconds S]

The benchmark pins BLAS/OpenMP to one thread in its children; this run
leaves the thread variables unset, so OpenBLAS picks its own count.  The
result is printed for comparison and is not an end-to-end metric.
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, end_to_end, run_workload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    runs = {}
    try:
        for label, pinned in (("pinned", True), ("default", False)):
            runs[label] = run_workload("fock", args.seed, args.seconds,
                                       trace=False, pinned=pinned)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(f"{'':<22} {'pinned':>12} {'default':>12}")
    print(f"{'BLAS threads':<22} "
          + " ".join(f"{str(sorted(set(r['facts']['blas_threads'].values()))):>12}"
                     for r in runs.values()))
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        print(f"{name:<22} " + " ".join(f"{end_to_end(r)[name]:>12.4f}"
                                        for r in runs.values()))
    print(f"{'passes':<22} " + " ".join(f"{len(r['walls']):>12}"
                                        for r in runs.values()))
    for sid in runs["pinned"]["scenario_s"]:
        print(f"{sid + ' (s)':<22} " + " ".join(
            f"{r['scenario_s'][sid]:>12.4f}" for r in runs.values()))
    print(f"{'failed':<22} " + " ".join(f"{r['failed']:>12}"
                                        for r in runs.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
