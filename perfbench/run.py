"""Benchmark of the latticebounds CLI on seeded scenario workloads.

    python3 perfbench/run.py --workload {harmonic,clustering,fock}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and builds nothing: the library is
imported from `src/`.  Each run writes the seed's scenario configs, spawns
set-up probes and one workload child (BLAS/OpenMP threads pinned to 1 in
the child's environment), which replays the scenario list through
`latticebounds.cli.main` for S seconds and checks the outputs off the
clock.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 the child spends half the budget untraced
and half with span tracing, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from child import THREAD_VARS
from spans import metric_names
from workloads import WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5      # set-up-only children per run, besides the workload child
CHILD_GRACE_S = 120   # checks and set-up, on top of the measured seconds
CLOSURE_TOL_S = 1e-6

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(pinned: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in THREAD_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def spawn(args: list[str], env: dict, stderr, timeout: float):
    """Start a child and time it until it prints `ready`.  A watchdog kills
    it after `timeout` seconds; the caller must stop the watchdog."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=stderr,
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise BenchError(f"child did not start (rc {proc.returncode})")
    return proc, watchdog, setup


def finish(proc, watchdog) -> int:
    proc.stdout.read()
    rc = proc.wait()
    watchdog.cancel()
    return rc


def check_checkout():
    for need in ("src/latticebounds/cli.py", "scenarios"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found under {ROOT}: run from the "
                             "root of a latticebounds checkout")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pinned: bool = True) -> dict:
    """One benchmark run; returns the child's result plus set-up samples."""
    check_checkout()
    tag = f"{workload}-{seed}" + ("-trace" if trace else "") \
        + ("" if pinned else "-default-threads")
    rundir = os.path.join(ROOT, ".perfbench_out", tag)
    shutil.rmtree(rundir, ignore_errors=True)
    plan = {"root": ROOT, "rundir": rundir, "seed": seed, "seconds": seconds,
            "trace": trace,
            "scenarios": write_configs(workload, seed, ROOT,
                                       os.path.join(rundir, "configs"))}
    plan_path = os.path.join(rundir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)
    env = child_env(pinned)
    setups = []
    with open(os.path.join(rundir, "child_stderr.txt"), "w") as err:
        for _ in range(SETUP_PROBES):
            proc, dog, s = spawn(["setup", ROOT], env, err, CHILD_GRACE_S)
            if finish(proc, dog) != 0:
                raise BenchError("set-up probe failed")
            setups.append(s)
        proc, dog, s = spawn(["run", plan_path], env, err,
                             seconds + CHILD_GRACE_S)
        setups.append(s)
        rc = finish(proc, dog)
    if rc != 0:
        with open(os.path.join(rundir, "child_stderr.txt")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise BenchError(f"workload child exited with {rc}")
    with open(os.path.join(rundir, "result.json")) as fh:
        result = json.load(fh)
    result["setups"] = setups
    return result


def end_to_end(result: dict) -> dict:
    # wall_s is the slowest pass.  The host's speed changes from pass to
    # pass by up to 40%, and the slow passes repeat across runs while the
    # median does not: over ten seeds per workload, IQR/median was
    # 0.04-0.16 for the slowest pass and 0.12-0.25 for the median.
    return {"wall_s": max(result["walls"]),
            "setup_s": statistics.median(result["setups"]),
            "peak_rss_mb": result["rss_mb"]}


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    facts = result["facts"]
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"workload {workload}: csv_sha256 {result['csv_sha256']}")
    walls, setups = result["walls"], result["setups"]
    print(f"wall_s (slowest pass) {max(walls):.4f} s; median "
          f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s "
          f"over {len(walls)} passes")
    print(f"setup_s median {statistics.median(setups):.4f} s over "
          f"{len(setups)} children")
    print(f"peak_rss_mb {result['rss_mb']:.1f} MiB")
    print(f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} scenario runs)")
    for sid, s in result["scenario_s"].items():
        print(f"  {sid:<16} median {s:.4f} s")
    if result["digest_varied"]:
        print(f"{result['digest_varied']} repeated scenario runs wrote CSV "
              "bytes that differ from the first pass; each was checked")
    for msg in result["failures"]:
        print("FAILED " + msg)
    correct = result["failed"] == 0
    if trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_names()}
        top = sorted((n for n in layers if n.endswith(".self_s")),
                     key=lambda n: -layers[n])[:10]
        print("top-10 self time per pass:")
        for n in top:
            print(f"  {n:<48} {layers[n]:.4f} s")
        print("largest self times per scenario (first traced pass):")
        for sid, top3 in result["scenario_top"].items():
            print(f"  {sid:<16} " + ", ".join(f"{n} {v:.3f} s"
                                              for n, v in top3))
        print(f"trace.overhead_s {layers['trace.overhead_s']:.4f} s; "
              f"self-time closure residual {result['closure_residual']:.2e} s")
        for name in result["count_mismatch"]:
            print(f"count differs between traced passes: {name}")
        correct = correct and result["closure_residual"] < CLOSURE_TOL_S
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in end_to_end(result).items()}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
