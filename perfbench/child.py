"""Benchmark child process: one per workload run, plus set-up probes.

    python3 child.py setup <root>
    python3 child.py run <plan.json>

Both modes load `latticebounds.cli` and every library module the CLI
handlers import lazily, then print `ready`; the parent times the interval
from spawn to that line as set-up.  `run` then feeds the plan's scenario
configs to `cli.main` in closed loop (one after another) for the plan's
time budget, optionally repeats that with span tracing installed, checks
the outputs off the clock and writes `result.json` into the run
directory.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
LIBRARY_MODULES = ("cli", "torus", "kernels", "weyl", "lightcone",
                   "genbounds", "anharmonic", "focksim", "clustering")


def load_library(root: str):
    import importlib
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    mods = [importlib.import_module(f"latticebounds.{m}")
            for m in LIBRARY_MODULES]
    importlib.import_module("scipy.special")  # lazy in power_law_zeta
    where = os.path.dirname(os.path.abspath(mods[0].__file__))
    if where != os.path.join(os.path.abspath(src), "latticebounds"):
        raise ImportError(f"latticebounds loaded from {where}, not {src}")
    return mods[0]


def main(argv: list[str]) -> int:
    mode, arg = argv
    if mode == "setup":
        load_library(arg)
        print("ready", flush=True)
        return 0
    import json
    with open(arg) as fh:
        plan = json.load(fh)
    cli = load_library(plan["root"])
    print("ready", flush=True)
    from runner import run_plan
    result = run_plan(cli, plan)
    with open(os.path.join(plan["rundir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
