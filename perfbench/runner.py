"""Timed passes over a workload's scenario list, run inside the child.

A pass feeds every scenario of the plan to `cli.main` in order, each
starting after the previous one returns (a closed loop with one client).
Passes repeat until the time budget is spent; wall time is reported per
pass so the parent can take the median.  Outputs of later passes are
hashed against the first and deleted; the first pass's outputs are
checked after all timing is done.
"""

from __future__ import annotations

import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

from checks import check_scenario
from child import THREAD_VARS
from spans import Tracer, closure_residual, metric_names, self_times


def cli_argv(entry: dict, outdir: str) -> list[str]:
    argv = [entry["kind"], "--out", outdir]
    if entry["config"] is None:
        return argv
    return argv + ["--config", entry["config"]]


def run_pass(cli, plan: dict, outbase: str, tracer: Tracer | None = None):
    """One closed-loop pass; returns wall time, per-scenario times, exit
    codes and captured standard output."""
    rcs, secs, outs = {}, {}, {}
    start = time.perf_counter()
    for entry in plan["scenarios"]:
        sid = entry["id"]
        if tracer is not None:
            tracer.scenario = sid
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cli_argv(entry, os.path.join(outbase, sid)))
        except Exception:  # a traceback is a failed scenario, not a crash
            traceback.print_exc()
            rc = -1
        secs[sid] = time.perf_counter() - t0
        rcs[sid] = rc
        outs[sid] = buf.getvalue()
    return {"wall": time.perf_counter() - start, "scenario_s": secs,
            "rc": rcs, "stdout": outs}


def csv_digests(outbase: str, plan: dict) -> dict[str, str]:
    """SHA-256 of each scenario's CSV bytes (files in name order)."""
    out = {}
    for entry in plan["scenarios"]:
        d = os.path.join(outbase, entry["id"])
        h = hashlib.sha256()
        names = sorted(n for n in os.listdir(d) if n.endswith(".csv")) \
            if os.path.isdir(d) else []
        for name in names:
            h.update(name.encode() + b"\n")
            with open(os.path.join(d, name), "rb") as fh:
                h.update(fh.read())
        out[entry["id"]] = h.hexdigest()
    return out


def workload_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for sid in sorted(digests):
        h.update(f"{sid} {digests[sid]}\n".encode())
    return h.hexdigest()


def timed_passes(cli, plan, budget, tag, first, tracer=None):
    """Repeat passes while the next one is expected to fit the budget.

    `first` holds the first pass's CSV digests (None before it exists).
    A later pass keeps its outputs only where its bytes differ from the
    first pass, so that they can be checked too.
    """
    passes = []
    start = time.perf_counter()
    while True:
        outbase = os.path.join(plan["rundir"], "out", f"{tag}{len(passes)}")
        if tracer is not None:
            tracer.reset()
        p = run_pass(cli, plan, outbase, tracer)
        if tracer is not None:
            p["layers"] = tracer.layer_metrics(
                sum(rc != 0 for rc in p["rc"].values()))
            selfs = self_times(tracer.spans)
            p["closure_residual"] = closure_residual(tracer.spans, selfs)
            if not passes:
                p["spans"] = [s + [d] for s, d in zip(tracer.spans, selfs)]
        digests = csv_digests(outbase, plan)
        if first is None:
            first = digests
        p["outbase"] = outbase
        p["varied"] = [sid for sid in digests if digests[sid] != first[sid]]
        if digests is not first and not p["varied"]:
            shutil.rmtree(outbase)
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall"] for q in passes)
        if elapsed + typical > budget:
            return passes, first


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports (read from this process)."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[os.path.basename(path)] = int(getattr(lib, sym)())
                break
    return out


def cpu_caches() -> dict[str, str]:
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L2": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            key = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
            out[key] = size
    except OSError:
        pass
    return out


def git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    src = os.path.join(root, "src", "latticebounds")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\n" + fh.read())
    return h.hexdigest()


def run_facts(plan: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]

    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "caches": cpu_caches(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(plan["root"]),
            "src_sha256": source_digest(plan["root"]),
            "seed": plan["seed"]}


def summarize_layers(traced: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (they must repeat in every pass);
    times as the median over traced passes."""
    units = dict(metric_names())
    first = traced[0]["layers"]
    out, mismatched = {}, []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        vals = [p["layers"][name] for p in traced]
        if unit == "s":
            out[name] = statistics.median(vals)
        else:
            out[name] = first[name]
            if any(v != first[name] for v in vals):
                mismatched.append(name)
    return out, mismatched


def scenario_top(spans, k: int = 3) -> dict[str, list]:
    """The k layers with the most self time in each scenario."""
    per: dict[str, dict[str, float]] = {}
    for name, _, _, _, sid, self_s in spans:
        layer = per.setdefault(sid, {})
        layer[name] = layer.get(name, 0.0) + self_s
    return {sid: sorted(layer.items(), key=lambda kv: -kv[1])[:k]
            for sid, layer in per.items()}


def run_plan(cli, plan: dict) -> dict:
    budget = float(plan["seconds"])
    untraced, digests = timed_passes(
        cli, plan, budget / 2 if plan["trace"] else budget, "u", None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = timed_passes(cli, plan, budget / 2, "t", digests,
                                     tracer)
        finally:
            tracer.uninstall()
    # checks, off the clock: the first pass, and any later output whose
    # bytes differ from it
    first = untraced[0]
    entries = {e["id"]: e for e in plan["scenarios"]}

    def check(p, sid):
        return check_scenario(entries[sid], os.path.join(p["outbase"], sid),
                              p["rc"][sid], p["stdout"][sid])

    base = {sid: check(first, sid) for sid in entries}
    failures = [m for ms in base.values() for m in ms]
    attempted = failed = varied = 0
    for p in untraced + traced:
        for sid, rc in p["rc"].items():
            attempted += 1
            msgs = base[sid]
            if sid in p["varied"]:
                varied += 1
                msgs = check(p, sid)
                failures += [f"(repeat) {m}" for m in msgs]
            failed += bool(rc != 0 or msgs)
    result = {"walls": [p["wall"] for p in untraced],
              "scenario_s": {sid: statistics.median(
                  p["scenario_s"][sid] for p in untraced)
                  for sid in first["scenario_s"]},
              "rss_mb": rss_mb, "attempted": attempted, "failed": failed,
              "failures": failures, "digest_varied": varied,
              "csv_sha256": workload_digest(digests),
              "facts": run_facts(plan)}
    if traced:
        layers, mismatched = summarize_layers(traced)
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(result["walls"]))
        result.update(
            layers=layers, count_mismatch=mismatched,
            scenario_top=scenario_top(traced[0]["spans"]),
            traced_walls=[p["wall"] for p in traced],
            closure_residual=max(p["closure_residual"] for p in traced))
        with gzip.open(os.path.join(plan["rundir"], "spans.json.gz"),
                       "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "scenario", "self"],
                       "spans": traced[0].pop("spans")}, fh)
    shutil.rmtree(os.path.join(plan["rundir"], "out"))
    return result
