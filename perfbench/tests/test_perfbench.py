"""Tests of the benchmark itself: seeded configs, self-time arithmetic,
output checks that catch a corrupted CSV, and the metric declarations.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from checks import check_scenario  # noqa: E402
from runner import cli_argv  # noqa: E402
from spans import closure_residual, metric_names, self_times  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

from latticebounds import cli  # noqa: E402


def _tree(tmp_path, workload, seed, name):
    plan = write_configs(workload, seed, ROOT, str(tmp_path / name))
    return plan, {e["id"]: pathlib.Path(e["config"]).read_bytes()
                  for e in plan if e["config"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, workload):
    plan_a, a = _tree(tmp_path, workload, 7, "a")
    plan_b, b = _tree(tmp_path, workload, 7, "b")
    _, c = _tree(tmp_path, workload, 8, "c")
    assert a == b
    assert [e["id"] for e in plan_a] == [e["id"] for e in plan_b]
    assert a != c


def test_self_time_on_synthetic_span_tree():
    # root [0,10] with children A [1,4] and B [5,9]; A has a child [2,3];
    # C [8,12] overlaps B and runs past the root, so it is merged with B
    # and clipped to the root
    spans = [["root", 0.0, 10.0, -1, "s"],
             ["A", 1.0, 4.0, 0, "s"],
             ["A1", 2.0, 3.0, 1, "s"],
             ["B", 5.0, 9.0, 0, "s"],
             ["C", 8.0, 12.0, 0, "s"],
             ["other", 20.0, 21.5, -1, "t"]]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0, 1.5])
    nested = spans[:4] + spans[5:]
    assert closure_residual(nested, self_times(nested)) == pytest.approx(0.0)


def _flip_leading_digit(path):
    """Change the leading digit of the largest-magnitude float cell outside
    the first (input) column."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    best = None
    for i, line in enumerate(lines[1:], start=1):
        for j, cell in enumerate(line.split(",")):
            if j == 0 or not re.fullmatch(r"-?\d[\d.]*(e[-+]\d+)?", cell) or \
                    ("." not in cell and "e" not in cell):
                continue
            if best is None or abs(float(cell)) > best[0]:
                best = (abs(float(cell)), i, j)
    assert best is not None, f"no float cell in {path}"
    _, i, j = best
    cells = lines[i].split(",")
    k = 1 if cells[j].startswith("-") else 0
    d = int(cells[j][k])
    cells[j] = cells[j][:k] + str(d % 9 + 1) + cells[j][k + 1:]
    lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_flipped_digit_raises_failed_frac(tmp_path, workload):
    plan = write_configs(workload, 3, ROOT, str(tmp_path / "configs"))
    out = tmp_path / "out"
    stdout = {}
    for e in plan:
        argv = cli_argv(e, str(out / e["id"]))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        stdout[e["id"]] = buf.getvalue()
    for e in plan:
        assert check_scenario(e, str(out / e["id"]), 0, stdout[e["id"]]) == []
    # one corrupted copy per distinct (subcommand, CSV file); verify.csv
    # holds no recomputable number, its check reads the PASS column
    seen = set()
    for e in plan:
        for name in sorted(os.listdir(out / e["id"])):
            if not name.endswith(".csv") or name == "verify.csv" \
                    or (e["kind"], name) in seen:
                continue
            seen.add((e["kind"], name))
            bad = tmp_path / "bad" / f"{e['id']}-{name}"
            shutil.copytree(out / e["id"], bad)
            _flip_leading_digit(bad / name)
            failures = check_scenario(e, str(bad), 0, stdout[e["id"]])
            failed_frac = bool(failures) / len(plan)
            assert failed_frac > 0, f"flip in {e['id']}/{name} not caught"
    assert seen


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_workloads_match_the_generator():
    decl = _declared()
    assert [w["name"] for w in decl["workloads"]] == list(WORKLOADS)
    assert all(w["why"].strip() for w in decl["workloads"])
    assert [(m["name"], m["unit"]) for m in decl["per_layer"]] \
        == metric_names()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    decl = _declared()
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        decl["command"] + ["--workload", "clustering", "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    printed = {n: m["unit"] for n, m in last["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in decl[key]}
