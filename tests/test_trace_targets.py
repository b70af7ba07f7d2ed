"""The benchmark's span tracer (perfbench/spans.py) wraps library names by
string.  A renamed or deleted layer breaks only a traced benchmark run, so
these tests resolve every traced name and install the tracer once."""

import importlib
import importlib.util
import json
import pathlib

import numpy as np

from latticebounds import cli, focksim
from latticebounds.torus import Couplings

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(mod, path):
    obj = importlib.import_module(f"latticebounds.{mod}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj.__init__ if isinstance(obj, type) else obj


def test_every_traced_name_resolves():
    for mod, path in _spans().TARGETS:
        assert callable(_resolve(mod, path)), f"{mod}.{path}"


def test_tracer_records_every_fock_layer_and_uninstalls(monkeypatch):
    spans = _spans()
    before = {t: _resolve(*t) for t in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        c = Couplings(1.0, (0.5,))
        f = np.array([0.4, 0.0, 0.0])
        g = np.array([0.0, 0.4j, 0.0])
        # module attributes, which the tracer wraps
        dense = focksim.FockSystem(3, 4, c)
        dense.apply_h(np.ones(dense.dim))
        front = focksim.commutator_front(dense, f, g, [0.1], n_low=4)
        monkeypatch.setattr(focksim, "DENSE_EIG_DIM", 10)
        # the refined system (trunc 5, dim 125) runs matrix-free
        focksim.truncation_gate(dense, f, g, [0.1], front.norms, dn=1,
                                n_low=4)
    finally:
        tracer.uninstall()
    assert {t: _resolve(*t) for t in spans.TARGETS} == before
    recorded = {s[0] for s in tracer.spans}
    fock = {f"{m}.{p}" for m, p in spans.TARGETS if m == "focksim"}
    assert fock <= recorded, sorted(fock - recorded)
    assert tracer.counters["focksim.FockSystem.apply_h.cols"] == 1


def test_tracer_sees_the_cli_dispatch(tmp_path):
    # the tracer swaps module globals and module-level dict values only, so
    # a handler reached any other way would drop out of a traced run
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "model": "kernels",
        "lattice": {"nu": 1, "L": 4},
        "couplings": {"omega": 1.0, "lambda": [1.0]},
        "times": [0.5], "m": [0]}))
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["kernels", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    recorded = {s[0] for s in tracer.spans}
    want = {"cli.load_scenario", "cli.cmd_kernels", "cli.write_csv",
            "cli.write_svg"}
    assert want <= recorded, sorted(want - recorded)
    # the counter reads write_csv's first positional argument as the path
    assert tracer.counters["cli.write_csv.bytes"] == \
        (tmp_path / "kernels.csv").stat().st_size
