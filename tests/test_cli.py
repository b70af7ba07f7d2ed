import contextlib
import copy
import io
import json
import math
import os
import pathlib
import random
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from latticebounds import focksim, genbounds, weyl
from latticebounds.cli import (_CSV_BLOCK, _PALETTE, EXIT_NUMERICAL,
                               EXIT_OK, EXIT_VALIDATION, ScenarioError, main,
                               write_csv, write_svg)
from latticebounds.torus import Couplings, TorusLattice


def scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


KERNELS = {
    "schema_version": 1, "model": "kernels",
    "lattice": {"nu": 1, "L": 8},
    "couplings": {"omega": 1.0, "lambda": [1.0]},
    "times": [0.5, 1.0], "m": [0, -1], "mu": 1.0,
}

CLUSTERING = {
    "schema_version": 1, "model": "clustering",
    "lattice": {"nu": 1, "L": 16},
    "couplings": {"omega": 2.0, "lambda": [1.0]},
    "mu": 1.0, "epsilon": 1.0,
}


def test_kernels_scenario_runs_and_is_deterministic(tmp_path):
    cfg = scenario(tmp_path, "k.json", KERNELS)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["kernels", "--config", cfg, "--out", str(out)]) \
            == EXIT_OK
        outs.append((out / "kernels.csv").read_bytes())
    assert outs[0] == outs[1]


def test_csv_values_round_trip_at_twelve_digits(tmp_path):
    cfg = scenario(tmp_path, "k.json", KERNELS)
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "kernels.csv").read_text().splitlines()
    assert lines[0] == "m,t,r,max_abs_value,envelope"
    for line in lines[1:]:
        for cell in line.split(","):
            v = float(cell)
            assert f"{v:.12g}" == cell or str(v) == cell


def test_write_csv_cell_contract(tmp_path):
    # the header is the keys; a float column, of Python floats or float64,
    # is written %.12g; integers and labels are written as text
    floats = [0.1 + 0.2, 1e300, -0.0, float("nan"), float("inf")]
    path = tmp_path / "t.csv"
    write_csv(str(path), {"py": floats, "np": np.array(floats),
                          "n": [1, -2, 0, 10 ** 12, 7],
                          "site": ["0 1", "-1 0", "2 2", "0 0", "1 1"]})
    assert path.read_text() == ("py,np,n,site\n"
                                "0.3,0.3,1,0 1\n"
                                "1e+300,1e+300,-2,-1 0\n"
                                "-0,-0,0,2 2\n"
                                "nan,nan,1000000000000,0 0\n"
                                "inf,inf,7,1 1\n")
    # an empty table keeps its header (the lightcone no-crossing front)
    write_csv(str(path), {"threshold": np.array([]), "r": []})
    assert path.read_text() == "threshold,r\n"


def _rowwise_csv(path, columns):
    """The row-at-a-time writer the blocked `write_csv` replaced, kept as
    its byte oracle."""
    cols = [np.asarray(c) for c in columns.values()]
    fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s"
                   for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % row for row in zip(*(c.tolist() for c in cols),
                                               strict=True))


def _pointwise_svg(path, series, xlabel, ylabel, logy=True, floor=1e-18):
    """The point-at-a-time writer the array `write_svg` replaced, kept as
    its byte oracle."""
    if not series:
        raise ScenarioError(f"refusing to write empty plot to {path}")
    W, H, ml, mr, mt, mb = 800, 500, 70, 160, 30, 50
    xs_all = [x for s in series for x in s["x"] if math.isfinite(x)] or [0.0]
    ys_all = [max(abs(y), floor) for s in series for y in s["y"]
              if math.isfinite(y)] or [floor]
    x0, x1 = min(xs_all), max(xs_all)
    if logy:
        y0 = math.floor(math.log10(min(ys_all)))
        y1 = math.ceil(math.log10(max(ys_all)))
    else:
        y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        v = math.log10(max(abs(y), floor)) if logy else y
        return H - mb - (v - y0) / (y1 - y0) * (H - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{H}" viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" '
             'stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" '
             'stroke="black"/>',
             f'<text x="{(W - mr + ml) / 2:.1f}" y="{H - 10}" '
             f'text-anchor="middle" font-size="14">{xlabel}</text>',
             f'<text x="18" y="{(H - mb + mt) / 2:.1f}" font-size="14" '
             f'transform="rotate(-90 18 {(H - mb + mt) / 2:.1f})" '
             f'text-anchor="middle">{ylabel}</text>']
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(s["x"], s["y"])
                       if math.isfinite(x) and math.isfinite(y))
        dash = ' stroke-dasharray="6,4"' if "envelope" in s["name"] else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{W - mr + 8}" y="{mt + 16 * (i + 1)}" '
                     f'font-size="12" fill="{color}">{s["name"]}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# %.12g switches to exponent notation below 1e-4 and from 1e12, after
# rounding to 12 digits: 9.999999999995e-05 prints 0.0001 and
# 999999999999.5 prints 1e+12
SWITCHES = [1e-5, 9.99999999999e-5, 9.999999999995e-5, 1e-4, 1.00000000001e-4,
            99999999999.95, 1e11, 999999999999.4, 999999999999.5, 1e12,
            1.00000000001e12]
SPECIALS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
            -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def _tables():
    rng = np.random.default_rng(11)
    cells = SWITCHES + [-v for v in SWITCHES] + SPECIALS
    yield "cells", {"py": cells, "np": np.array(cells),
                    "n": np.arange(len(cells)) * 10 ** 12 // (len(cells) - 1),
                    "flag": np.arange(len(cells)) % 3 == 0,
                    "site": [f"{i} {-i}" for i in range(len(cells))]}
    yield "empty", {"threshold": np.array([]), "r": [], "label": []}
    yield "no columns", {}
    for n in (_CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 300, n)
        yield f"{n} rows", {
            "t": np.repeat(rng.uniform(0, 5, n // 7 + 1), 7)[:n],
            "r": rng.integers(-10 ** 12, 10 ** 12, n), "value": x,
            "py": x[::-1].tolist(), "passed": rng.integers(0, 2, n) == 1,
            "check": [f"c{i}" for i in range(n)]}


@pytest.mark.parametrize("name, columns", list(_tables()),
                         ids=[name for name, _ in _tables()])
def test_write_csv_matches_the_row_by_row_oracle(tmp_path, name, columns):
    write_csv(str(tmp_path / "a.csv"), columns)
    _rowwise_csv(str(tmp_path / "b.csv"), columns)
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_write_csv_holds_one_block_of_rows(tmp_path):
    # 2^17 rows of 4 float64 columns are 4 MiB as arrays; the row-at-a-time
    # writer peaked at 16 MiB holding every cell as a Python float
    rng = np.random.default_rng(3)
    columns = {k: rng.standard_normal(2 ** 17) for k in "abcd"}
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "big.csv"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_write_csv_names_the_lengths_of_ragged_columns(tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError, match="r.csv: columns differ in length: "
                                         "t 3, r 2, norm 3"):
        write_csv(str(path), {"t": [0.1, 0.2, 0.3], "r": np.arange(2),
                              "norm": np.zeros(3)})
    assert not path.exists()


def test_ragged_table_from_a_command_exits_1_with_one_line(tmp_path,
                                                          monkeypatch):
    def short(f, g, times, p, form):
        return [1.0] * (len(times) - 1)
    monkeypatch.setattr(weyl, "harmonic_bound_rhs", short)
    cfg = scenario(tmp_path, "c.json", REFS["commutator"])
    rc, err = run_cli(["commutator", "--config", cfg, "--out",
                       str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert len(err) == 1 and "columns differ in length" in err[0], err


def _plots():
    rng = np.random.default_rng(5)
    nan, inf = float("nan"), float("inf")
    decay = np.exp(-rng.uniform(0, 40, 200).cumsum() / 20)
    yield "log decay", {}, [
        {"name": "|H^(0)| t=1", "x": list(range(200)), "y": decay},
        {"name": "envelope m=0 t=1", "x": np.arange(200.0),
         "y": (3 * decay).tolist()}]
    yield "non-finite", {}, [
        {"name": "all nan", "x": [nan, nan], "y": [1.0, 2.0]},
        {"name": "unreached", "x": [0.5, inf, 1.5, nan], "y": [1, 2, 3, 4]},
        {"name": "nan y", "x": [0.0, 1.0, 2.0], "y": [nan, 1e-3, -inf]}]
    yield "nothing finite", {}, [{"name": "a", "x": [nan], "y": [inf]},
                                 {"name": "b", "x": [], "y": []}]
    yield "one point", {}, [{"name": "p", "x": [2.5], "y": [0.125]}]
    yield "x1 == x0", {}, [{"name": "a", "x": [3, 3], "y": [1e-3, 1e2]},
                           {"name": "b", "x": [3.0], "y": [7.0]}]
    yield "linear", {"logy": False}, [
        {"name": "arrival theta=0.001", "x": rng.uniform(0, 9, 30).tolist(),
         "y": list(range(1, 31))},
        {"name": "arrival theta=0.1", "x": [nan, 1.0, 2.5],
         "y": [1, 2, 3]}]
    yield "at the floor", {"floor": 1e-6}, [
        {"name": "exact_norm", "x": [0.0, 0.5, 1.0, 1.5, 2.0],
         "y": [0.0, 1e-9, 1e-6, 5e-7, 2e-3]}]
    yield "negative y", {}, [
        {"name": "signed", "x": [0.0, 1.0, 2.0, 3.0],
         "y": [-2e-3, 4e-5, -0.0, -1e-30]}]
    yield "negative y, linear", {"logy": False}, [
        {"name": "signed", "x": [0.0, 1.0, 2.0], "y": [-3.5, 0.25, -0.5]}]


@pytest.mark.parametrize("name, kw, series", list(_plots()),
                         ids=[name for name, _, _ in _plots()])
def test_write_svg_matches_the_point_by_point_oracle(tmp_path, name, kw,
                                                     series):
    write_svg(str(tmp_path / "a.svg"), series, "x", "y", **kw)
    _pointwise_svg(str(tmp_path / "b.svg"), series, "x", "y", **kw)
    assert (tmp_path / "a.svg").read_bytes() == \
        (tmp_path / "b.svg").read_bytes()


def test_write_svg_refuses_a_series_of_unequal_lengths(tmp_path):
    path = tmp_path / "s.svg"
    with pytest.raises(ValueError, match="s.svg: series 'a' has 3 x and 2 y"):
        write_svg(str(path), [{"name": "a", "x": [0.0, 1.0, 2.0],
                               "y": [1.0, 2.0]}], "x", "y")
    assert not path.exists()


def test_svg_has_one_polyline_per_series(tmp_path):
    cfg = scenario(tmp_path, "c.json", CLUSTERING)
    out = tmp_path / "out"
    assert main(["clustering", "--config", cfg, "--out", str(out)]) \
        == EXIT_OK
    svg = (out / "clustering.svg").read_text()
    assert svg.count("<polyline") == 2  # data + envelope
    assert svg.count("stroke-dasharray") == 1  # the envelope is dashed
    fit = (out / "clustering_fit.csv").read_text().splitlines()
    assert fit[0].split(",")[3] == "dominated"
    assert fit[1].split(",")[3] == "1"


def test_unknown_key_is_a_validation_error(tmp_path):
    bad = dict(KERNELS, typo_key=1)
    cfg = scenario(tmp_path, "bad.json", bad)
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_VALIDATION


def test_schema_and_model_mismatches(tmp_path):
    wrong_schema = dict(KERNELS, schema_version=2)
    cfg = scenario(tmp_path, "s.json", wrong_schema)
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_VALIDATION
    cfg = scenario(tmp_path, "m.json", KERNELS)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_VALIDATION


def test_missing_config(tmp_path):
    assert main(["kernels", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["kernels", "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_deeply_nested_config_exits_1_with_one_line(tmp_path):
    # json.load raises RecursionError, a RuntimeError, past the recursion
    # limit; json.dump cannot write such a file, so it is written as text
    path = tmp_path / "deep.json"
    text = json.dumps(dict(KERNELS, lattice="DEEP"))
    path.write_text(text.replace('"DEEP"', "[" * 5000 + "]" * 5000))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["kernels", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "cannot read scenario" in lines[0]


def test_anharm_rejects_mu_below_one(tmp_path):
    cfg = scenario(tmp_path, "a.json", {
        "schema_version": 1, "model": "anharm",
        "lattice": {"nu": 1, "L": 8},
        "couplings": {"omega": 1.0, "lambda": [1.0]},
        "mu": 0.5, "epsilon": 1.0,
        "f": [{"site": [0], "re": 1.0}],
        "g": [{"site": [4], "re": 1.0}],
        "times": [0.1],
    })
    assert main(["anharm", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_VALIDATION


def test_focksim_gate_failure_is_a_numerical_error(tmp_path):
    cfg = scenario(tmp_path, "f.json", {
        "schema_version": 1, "model": "focksim",
        "n_sites": 2, "trunc": 3,
        "couplings": {"omega": 1.0, "lambda": [1.0]},
        "f": [[1.0, 0.0], [0.0, 0.0]],
        "g": [[0.0, 0.0], [1.0, 0.0]],
        "times": [0.5], "n_low": 2,
        "gate": {"dn": 4, "tol": 1e-6},
    })
    assert main(["focksim", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_NUMERICAL


def test_focksim_refuses_a_bad_gate_before_the_oracle_runs(tmp_path,
                                                           monkeypatch):
    def never(self):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(focksim.FockSystem, "hamiltonian", never)
    for gate in ({"dn": 0}, {"tol": 0.0}):
        cfg = scenario(tmp_path, "f.json", mutated("focksim", ("gate",), gate))
        rc, err = run_cli(["focksim", "--config", cfg, "--out",
                           str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert len(err) == 1 and "the gate needs dn >= 1" in err[0], err


def test_focksim_scenario_writes_tables(tmp_path):
    cfg = scenario(tmp_path, "f.json", {
        "schema_version": 1, "model": "focksim",
        "n_sites": 2, "trunc": 12,
        "couplings": {"omega": 1.0, "lambda": [1.0]},
        "f": [[0.0, 1.0], [0.0, 0.0]],
        "g": [[0.0, 0.0], [0.0, 1.0]],
        "times": [0.02, 0.05], "n_low": 4,
    })
    out = tmp_path / "out"
    assert main(["focksim", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "focksim.csv").exists()
    assert (out / "focksim_fit.csv").exists()


def test_one_site_bond_potential_is_not_held_to_the_bond_budget(tmp_path):
    # one site has no bond, so no trunc^2 x trunc^2 table is built:
    # trunc 64 (and the gate's 68) is well past the two-site budget; one
    # site holds no disjoint nonzero f and g, so g is 0
    cfg = scenario(tmp_path, "f.json", mutated("focksim", (), {
        "n_sites": 1, "trunc": 64, "perturbation": BOND,
        "f": [[1.0, 0.0]], "g": [[0.0, 0.0]]}))
    rc, err = run_cli(["focksim", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK, err
    assert (tmp_path / "focksim.csv").exists()


MATRIX_FREE_FOCKSIM = {
    "schema_version": 1, "model": "focksim",
    "n_sites": 3, "trunc": 13,
    "couplings": {"omega": 1.0, "lambda": [0.62]},
    "perturbation": {"type": "gaussian", "alpha": 0.15, "tag": "site"},
    "f": [[0.45, 0.05], [0.0, 0.0], [0.0, 0.0]],
    "g": [[0.0, 0.0], [0.5, -0.04], [0.0, 0.0]],
    "times": [0.05, 0.1], "n_low": 4,
}


def test_matrix_free_focksim_is_reproducible(tmp_path):
    # dim 13^3 = 2197 is above DENSE_EIG_DIM: ARPACK basis and Chebyshev
    # propagation, run twice in one process
    cfg = scenario(tmp_path, "f.json", MATRIX_FREE_FOCKSIM)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["focksim", "--config", cfg, "--out", str(out)]) \
            == EXIT_OK
    for name in ("focksim.csv", "focksim_fit.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_focksim_past_the_chebyshev_term_cap_exits_1_with_one_line(
        tmp_path):
    # the sweep to t = 1e5 would need about a t = 2e7 terms
    cfg = scenario(tmp_path, "f.json",
                   dict(MATRIX_FREE_FOCKSIM, times=[1e5]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["focksim", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: focksim:"), lines
    assert "Chebyshev terms (a max|t| = " in lines[0]


def test_verify_battery_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 8
    rows = (tmp_path / "verify.csv").read_text().splitlines()
    assert rows[0] == "check,passed,err,tol" and len(rows) == len(lines) + 1
    for line, row in zip(lines, rows[1:]):
        name, status, err, tol = line.split()
        assert status == "PASS" and row.startswith(f"{name},1,")
        assert err.startswith("err=") and tol.startswith("tol=")
        float(err[4:]), float(tol[4:])


def test_verify_seed_with_coinciding_draws(tmp_path):
    # drawn with replacement, seed 11 gives two equal points for the
    # decay-constant check
    assert main(["verify", "--seed", "11", "--out", str(tmp_path)]) == EXIT_OK


# ------------------------------------------------ the exit-code contract

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
REFS = {p.name[:-len("_ref.json")]: json.loads(p.read_text())
        for p in sorted(SCENARIOS.glob("*_ref.json"))}


def run_cli(argv):
    """(rc, stderr lines) of an in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def mutated(model, path, value):
    """The reference config of model with value at the key path; the empty
    path merges a dict of top-level keys."""
    cfg = copy.deepcopy(REFS[model])
    if not path:
        return {**cfg, **value}
    obj = cfg
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return cfg


INF, NAN = float("inf"), float("nan")
BOND = {"type": "gaussian", "alpha": 0.1, "tag": "bond"}
MALFORMED = [
    # tracebacks before the typed reader
    ("kernels", ("times",), [0, INF]),
    ("kernels", ("mu",), "abc"),
    ("genbound", ("normA",), "x"),
    ("focksim", ("gate",), {"dn": "x"}),
    ("focksim", ("f", 0), [1.0]),
    ("genbound", ("X",), [99]),
    ("lightcone", ("thresholds",), [5.0]),
    ("lightcone", ("thresholds",), ["x"]),
    # ran to exit 0 on coerced or meaningless values
    ("kernels", ("lattice", "nu"), True),
    ("kernels", ("lattice", "L"), 2.7),
    ("focksim", ("n_sites",), 2.5),
    ("kernels", ("m",), [0.0]),
    ("anharm", ("z_limit",), "no"),
    ("focksim", ("n_low",), 0),
    ("genbound", ("X",), [-1]),
    ("focksim", ("gate",), {"dn": 0}),
    ("evolve", ("zero_omega",), False),
    ("focksim", ("n_low",), 255),
    # exit 1 before as well
    ("kernels", ("times",), [0.5, NAN]),
    ("kernels", ("couplings", "lambda"), ["x"]),
    ("kernels", ("couplings", "omega"), None),
    ("genbound", ("terms",), 5),
    # exit 2 before, as a failed truncation gate
    ("focksim", ("gate",), {"dn": -4}),
    ("focksim", ("gate",), {"tol": 0.0}),
    # a bond potential's trunc^2 x trunc^2 table over the budget, at trunc
    # and at the gate's trunc + dn
    ("focksim", (), {"trunc": 144, "perturbation": BOND}),
    ("focksim", (), {"trunc": 30, "perturbation": BOND}),
]


@pytest.mark.parametrize("model,path,value", MALFORMED,
                         ids=[f"{m}-{'.'.join(map(str, p))}={v!r}"
                              for m, p, v in MALFORMED])
def test_malformed_config_exits_1_with_one_line(tmp_path, model, path,
                                                 value):
    cfg = scenario(tmp_path, "bad.json", mutated(model, path, value))
    rc, err = run_cli([model, "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert len(err) == 1 and err[0].startswith("error:"), err


ARGV_MUTATIONS = [["verify", "--seed", "abc"], ["verify", "--threads", "x"],
                  ["bogus"], [], ["verify", "--stray"]]


@pytest.mark.parametrize("argv", ARGV_MUTATIONS, ids=" ".join)
def test_usage_error_exits_1_with_one_line(argv):
    rc, err = run_cli(argv)
    assert rc == EXIT_VALIDATION
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


def test_existing_file_as_out_exits_1_with_one_line(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    rc, err = run_cli(["kernels", "--config", str(SCENARIOS / "kernels_ref.json"),
                       "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_front_svg_leaves_unreached_distances_out(tmp_path):
    cfg = copy.deepcopy(REFS["lightcone"])
    cfg["times"] = cfg["times"][:40]  # the front stops short of the edge
    path = scenario(tmp_path, "l.json", cfg)
    assert run_cli(["lightcone", "--config", path,
                    "--out", str(tmp_path)])[0] == EXIT_OK
    svg = (tmp_path / "front.svg").read_text()
    assert "nan" not in svg and svg.count("<polyline") == 3
    # a threshold that is never crossed plots an empty polyline, and
    # leaves the plot range to the others
    cfg["thresholds"] = [1.9, 1e-2]
    path = scenario(tmp_path, "l.json", cfg)
    assert run_cli(["lightcone", "--config", path,
                    "--out", str(tmp_path)])[0] == EXIT_OK
    svg = (tmp_path / "front.svg").read_text()
    assert "nan" not in svg and svg.count('<polyline points=""') == 1


def test_lightcone_with_no_crossing_writes_an_empty_front(tmp_path):
    # no front inside the time grid is an outcome, not rejected input
    path = scenario(tmp_path, "l.json",
                    dict(REFS["lightcone"], thresholds=[1.5, 1.9]))
    assert run_cli(["lightcone", "--config", path,
                    "--out", str(tmp_path)]) == (EXIT_OK, [])
    assert (tmp_path / "front.csv").read_text() == \
        "threshold,r,arrival_t,fitted_velocity,velocity_bound\n"
    svg = (tmp_path / "front.svg").read_text()
    assert svg.count("<polyline") == svg.count('<polyline points=""') == 2


def test_commutator_svg_does_not_plot_round_off(tmp_path, monkeypatch):
    # exact norms far below the bound are round-off-sized: 2.7e-15 at the
    # reference's first time, ~1e-17 throughout at distance 30
    far = dict(REFS["commutator"], lattice={"nu": 1, "L": 32},
               g=[{"site": [30], "re": 1.0}], times=[0.1, 0.2, 0.3])
    exact = weyl.commutator_norm_exact
    for cfg in (REFS["commutator"], far):
        path = scenario(tmp_path, "c.json", cfg)
        svgs = []
        for shift in (0.0, 1e-15):
            monkeypatch.setattr(weyl, "commutator_norm_exact",
                                lambda *a, s=shift, **k: exact(*a, **k) + s)
            out = tmp_path / str(shift)
            assert run_cli(["commutator", "--config", path,
                            "--out", str(out)])[0] == EXIT_OK
            svgs.append((out / "commutator.svg").read_bytes())
        assert svgs[0] == svgs[1]


def test_seed_is_for_verify_only(tmp_path):
    cfg = scenario(tmp_path, "k.json", KERNELS)
    assert run_cli(["kernels", "--config", cfg, "--seed", "3",
                    "--out", str(tmp_path)])[0] == EXIT_VALIDATION
    seeded = scenario(tmp_path, "v.json", {"seed": 11})
    assert run_cli(["verify", "--config", seeded,
                    "--out", str(tmp_path)])[0] == EXIT_VALIDATION
    assert run_cli(["kernels", "--config",
                    scenario(tmp_path, "s.json", dict(KERNELS, seed=3)),
                    "--out", str(tmp_path)])[0] == EXIT_VALIDATION


def test_lattice_above_the_site_budget_is_refused_at_once(tmp_path):
    cfg = scenario(tmp_path, "big.json",
                   dict(KERNELS, lattice={"nu": 3, "L": 1000000},
                        couplings={"omega": 1.0, "lambda": [1.0] * 3}))
    t0 = time.perf_counter()
    rc, err = run_cli(["kernels", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and "budget" in err[0]
    assert time.perf_counter() - t0 < 0.5


def test_genbound_above_the_site_budget_is_refused_at_once(tmp_path):
    # 1025^2 > MAX_SITES entries in the metric table
    cfg = scenario(tmp_path, "chain.json",
                   dict(REFS["genbound"], points=[[x] for x in range(1025)]))
    t0 = time.perf_counter()
    rc, err = run_cli(["genbound", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and len(err) == 1 and "budget" in err[0]
    assert time.perf_counter() - t0 < 0.5


def test_genbound_points_never_reach_the_triangle_scan(tmp_path,
                                                      monkeypatch):
    # the l1 metric of points is a metric by construction, so neither
    # genbound nor verify scans it; the same table given as a metric is
    # scanned and gives the same bytes
    def scan(self):
        raise AssertionError("triangle scan of an l1 metric")

    monkeypatch.setattr(genbounds.InteractionGraph, "_check_triangle", scan)
    ref = REFS["genbound"]
    cfg = scenario(tmp_path, "points.json", ref)
    assert run_cli(["genbound", "--config", cfg,
                    "--out", str(tmp_path / "p")]) == (EXIT_OK, [])
    assert run_cli(["verify", "--out", str(tmp_path / "v")]) == (EXIT_OK, [])
    monkeypatch.undo()
    metric = genbounds.l1_metric(ref["points"]).tolist()
    cfg = scenario(tmp_path, "metric.json",
                   dict({k: v for k, v in ref.items() if k != "points"},
                        metric=metric))
    assert run_cli(["genbound", "--config", cfg,
                    "--out", str(tmp_path / "m")]) == (EXIT_OK, [])
    assert ((tmp_path / "p" / "genbound.csv").read_bytes()
            == (tmp_path / "m" / "genbound.csv").read_bytes())


def test_genbound_metric_breaking_the_triangle_inequality_exits_1(tmp_path):
    cfg = scenario(tmp_path, "tri.json", {
        "schema_version": 1, "model": "genbound",
        "metric": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        "terms": [{"sites": [0, 1], "norm": 1.0}],
        "decay": {"exponent": 2, "a": 0.5}, "X": [0], "Y": [2],
        "forms": ["theorem"], "times": [0.5]})
    rc, err = run_cli(["genbound", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and len(err) == 1
    assert "triangle inequality" in err[0]
    assert not (tmp_path / "genbound.csv").exists()


@pytest.mark.parametrize("model", ["commutator", "anharm"])
def test_support_pairs_above_the_budget_are_refused_at_once(tmp_path, model):
    # 1025 x 1024 > MAX_SITES support pairs on a 2200-site chain
    cfg = scenario(tmp_path, "pairs.json", dict(
        REFS[model], lattice={"nu": 1, "L": 1100},
        f=[{"site": [x], "re": 1.0} for x in range(1025)],
        g=[{"site": [-x], "im": 1.0} for x in range(1, 1025)]))
    t0 = time.perf_counter()
    rc, err = run_cli([model, "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and len(err) == 1 and "budget" in err[0]
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.filterwarnings("error")
def test_genbound_weight_underflow_exits_1_with_one_line(tmp_path):
    # e^(-0.5 * 2000) underflows to 0, which would make C_a = 0/0 = nan
    cfg = scenario(tmp_path, "far.json", {
        "schema_version": 1, "model": "genbound",
        "metric": [[0, 2000], [2000, 0]],
        "terms": [{"sites": [0, 1], "norm": 1.0}],
        "decay": {"exponent": 2, "a": 0.5}, "X": [0], "Y": [1],
        "forms": ["theorem", "corollary"], "times": [0.5, 1.0]})
    rc, err = run_cli(["genbound", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and len(err) == 1
    assert "not positive" in err[0]
    assert not (tmp_path / "genbound.csv").exists()


# the README's columns that may hold a non-finite cell, and the cells allowed
NONFINITE_OK = {("commutator.csv", "bound_corollary"): {"nan"},
                ("focksim.csv", "norm_refined"): {"nan"},
                ("focksim_fit.csv", "fitted_slope"): {"nan"},
                ("focksim_fit.csv", "fit_residual_rel"): {"nan"},
                ("front.csv", "fitted_velocity"): {"nan"},
                ("clustering_fit.csv", "fitted_xi"): {"nan", "inf"}}


def nonfinite_cells(outdir):
    """(file, column, cell) for every non-finite number in the CSVs under
    outdir outside the columns of NONFINITE_OK."""
    found = []
    for path in sorted(pathlib.Path(outdir).glob("*.csv")):
        header, *rows = [line.split(",") for line in
                         path.read_text().splitlines()]
        for row in rows:
            for column, cell in zip(header, row):
                try:
                    finite = np.isfinite(float(cell))
                except ValueError:  # a label
                    continue
                if not finite and cell not in NONFINITE_OK.get(
                        (path.name, column), ()):
                    found.append((path.name, column, cell))
    return found


# one value of a reference scenario changed so that a bound, a velocity or
# a constant no longer fits in a float
OUT_OF_RANGE = [("anharm", ("mu",), 1500), ("kernels", ("mu",), 1500),
                ("genbound", ("times",), [1e3, 2e3]),
                ("anharm", ("epsilon",), 1e-300),
                ("clustering", ("epsilon",), 1e-300)]


@pytest.mark.parametrize("model,path,value", OUT_OF_RANGE,
                         ids=[f"{m}-{'.'.join(p)}={v!r}"
                              for m, p, v in OUT_OF_RANGE])
def test_bound_outside_the_float_range_exits_1_with_one_line(
        tmp_path, model, path, value):
    cfg = scenario(tmp_path, "big.json", mutated(model, path, value))
    out = tmp_path / "out"
    rc, err = run_cli([model, "--config", cfg, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "fit in a float" in err[0], err
    assert nonfinite_cells(out) == []


def test_runtime_warning_exits_2_with_one_line(tmp_path):
    # alpha = 1e308 makes the Fock spectrum inf, and its phases nan
    cfg = mutated("focksim", ("perturbation", "alpha"), 1e308)
    del cfg["gate"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")  # as in a fresh process: warn, go on
        before = list(warnings.filters)
        rc, err = run_cli(["focksim", "--config", scenario(
            tmp_path, "huge.json", cfg), "--out", str(tmp_path)])
        assert warnings.filters == before
    assert (rc, len(err), seen) == (EXIT_NUMERICAL, 1, []), err
    assert err[0].startswith("numerical failure: focksim: "), err


def test_underflowing_omega_exits_1_in_clustering(tmp_path):
    # gamma(0) underflows to 0 at omega = 1e-300: refused, no CSV written
    cfg = scenario(tmp_path, "tiny.json",
                   mutated("clustering", ("couplings", "omega"), 1e-300))
    rc, err = run_cli(["clustering", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION and len(err) == 1, err
    assert err[0].startswith("error: clustering: ") and "gamma" in err[0]
    assert list(tmp_path.glob("*.csv")) == []


def test_bound_inside_the_float_range_exits_0_with_finite_cells(tmp_path):
    # sum over Z of e^(-b|z|) ~ 2/b fits, although 1 - e^(-b) rounds to 0
    cfg = scenario(tmp_path, "small.json",
                   mutated("commutator", ("mu",), 1e-20))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc, err = run_cli(["commutator", "--config", cfg, "--out", str(out)])
    assert (rc, err, seen) == (EXIT_OK, [], [])
    assert nonfinite_cells(out) == []


def test_commutator_and_evolve_run_at_omega_zero(tmp_path):
    # the k = 0 mode is a free particle, derived from omega alone
    rc, err = run_cli(["commutator", "--config", scenario(
        tmp_path, "c.json", mutated("commutator", ("couplings", "omega"),
                                    0.0)), "--out", str(tmp_path / "c")])
    assert (rc, err) == (EXIT_OK, [])
    header, *rows = [line.split(",") for line in
                     (tmp_path / "c" / "commutator.csv").read_text()
                     .splitlines()]
    table = np.array(rows, dtype=float)
    exact = table[:, header.index("exact_norm")]
    assert len(exact) == 50 and np.max(exact) > 1e-3
    for bound in ("bound_theorem", "bound_corollary"):
        assert np.all(exact <= table[:, header.index(bound)] + 1e-12)
    cfg = mutated("evolve", ("couplings", "omega"), 0.0)
    rc, err = run_cli(["evolve", "--config", scenario(tmp_path, "e.json", cfg),
                       "--out", str(tmp_path / "e")])
    assert (rc, err) == (EXIT_OK, [])
    lat = TorusLattice(cfg["lattice"]["nu"], cfg["lattice"]["L"])
    f = weyl.WeylFunction.from_sites(
        lat, [(e["site"], e["re"] + 1j * e["im"]) for e in cfg["f"]])
    c = Couplings(0.0, tuple(cfg["couplings"]["lambda"]))
    expect = [f"{z.real:.12g},{z.imag:.12g}" for t in cfg["times"]
              for z in weyl.evolve(f, t, c).values.tolist()]
    lines = (tmp_path / "e" / "evolve.csv").read_text().splitlines()[1:]
    assert [line.split(",", 2)[2] for line in lines] == expect  # re_f,im_f


def test_anharm_corollary_on_z6_uses_the_true_zeta_sum(tmp_path):
    # C_6 zeta_6 with zeta_6 = 1.2253854190516496957 (see test_genbounds)
    cfg = copy.deepcopy(REFS["anharm"])
    cfg.update(lattice={"nu": 6, "L": 1},
               couplings={"omega": 1.0, "lambda": [0.1] * 6},
               f=[{"site": [0] * 6, "re": 1.0, "im": 0.0}],
               g=[{"site": [1] * 6, "re": 1.0, "im": 0.0}], times=[1e-6])
    out = tmp_path / "out"
    rc, _ = run_cli(["anharm", "--config", scenario(tmp_path, "z6.json", cfg),
                     "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "anharm.csv").read_text().splitlines()
    assert "corollary,1e-06,132.720369334" in rows


MENU = [None, True, "abc", -1, 0, 2.7, NAN, INF, 1e300, [], {}, 10 ** 7]


def _paths(obj, prefix=()):
    """(path, is_leaf, in_object) for every node below obj."""
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        path = prefix + (key,)
        yield path, not isinstance(val, (dict, list)), isinstance(obj, dict)
        yield from _paths(val, path)


def mutation(rng: random.Random):
    """A reference scenario with one leaf set from MENU or one key
    deleted."""
    model = rng.choice(sorted(REFS))
    cfg = copy.deepcopy(REFS[model])
    nodes = list(_paths(cfg))
    if rng.random() < 0.5:
        path = rng.choice([p for p, leaf, _ in nodes if leaf])
        return model, mutated(model, path, rng.choice(MENU))
    path = rng.choice([p for p, _, in_obj in nodes if in_obj])
    obj = cfg
    for key in path[:-1]:
        obj = obj[key]
    del obj[path[-1]]
    return model, cfg


def assert_exit_code_contract(rc, err, case):
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), case
    assert not any("Traceback" in line for line in err), case
    if rc != EXIT_OK:
        assert sum(line.startswith(("error:", "numerical failure:"))
                   for line in err) == 1, (case, err)


# The mutation tests draw from a seeded random.Random, not Hypothesis:
# Hypothesis mixes constants from every imported local module into its
# draws, so its "derandomized" examples change with what else a session
# collects.


def test_mutated_scenarios_keep_the_exit_code_contract():
    rng = random.Random(0)
    for _ in range(500):
        model, cfg = mutation(rng)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            rc, err = run_cli([model, "--config", path, "--out", out])
            # exit 0 means finite numbers outside the README's columns
            cells = nonfinite_cells(out) if rc == EXIT_OK else []
        assert_exit_code_contract(rc, err, (model, cfg))
        assert cells == [], (model, cfg, cells)


# argv mutations, each of which must be refused before a config is
# read; "{file}" is an existing file
ARGV_ERRORS = [["--seed", "abc"], ["--threads", "x"], ["--stray"],
               ["--out", "{file}"], ["bogus"], ["--seed", "7"],
               ["--config"], ["--seed"]]


def test_mutated_argv_keeps_the_exit_code_contract():
    """A run's command line with an unknown command or appended argv
    errors. An argv error stops a run before its config is read, so
    these are drawn apart from the config mutations above."""
    rng = random.Random(0)
    for _ in range(60):
        command = rng.choice(sorted([*REFS, "verify", "bogus"]))
        extras = [rng.choice(ARGV_ERRORS) for _ in range(rng.randint(1, 3))]
        with tempfile.TemporaryDirectory() as out:
            taken = os.path.join(out, "taken")
            open(taken, "w").close()
            config = str(SCENARIOS / "kernels_ref.json")
            argv = [command, "--config", config, "--out", out]
            for extra in extras:
                argv += [a.format(file=taken) for a in extra]
            rc, err = run_cli(argv)
        assert rc == EXIT_VALIDATION, argv
        assert_exit_code_contract(rc, err, argv)
