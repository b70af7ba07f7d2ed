import json

import pytest

from latticebounds.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                               ScenarioError, main, write_csv)


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


def test_matrix_free_focksim_is_reproducible(tmp_path):
    # dim 13^3 = 2197 is above DENSE_EIG_DIM: ARPACK basis and Krylov
    # propagation, run twice in one process
    cfg = scenario(tmp_path, "f.json", {
        "schema_version": 1, "model": "focksim",
        "n_sites": 3, "trunc": 13,
        "couplings": {"omega": 1.0, "lambda": [0.62]},
        "perturbation": {"type": "gaussian", "alpha": 0.15, "tag": "site"},
        "f": [[0.45, 0.05], [0.0, 0.0], [0.0, 0.0]],
        "g": [[0.0, 0.0], [0.5, -0.04], [0.0, 0.0]],
        "times": [0.05, 0.1], "n_low": 4,
    })
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["focksim", "--config", cfg, "--out", str(out)]) \
            == EXIT_OK
    for name in ("focksim.csv", "focksim_fit.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_verify_battery_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 8
    assert all("PASS" in line for line in lines)
    assert (tmp_path / "verify.csv").exists()


def test_verify_seed_with_coinciding_draws(tmp_path):
    # drawn with replacement, seed 11 gives two equal points for the
    # decay-constant check
    assert main(["verify", "--seed", "11", "--out", str(tmp_path)]) == EXIT_OK


def test_empty_table_is_refused(tmp_path):
    with pytest.raises(ScenarioError):
        write_csv(str(tmp_path / "x.csv"), ["a"], [])
