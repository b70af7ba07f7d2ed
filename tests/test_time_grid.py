"""Every time-dependent evaluator outside focksim takes a 1-D time grid as
well as a scalar time.  A grid must give exactly the stack of the per-time
results (the same arithmetic, row by row), and a scalar time must still
give a plain float where it did before."""

import json
import tracemalloc

import numpy as np
import pytest

from latticebounds import kernels
from latticebounds.anharmonic import AnharmonicBoundParams, \
    PerturbationSpec, anharm_bound_rhs
from latticebounds.genbounds import InteractionGraph, l1_metric, \
    power_law, theorem_phi_bound
from latticebounds.cli import EXIT_OK, main
from latticebounds.kernels import EnvelopeParams, compute_H, compute_h, \
    envelope
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import HarmonicBoundParams, WeylFunction, \
    commutator_norm_exact, harmonic_bound_rhs

TIMES = np.array([-0.7, 0.0, 0.3, 1.1, 2.5])

LATS = {1: TorusLattice(1, 12), 2: TorusLattice(2, 4)}
CPL = {1: Couplings(1.0, (0.25,)), 2: Couplings(0.8, (0.5, 1.2))}
C1 = CPL[1]
# supports 10 apart, so the small-time form applies: 10 > 1 + c_max e^1.5
F = WeylFunction.from_sites(LATS[1], [((-6,), 1.0 + 0.5j), ((-5,), -0.3j)])
G = WeylFunction.from_sites(LATS[1], [((5,), 0.7), ((6,), 0.2 - 0.4j)])
HARM = HarmonicBoundParams(1.0, C1, a=0.5)
ANH = AnharmonicBoundParams(1.0, 0.5, C1)
PERT = PerturbationSpec.gaussian(0.2)
GRAPH = InteractionGraph(l1_metric([(i,) for i in range(6)]),
                         [({0, 1}, 1.0), ({1, 2}, 0.5), ({3, 4}, 0.7),
                          ({4, 5}, 0.2)])
DECAY = power_law(3.0).with_a(0.4)
ENV = EnvelopeParams(0.9, C1)
R = np.arange(8)

# name -> function of t; True where a scalar t must give a float
CASES = {
    **{f"compute_H m={m} nu={nu}":
       (lambda t, m=m, nu=nu: compute_H(LATS[nu], CPL[nu], m, t).values,
        False)
       for m in (-1, 0, 1) for nu in (1, 2)},
    "compute_h": (lambda t: np.stack([k.values for k in compute_h(
        LATS[2], CPL[2], t)], axis=-2), False),
    "compute_h zero_omega": (lambda t: np.stack([k.values for k in compute_h(
        LATS[1], Couplings(0.0, (0.6,)), t, zero_omega=True)], axis=-2),
        False),
    **{f"envelope m={m}": (lambda t, m=m: envelope(ENV, m, t, R), False)
       for m in (-1, 0, 1)},
    "envelope scalar r": (lambda t: envelope(ENV, 1, t, 3), True),
    "commutator_norm_exact": (
        lambda t: commutator_norm_exact(F, G, t, couplings=C1), True),
    **{f"harmonic_bound_rhs {form}":
       (lambda t, form=form: harmonic_bound_rhs(F, G, t, HARM, form=form),
        True)
       for form in ("theorem", "corollary", "small_time")},
    **{f"anharm_bound_rhs {form} z_limit={z}":
       (lambda t, form=form, z=z: anharm_bound_rhs(
           F, G, t, ANH, PERT, form=form, z_limit=z), True)
       for form in ("theorem", "corollary") for z in (False, True)},
    **{f"theorem_phi_bound {form}":
       (lambda t, form=form: theorem_phi_bound(
           GRAPH, DECAY, {0, 1}, {4, 5}, 1.0, 2.0, t, form=form, nu=1),
        True)
       for form in ("theorem", "corollary", "lrexp")},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_time_grid_is_the_stack_of_per_time_calls(name):
    fn, scalar_is_float = CASES[name]
    grid = fn(TIMES)
    rows = [fn(float(t)) for t in TIMES]
    assert grid.shape[:1] == TIMES.shape
    assert np.array_equal(grid, np.stack(rows))
    assert np.all(np.isfinite(grid))
    if scalar_is_float:
        assert all(type(r) is float for r in rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_time_per_block_changes_no_bit(name, monkeypatch):
    fn, _ = CASES[name]
    whole = fn(TIMES)
    monkeypatch.setattr(kernels, "_BLOCK", 1)  # every time its own block
    assert np.array_equal(fn(TIMES), whole)


@pytest.mark.parametrize("model", ["kernels", "commutator"])
def test_long_time_grid_keeps_a_fixed_peak(model, tmp_path, monkeypatch):
    """A grid is evaluated in blocks of at most kernels._BLOCK values, so the
    traced peak of a run does not grow with T x N.  With the block shrunk
    to 2^14 values, 256 times on a 4096-site lattice take 64 blocks; in
    one block they peak at about 64 MiB (kernels) and 96 MiB
    (commutator)."""
    monkeypatch.setattr(kernels, "_BLOCK", 2 ** 14)
    cfg = {"schema_version": 1, "model": model,
           "lattice": {"nu": 2, "L": 32},
           "couplings": {"omega": 1.0, "lambda": [1.0, 0.5]},
           "times": [0.01 * (i + 1) for i in range(256)]}
    cfg.update({"m": [0]} if model == "kernels" else {
        "mu": 1.0, "f": [{"site": [0, 0], "re": 1.0}],
        "g": [{"site": [5, 3], "im": 1.0}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = [model, "--config", str(path), "--out", str(tmp_path)]
    assert main(args) == EXIT_OK  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
