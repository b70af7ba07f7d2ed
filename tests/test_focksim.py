import re

import numpy as np
import pytest

from latticebounds import focksim
from latticebounds.anharmonic import PerturbationSpec
from latticebounds.focksim import (FockSystem, commutator_front,
                                   evolve_observable, ring_distance,
                                   truncation_gate)
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import WeylFunction, commutator_norm_exact

C11 = Couplings(1.0, (1.0,))


def test_single_site_spectrum_is_harmonic_ladder():
    # H = p^2 + w^2 q^2 has levels w (2m + 1)
    sys = FockSystem(1, 40, Couplings(1.3, (0.0,)))
    w = sys.low_energy_basis(6)[0]
    assert np.allclose(w, 1.3 * (2 * np.arange(6) + 1), atol=1e-10)


def test_two_site_ring_spectrum():
    # a 2-ring carries two bonds; normal modes w and sqrt(w^2 + 4 lam)
    sys = FockSystem(2, 24, C11)
    g1, g2 = 1.0, np.sqrt(5.0)
    expect = sorted(g1 * (2 * m + 1) + g2 * (2 * k + 1)
                    for m in range(4) for k in range(4))[:6]
    assert np.allclose(sys.low_energy_basis(6)[0], expect, atol=1e-8)


def test_chain_spectrum_matches_dense_stiffness_modes():
    sys = FockSystem(3, 12, C11, geometry="chain")
    K = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
    gam = np.sqrt(np.linalg.eigvalsh(K))
    assert sys.ground_state()[0] == pytest.approx(np.sum(gam), abs=2e-6)


def test_zero_perturbation_leaves_hamiltonian_unchanged():
    plain = FockSystem(2, 8, C11)
    pert = FockSystem(2, 8, C11, perturbation=PerturbationSpec.zero())
    assert np.array_equal(plain.hamiltonian().toarray(),
                          pert.hamiltonian().toarray())
    gauss0 = FockSystem(2, 8, C11,
                        perturbation=PerturbationSpec.gaussian(0.0))
    assert np.allclose(plain.hamiltonian().toarray(),
                       gauss0.hamiltonian().toarray(), atol=1e-14)


def test_perturbed_assemblies_are_hermitian():
    for tag in ("site", "site_p", "bond"):
        sys = FockSystem(2, 8, C11,
                         perturbation=PerturbationSpec.gaussian(0.4, tag))
        h = sys.hamiltonian().toarray()
        assert np.allclose(h, h.conj().T, atol=1e-12)


def test_ccr_residual_on_bulk_states():
    # [q, p] = i away from the truncation edge
    sys = FockSystem(1, 30, C11)
    comm = sys.q1 @ sys.p1 - sys.p1 @ sys.q1
    bulk = comm[: 28, : 28]
    assert np.max(np.abs(bulk - 1j * np.eye(28))) < 1e-10


def _spectral(h, fn):
    w, v = np.linalg.eigh(h)
    return (v * fn(w)) @ v.conj().T


def _kron_hamiltonian(sys):
    """Dense H from np.kron: every site's q and p embedded in the full
    space, the on-site and bond terms formed there."""
    n, N = sys.trunc, sys.n_sites

    def at(op, x):
        return np.kron(np.kron(np.eye(n ** x), op), np.eye(n ** (N - x - 1)))

    pert = sys.perturbation
    tag = pert.tag if pert.potential is not None else None
    c = sys.couplings
    h = np.zeros((sys.dim, sys.dim), complex)
    for x in range(N):
        q, p = at(sys.q1, x), at(sys.p1, x)
        h += p @ p + c.omega ** 2 * (q @ q)
        if tag == "site":
            h += _spectral(q, pert.potential)
        if tag == "site_p":
            h += _spectral(p, pert.potential)
    for i, j in sys.bonds():
        dq = at(sys.q1, i) - at(sys.q1, j)
        h += c.lam[0] * (dq @ dq)
        if tag == "bond":
            h += _spectral(dq, pert.potential)
    return h


def test_hamiltonian_matches_matrix_free_application():
    # the sparse H and apply_h against the np.kron assembly; the 3-ring
    # carries the wrap bond (2, 0)
    rng = np.random.default_rng(0)
    for geometry in ("ring", "chain"):
        for tag in ("site", "site_p", "bond"):
            sys = FockSystem(
                3, 5, Couplings(1.0, (0.7,)), geometry=geometry,
                perturbation=PerturbationSpec.gaussian(0.3, tag))
            ref = _kron_hamiltonian(sys)
            assert np.max(np.abs(sys.hamiltonian().toarray() - ref)) < 1e-12
            v = rng.standard_normal((sys.dim, 2)) @ np.array([1.0, 1j])
            assert np.allclose(sys.apply_h(v), ref @ v, atol=1e-12)


@pytest.mark.parametrize("tag", ["site", "site_p", "bond"])
def test_even_potentials_give_a_real_hamiltonian(tag):
    for pert in (PerturbationSpec.gaussian(0.3, tag),
                 PerturbationSpec.cosine(0.2, 1.5, tag)):
        sys = FockSystem(3, 6, C11, perturbation=pert)
        assert sys.hamiltonian().dtype == np.float64


# V'(q) = 0.3 cos(q): vhat' has atoms of weight 0.15 at w = +-1
ODD_P = PerturbationSpec(kappa=0.3, potential=lambda p: 0.3 * np.sin(p),
                         tag="site_p", name="sine")


def test_odd_momentum_potential_keeps_a_complex_hermitian_hamiltonian():
    sys = FockSystem(3, 6, C11, perturbation=ODD_P)
    h = sys.hamiltonian().toarray()
    assert np.iscomplexobj(h) and np.max(np.abs(h.imag)) > 1e-3
    assert np.allclose(h, h.conj().T, atol=1e-12)
    assert np.max(np.abs(h - _kron_hamiltonian(sys))) < 1e-12


def _total_parity(sys):
    """(-1)^(sum_x n_x) of each basis state as 0 or 1, counted digit by
    digit from the row-major index."""
    idx = np.arange(sys.dim)
    return sum(idx // sys.trunc ** x % sys.trunc
               for x in range(sys.n_sites)) % 2


EVEN_POTENTIALS = [None] + [
    spec for tag in ("site", "site_p", "bond")
    for spec in (PerturbationSpec.gaussian(0.3, tag),
                 PerturbationSpec.cosine(0.2, 1.5, tag))]


@pytest.mark.parametrize("n_sites, trunc, geometry",
                         [(3, 7, "ring"), (2, 8, "chain")])
@pytest.mark.parametrize("pert", EVEN_POTENTIALS,
                         ids=lambda p: p.name + "_" + p.tag if p else "zero")
def test_even_potentials_keep_the_total_parity(n_sites, trunc, geometry,
                                               pert):
    # H links no two states of opposite parity, and eigensystem() is the
    # full spectrum, each eigenvector in one sector
    sys = FockSystem(n_sites, trunc, Couplings(1.0, (0.7,)),
                     geometry=geometry, perturbation=pert)
    par = _total_parity(sys)
    h = sys.hamiltonian().tocoo()
    assert np.array_equal(par[h.row], par[h.col])
    ref = _kron_hamiltonian(sys)
    assert np.max(np.abs(h.toarray() - ref)) < 1e-12
    w, v = sys.eigensystem()
    exact = np.linalg.eigvalsh(ref)
    assert np.max(np.abs(w - exact)) <= 1e-12 * np.max(np.abs(exact))
    even = np.any(v[par == 0] != 0, axis=0)
    odd = np.any(v[par == 1] != 0, axis=0)
    assert np.all(even != odd)
    assert np.count_nonzero(even) == np.count_nonzero(par == 0)


def test_odd_potential_keeps_every_entry_in_one_sector():
    sys = FockSystem(3, 6, C11, perturbation=ODD_P)
    par = _total_parity(sys)
    h = sys.hamiltonian().toarray()
    assert np.max(np.abs(h[np.ix_(par == 0, par == 1)])) > 1e-3
    assert len(sys._sectors) == 1
    w, v = sys.eigensystem()
    exact = np.linalg.eigvalsh(_kron_hamiltonian(sys))
    assert np.max(np.abs(w - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert np.max(np.abs(h @ v - v * w)) < 1e-10
    # the odd potential mixes the parities in its eigenvectors
    weights = [np.linalg.norm(v[par == k], axis=0) for k in (0, 1)]
    assert np.max(np.minimum(*weights)) > 0.1


@pytest.mark.parametrize("block", [(), (3,)], ids=["vector", "columns"])
@pytest.mark.parametrize("geometry", ["ring", "chain"])
@pytest.mark.parametrize("n_sites, trunc", [(1, 12), (2, 12), (3, 7), (4, 5)])
def test_weyl_matrix_is_unitary_and_factorizes(n_sites, trunc, geometry,
                                               block):
    # W(f) applied factor by factor on the stacked tensor view against the
    # Kronecker product of the factors, with distinct amplitudes per site
    sys = FockSystem(n_sites, trunc, C11, geometry=geometry)
    rng = np.random.default_rng(1)
    f = rng.uniform(-1, 1, n_sites) + 1j * rng.uniform(-1, 1, n_sites)
    w = sys.weyl_matrix(f)
    assert np.allclose(w @ w.conj().T, np.eye(sys.dim), atol=1e-12)
    shape = (sys.dim,) + block
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = sys.apply_weyl(sys.weyl_local_factors(f), v)
    assert got.shape == shape
    assert np.allclose(got, w @ v, atol=1e-12)
    # one factor at a time: site x alone acts as 1 x m x 1
    eye = np.eye(trunc)
    for x, m in enumerate(sys.weyl_local_factors(f)):
        facs = [eye] * x + [m]
        kron = np.kron(np.kron(np.eye(trunc ** x), m),
                       np.eye(trunc ** (n_sites - x - 1)))
        assert np.allclose(sys.apply_weyl(facs, v), kron @ v, atol=1e-12)


def test_propagation_is_unitary_and_reverses():
    sys = FockSystem(2, 10, C11,
                     perturbation=PerturbationSpec.gaussian(0.2))
    rng = np.random.default_rng(2)
    v = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
    vt = sys.propagate(v, 0.7)
    assert np.linalg.norm(vt) == pytest.approx(np.linalg.norm(v), rel=1e-10)
    assert np.allclose(sys.propagate(vt, -0.7), v, atol=1e-9)


def test_evolve_observable_identity_and_norm():
    sys = FockSystem(2, 8, C11)
    a = sys.weyl_matrix(np.array([1.0 + 0.5j, 0.0]))
    assert np.allclose(evolve_observable(sys, a, 0.0), a, atol=1e-12)
    at = evolve_observable(sys, a, 0.9)
    assert np.linalg.norm(at, 2) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        evolve_observable(sys, np.eye(3), 0.5)


@pytest.mark.parametrize("pert", [PerturbationSpec.gaussian(0.4), ODD_P],
                         ids=["gaussian", "odd_p"])
def test_commutator_norm_against_the_heisenberg_picture(pert):
    # dim 216: the dense [e^{itH} W_f e^{-itH}, W_g] restricted to the
    # low-energy basis, against the propagated column blocks
    sys = FockSystem(3, 6, C11, perturbation=pert)
    f = np.array([0.6 - 0.3j, 0.0, 0.0])
    g = np.array([0.0, 0.2 + 0.5j, 0.0])
    wf, wg = sys.weyl_matrix(f), sys.weyl_matrix(g)
    basis = sys.low_energy_basis(4)[1]
    for t in (0.0, 0.4, 1.3):
        at = evolve_observable(sys, wf, t)
        oracle = np.linalg.norm((at @ wg - wg @ at) @ basis, 2)
        assert sys.commutator_norm(f, g, t, n_low=4) == pytest.approx(
            oracle, abs=1e-10)


def test_commutator_norm_matches_exact_weyl_dynamics():
    # the harmonic model is exactly solvable; the truncation error of the
    # restricted norm must shrink monotonically with the basis size
    lat = TorusLattice(1, 1)  # 2 sites: the N = 2 ring
    f = WeylFunction.delta(lat, (0,))
    g = WeylFunction.delta(lat, (1,))
    t = 0.35
    exact = commutator_norm_exact(f, g, t, couplings=C11)
    errs = []
    for n in (12, 16, 20, 24):
        sys = FockSystem(2, n, C11)
        got = sys.commutator_norm(np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]), t, n_low=4)
        errs.append(abs(got - exact))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6


def test_commutator_front_short_time_is_linear():
    # momentum-momentum pairing on adjacent sites grows linearly in t
    sys = FockSystem(3, 8, C11, geometry="chain")
    tgrid = np.array([0.0, 0.01, 0.02, 0.035, 0.05])
    fr = commutator_front(sys, np.array([1j, 0.0, 0.0]),
                          np.array([0.0, 1j, 0.0]), tgrid, n_low=4)
    assert fr.norms[0] == pytest.approx(0.0, abs=1e-12)
    assert fr.fit_residual_rel < 0.05
    assert fr.fitted_slope > 0


def test_commutator_front_rejects_overlapping_supports():
    sys = FockSystem(2, 6, C11)
    with pytest.raises(ValueError):
        commutator_front(sys, np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                         [0.1])


def test_truncation_gate_passes_when_converged():
    sys = FockSystem(2, 20, C11)
    f = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    norms = commutator_front(sys, f, g, [0.1, 0.3], n_low=4).norms
    refined, change, ok = truncation_gate(sys, f, g, [0.1, 0.3], norms,
                                          dn=4, tol=1e-4, n_low=4)
    assert ok and change < 1e-4
    assert refined.shape == (2,)


def test_truncation_gate_fails_for_tiny_bases():
    sys = FockSystem(2, 3, C11)
    f = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    norms = commutator_front(sys, f, g, [0.5], n_low=2).norms
    _, change, ok = truncation_gate(sys, f, g, [0.5], norms, dn=4,
                                    tol=1e-6, n_low=2)
    assert not ok and change > 1e-6


RING3 = Couplings(1.0, (0.6,))
F3 = np.array([0.45 + 0.05j, 0.0, 0.0])
G3 = np.array([0.0, 0.5 - 0.04j, 0.0])


@pytest.mark.parametrize("pert", [PerturbationSpec.gaussian(0.2), ODD_P],
                         ids=["real", "complex"])
def test_matrix_free_basis_is_orthonormal(monkeypatch, pert):
    # levels 2 and 3 of a symmetric ring are degenerate (the k = +-1 pair)
    sys = FockSystem(3, 8, RING3, perturbation=pert)
    monkeypatch.setattr(focksim, "DENSE_EIG_DIM", sys.dim - 1)
    w, b = sys.low_energy_basis(4)
    assert np.max(np.abs(b.conj().T @ b - np.eye(4))) < 1e-12
    assert np.max(np.abs(sys.hamiltonian() @ b - b * w)) < 1e-10


@pytest.mark.parametrize("tag", ["site", "site_p", "bond"])
def test_matrix_free_norms_match_the_dense_path(monkeypatch, tag):
    pert = PerturbationSpec.gaussian(0.2, tag)
    dense = FockSystem(3, 8, RING3, perturbation=pert)
    ref = [dense.commutator_norm(F3, G3, t, n_low=4) for t in (0.05, 0.1)]
    monkeypatch.setattr(focksim, "DENSE_EIG_DIM", dense.dim - 1)
    free = FockSystem(3, 8, RING3, perturbation=pert)
    got = [free.commutator_norm(F3, G3, t, n_low=4) for t in (0.05, 0.1)]
    assert free._eig is None  # the dense path never ran
    assert np.allclose(got, ref, rtol=1e-9, atol=0)


@pytest.mark.parametrize("pert", [PerturbationSpec.gaussian(0.2), ODD_P],
                         ids=["real", "complex"])
def test_chebyshev_sweep_matches_scipy_expm_multiply(pert):
    # scipy's Krylov-Taylor propagator is the oracle; the sweep takes the
    # whole grid, with t < 0 and t = 0 in it, and a one-time grid per t
    from scipy.sparse.linalg import expm_multiply
    sys = FockSystem(3, 8, RING3, perturbation=pert)
    h = sys.hamiltonian()
    lo, hi = sys._spectral_interval()
    real = not np.iscomplexobj(h)
    assert real == (pert is not ODD_P)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((sys.dim, 3)) + 1j * rng.standard_normal(
        (sys.dim, 3))
    times = np.array([-0.7, 0.0, 0.05, 0.3, 1.5])
    grid = focksim.expm_multiply(sys.apply_h, v, times, lo, hi, real)
    assert grid.shape == (len(times),) + v.shape
    for t, got in zip(times, grid):
        ref = expm_multiply(-1j * t * h, v)
        one = focksim.expm_multiply(sys.apply_h, v, [t], lo, hi, real)[0]
        for x in (got, one):
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(grid[1], v)
    empty = focksim.expm_multiply(sys.apply_h, v, [], lo, hi, real)
    assert empty.shape == (0,) + v.shape


def test_miller_bessel_values():
    # x in [0, 600] with every order the sweep at a|t| = 600 takes.  scipy's
    # jv is itself off by up to 1.6e-14 here (against 30-digit mpmath), so
    # the 1e-15 check is against mpmath, at every 8th order
    from scipy.special import jv
    mpmath = pytest.importorskip("mpmath")
    n = focksim._bessel_order(600.0, focksim.TAIL)
    x = np.concatenate([[1e-300, 1e-12, 0.3], np.linspace(0.0, 600.0, 121)])
    got = focksim._bessel_j(n, x)
    k = np.arange(n)[:, None]
    assert np.max(np.abs(got - jv(k, x))) <= 2e-14
    mpmath.mp.dps = 30
    some = np.array([0, 1, 2, 30, 61, 95, 123])
    ref = np.array([[float(mpmath.besselj(int(o), mpmath.mpf(float(xx))))
                     for xx in x[some]] for o in range(0, n, 8)])
    assert np.max(np.abs(got[::8][:, some] - ref)) <= 1e-15


@pytest.mark.parametrize("x", [1.2e6, 65500.0])
def test_sweep_past_the_term_cap_raises_before_any_bessel_table(
        monkeypatch, x):
    # 65500 < MAX_TERMS, but its tail needs about 500 orders more
    def no_table(*args):
        raise AssertionError("a Bessel table was allocated")
    monkeypatch.setattr(focksim, "_bessel_j", no_table)
    with pytest.raises(ValueError, match=re.escape(f"a max|t| = {x:.6g}")):
        focksim.expm_multiply(lambda u: u, np.ones(4), [-x], -1.0, 1.0, True)


def test_matrix_free_gate_draws_no_global_random_numbers(monkeypatch):
    pert = PerturbationSpec.gaussian(0.2)
    sys = FockSystem(3, 8, RING3, perturbation=pert)
    monkeypatch.setattr(focksim, "DENSE_EIG_DIM", sys.dim - 1)
    before = np.random.get_state()
    norms = commutator_front(sys, F3, G3, [0.05, 0.1], n_low=4).norms
    truncation_gate(sys, F3, G3, [0.05, 0.1], norms, dn=1, n_low=4)
    after = np.random.get_state()
    assert sys._eig is None
    assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


def test_grid_blocks_give_the_one_block_norms(monkeypatch):
    # a block of one time per sweep, against the whole grid in one
    sys = FockSystem(3, 8, RING3, perturbation=PerturbationSpec.gaussian(0.2))
    monkeypatch.setattr(focksim, "DENSE_EIG_DIM", sys.dim - 1)
    tgrid = [-0.1, 0.0, 0.05, 0.2]
    whole = commutator_front(sys, F3, G3, tgrid, n_low=4).norms
    monkeypatch.setattr(focksim, "_GRID_VALUES", 1)
    blocks = commutator_front(sys, F3, G3, tgrid, n_low=4).norms
    assert np.allclose(blocks, whole, rtol=1e-10, atol=1e-14)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FockSystem(5, 8, C11)
    with pytest.raises(ValueError):
        FockSystem(2, 2, C11)
    with pytest.raises(ValueError):
        FockSystem(2, 8, C11, geometry="star")
    with pytest.raises(ValueError):
        FockSystem(2, 8, Couplings(1.0, (1.0, 1.0)))
    with pytest.raises(ValueError):
        FockSystem(4, 13, C11)  # 13^4 > MAX_DENSE_DIM


def test_ring_distance():
    assert ring_distance(4, 0, 3) == 1
    assert ring_distance(4, 0, 2) == 2
    assert ring_distance(3, 1, 1) == 0


def test_low_energy_basis_needs_one_vector():
    sys = FockSystem(2, 4, C11)
    for k in (0, -1):
        with pytest.raises(ValueError):
            sys.low_energy_basis(k)


def test_hermiticity_check_holds_at_every_scale():
    # the absolute allclose check failed on round-off at this scale
    sys = FockSystem(2, 6, C11,
                     perturbation=PerturbationSpec.gaussian(1e300))
    assert sys.dim == 36


@pytest.mark.parametrize("free", [False, True], ids=["dense", "matrix_free"])
@pytest.mark.parametrize("pert", [None, ODD_P], ids=["real", "complex"])
def test_low_energy_basis_takes_up_to_dim_minus_two_in_both_regimes(
        monkeypatch, free, pert):
    sys = FockSystem(2, 4, C11, perturbation=pert)
    w_all = np.linalg.eigvalsh(sys.hamiltonian().toarray())
    if free:
        monkeypatch.setattr(focksim, "DENSE_EIG_DIM", sys.dim - 1)
    k = sys.dim - 2
    w, b = sys.low_energy_basis(k)
    assert b.shape == (sys.dim, k)
    assert np.max(np.abs(b.conj().T @ b - np.eye(k))) < 1e-12
    assert np.max(np.abs(sys.hamiltonian() @ b - b * w)) < 1e-10
    assert np.allclose(w, w_all[:k], rtol=0, atol=1e-10)
    for bad in (sys.dim - 1, sys.dim):
        with pytest.raises(ValueError, match="1 <= k <= dim - 2 = 14"):
            sys.low_energy_basis(bad)
    assert sys._eig is None if free else sys._eig is not None
