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
    c = sys.couplings
    h = np.zeros((sys.dim, sys.dim), complex)
    for x in range(N):
        q, p = at(sys.q1, x), at(sys.p1, x)
        h += p @ p + c.omega ** 2 * (q @ q)
        if pert.tag == "site":
            h += _spectral(q, pert.potential)
        if pert.tag == "site_p":
            h += _spectral(p, pert.potential)
    for i, j in sys.bonds():
        dq = at(sys.q1, i) - at(sys.q1, j)
        h += c.lam[0] * (dq @ dq)
        if pert.tag == "bond":
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


def test_weyl_matrix_is_unitary_and_factorizes():
    sys = FockSystem(2, 12, C11)
    f = np.array([0.7 - 0.2j, 0.1 + 0.4j])
    w = sys.weyl_matrix(f)
    assert np.allclose(w @ w.conj().T, np.eye(sys.dim), atol=1e-12)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
    assert np.allclose(sys.apply_weyl(sys.weyl_local_factors(f), v), w @ v,
                       atol=1e-12)


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
        FockSystem(4, 13, C11)  # 13^4 > dense-feasibility cap


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
