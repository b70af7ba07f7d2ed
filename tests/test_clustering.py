import numpy as np
import pytest

from latticebounds.anharmonic import AnharmonicBoundParams
from latticebounds.clustering import (clustering_fit, ground_covariance,
                                      weyl_correlation, weyl_expectation,
                                      xi_theorem)
from latticebounds.focksim import FockSystem
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import WeylFunction


def test_decoupled_sites_have_diagonal_covariance():
    # lam = 0: <q_x q_y> = delta_xy / (2 w), <p_x p_y> = delta_xy w / 2
    lat = TorusLattice(1, 6)
    cov = ground_covariance(lat, Couplings(1.7, (0.0,)))
    expect_qq = np.zeros(lat.n_sites)
    expect_qq[lat.index((0,))] = 0.5 / 1.7
    assert np.allclose(cov.qq, expect_qq, atol=1e-13)
    expect_pp = np.zeros(lat.n_sites)
    expect_pp[lat.index((0,))] = 0.5 * 1.7
    assert np.allclose(cov.pp, expect_pp, atol=1e-13)


def test_covariances_are_real_and_even():
    lat = TorusLattice(1, 8)
    cov = ground_covariance(lat, Couplings(1.0, (1.0,)))
    neg = lat.neg_indices()
    assert np.allclose(cov.qq, cov.qq[neg], atol=1e-13)
    assert np.allclose(cov.pp, cov.pp[neg], atol=1e-13)
    assert cov.gap == 2.0


def test_uncertainty_product_at_the_origin():
    lat = TorusLattice(1, 8)
    for c in (Couplings(1.0, (1.0,)), Couplings(0.5, (2.0,))):
        cov = ground_covariance(lat, c)
        i0 = lat.index((0,))
        assert cov.qq[i0] * cov.pp[i0] >= 0.25 - 1e-12


def test_zero_omega_is_rejected():
    # at omega = 1e-300, omega^2 underflows and gamma(0) = 0 as at omega = 0
    for omega in (0.0, 1e-300):
        with pytest.raises(ZeroDivisionError, match="gamma"):
            ground_covariance(TorusLattice(1, 4), Couplings(omega, (1.0,)))


def test_expectation_against_fock_ground_state():
    # 2-site ring, truncation far beyond any reachable occupation
    c = Couplings(1.0, (1.0,))
    lat = TorusLattice(1, 1)
    cov = ground_covariance(lat, c)
    sys = FockSystem(2, 30, c)
    _, gs = sys.ground_state()
    rng = np.random.default_rng(0)
    for _ in range(5):
        amps = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        h = WeylFunction(lat, amps)
        fock = gs.conj() @ (sys.weyl_matrix(amps) @ gs)
        assert abs(fock.imag) < 1e-10
        assert weyl_expectation(cov, h) == pytest.approx(fock.real,
                                                         abs=1e-10)


def test_correlation_against_fock_ground_state():
    c = Couplings(1.0, (1.0,))
    lat = TorusLattice(1, 1)
    cov = ground_covariance(lat, c)
    sys = FockSystem(2, 30, c)
    _, gs = sys.ground_state()
    f = WeylFunction(lat, np.array([0.6 - 0.3j, 0.0]))
    g = WeylFunction(lat, np.array([0.0, -0.2 + 0.8j]))
    wf = sys.weyl_matrix(f.values)
    wg = sys.weyl_matrix(g.values)
    fock = (gs.conj() @ (wf @ (wg @ gs))
            - (gs.conj() @ (wf @ gs)) * (gs.conj() @ (wg @ gs)))
    assert weyl_correlation(cov, f, g) == pytest.approx(fock, abs=1e-10)


def test_qq_covariance_against_four_site_ring():
    # <q_0 q_1> from the dense 4-site ground state
    c = Couplings(1.0, (1.0,))
    lat = TorusLattice(1, 2)
    cov = ground_covariance(lat, c)
    sys = FockSystem(4, 12, c)
    _, gs = sys.ground_state()
    v = sys.apply_weyl([sys.q1, sys.q1], gs)  # q_0 q_1 gs
    fock = (gs.conj() @ v).real
    assert cov.qq[lat.index((1,))] == pytest.approx(fock, abs=1e-6)


def dense_covariances(lat, c):
    """QQ and PP as dense matrices of direct cosine sums over the dual grid."""
    gam = np.array([np.sqrt(c.omega ** 2 + 4.0 * sum(
        lam * np.sin(k[j] / 2.0) ** 2 for j, lam in enumerate(c.lam)))
        for k in lat.dual])
    n = lat.n_sites
    qq = np.empty((n, n))
    pp = np.empty((n, n))
    for i, x in enumerate(lat.sites):
        for j, y in enumerate(lat.sites):
            cos = np.cos(lat.dual @ (x - y))
            qq[i, j] = np.sum(cos * 0.5 / gam) / n
            pp[i, j] = np.sum(cos * 0.5 * gam) / n
    return qq, pp


@pytest.mark.parametrize("nu,L", [(1, 8), (2, 3)])
def test_forms_against_dense_cosine_sums(nu, L):
    lat = TorusLattice(nu, L)
    c = Couplings(0.9, (1.0, 0.6)[:nu])
    cov = ground_covariance(lat, c)
    qq, pp = dense_covariances(lat, c)

    def expect(h):
        return np.exp(-0.5 * (h.real @ qq @ h.real + h.imag @ pp @ h.imag))

    rng = np.random.default_rng(nu)
    for _ in range(4):
        fv = 0.4 * (rng.standard_normal(lat.n_sites)
                    + 1j * rng.standard_normal(lat.n_sites))
        gv = 0.4 * (rng.standard_normal(lat.n_sites)
                    + 1j * rng.standard_normal(lat.n_sites))
        f, g = WeylFunction(lat, fv), WeylFunction(lat, gv)
        assert weyl_expectation(cov, f) == pytest.approx(expect(fv),
                                                         abs=1e-13)
        dense = (np.exp(-0.5j * np.imag(np.vdot(fv, gv))) * expect(fv + gv)
                 - expect(fv) * expect(gv))
        assert weyl_correlation(cov, f, g) == pytest.approx(dense, abs=1e-13)


def test_far_correlations_keep_their_relative_accuracy():
    # real deltas: corr(d) = E(d_0) E(d_d) expm1(-qq(d)); subtracting
    # <W(f+g)> - <W(f)><W(g)> loses everything below ~1e-16
    lat = TorusLattice(1, 32)
    cov = ground_covariance(lat, Couplings(2.0, (1.0,)))
    f = WeylFunction.delta(lat, (0,))
    e0 = weyl_expectation(cov, f)
    for d in range(1, 33):
        g = WeylFunction.delta(lat, (d,))
        want = e0 * weyl_expectation(cov, g) * np.expm1(
            -cov.qq[lat.index((d,))])
        assert abs(weyl_correlation(cov, f, g) - want) <= 2e-17


def test_correlation_symmetry_and_zero_argument():
    lat = TorusLattice(1, 8)
    c = Couplings(1.0, (1.0,))
    cov = ground_covariance(lat, c)
    f = WeylFunction.delta(lat, (0,))
    g = WeylFunction.delta(lat, (3,))
    zero = WeylFunction(lat, np.zeros(lat.n_sites, dtype=complex))
    assert weyl_correlation(cov, f, zero) == pytest.approx(0.0, abs=1e-14)
    a = weyl_correlation(cov, f, g)
    b = weyl_correlation(cov, g, f)
    assert a == pytest.approx(np.conj(b), abs=1e-14)


def test_lattice_mismatch_is_rejected():
    c = Couplings(1.0, (1.0,))
    cov = ground_covariance(TorusLattice(1, 4), c)
    h = WeylFunction.delta(TorusLattice(1, 8), (0,))
    with pytest.raises(ValueError):
        weyl_expectation(cov, h)
    with pytest.raises(ValueError):
        weyl_correlation(cov, h, h)


def test_xi_theorem_shrinks_with_the_gap():
    c_small = Couplings(1.0, (1.0,))
    c_large = Couplings(3.0, (1.0,))
    b1 = AnharmonicBoundParams(1.0, 1.0, c_small)
    b2 = AnharmonicBoundParams(1.0, 1.0, c_large)
    # same velocity scale comparison: a larger gap can only help
    xi1 = xi_theorem(b1, 2.0 * c_small.omega)
    xi2 = xi_theorem(b1, 2.0 * c_large.omega)
    assert xi2 < xi1
    assert xi_theorem(b2, 6.0) > 0
    with pytest.raises(ValueError):
        xi_theorem(b1, 0.0)


def test_reference_sweep_is_dominated():
    lat = TorusLattice(1, 32)
    cov = ground_covariance(lat, Couplings(2.0, (1.0,)))
    fit = clustering_fit(cov, mu=1.0, epsilon=1.0)
    assert fit.dominated
    # real-argument correlations come out negative here; only their
    # magnitude enters the envelope comparison
    assert fit.nonpositive_seen
    assert 0 < fit.fitted_xi < fit.xi_theorem
    assert fit.tightness_ratio == pytest.approx(fit.fitted_xi
                                                / fit.xi_theorem)
    assert fit.c_fit > 0
    assert len(fit.distances) == 32


def test_clustering_fit_needs_one_dimension():
    cov = ground_covariance(TorusLattice(2, 3), Couplings(1.0, (1.0, 1.0)))
    with pytest.raises(ValueError):
        clustering_fit(cov, mu=1.0, epsilon=1.0)


def test_reality_check_is_relative_to_the_covariances():
    # pp ~ gamma / 2 ~ 1e15: its FFT round-off is far above 1e-12
    cov = ground_covariance(TorusLattice(1, 8), Couplings(1.0, (1e30,)))
    assert np.all(np.isfinite(cov.pp))
