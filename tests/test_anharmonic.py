import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from latticebounds.anharmonic import (AnharmonicBoundParams, F_mu,
                                      PerturbationSpec, anharm_bound_rhs,
                                      anharm_constants, kappa_V,
                                      lattice_power_sum)
from latticebounds.focksim import (FockSystem, commutator_front,
                                   ring_distance, truncation_gate)
from latticebounds.genbounds import power_law_zeta
from latticebounds.kernels import velocity
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import WeylFunction

C11 = Couplings(1.0, (1.0,))


def _kappa_by_quadrature(density) -> float:
    """integral |w| density(w) dw, split at the |w| kink."""
    return sum(quad(lambda w: abs(w) * density(w), lo, hi, limit=400,
                    epsabs=1e-13, epsrel=1e-12)[0]
               for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))


def test_gaussian_kappa_is_alpha():
    for alpha in (0.1, 0.5, 2.0, -0.3):
        # |vhat'(w)| of V(q) = alpha e^(-q^2/2)
        def density(w):
            return abs(alpha) * abs(w) * np.exp(-w * w / 2.0) \
                / np.sqrt(2.0 * np.pi)
        kap = kappa_V(PerturbationSpec.gaussian(alpha))
        assert kap == abs(alpha)
        assert kap == pytest.approx(_kappa_by_quadrature(density), rel=1e-8)


def test_cosine_kappa_is_kappa_beta_squared():
    for kappa, beta in ((0.3, 2.0), (-0.2, 1.5), (0.7, -0.4)):
        # vhat' of V(q) = kappa cos(beta q): atoms at +-beta, each of
        # weight |kappa beta| / 2
        atoms = [(beta, abs(kappa * beta) / 2.0),
                 (-beta, abs(kappa * beta) / 2.0)]
        assert kappa_V(PerturbationSpec.cosine(kappa, beta)) == \
            pytest.approx(sum(abs(w) * wt for w, wt in atoms), rel=1e-14)
    # a float power would raise OverflowError here
    assert kappa_V(PerturbationSpec.cosine(0.5, 1e300)) == np.inf


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec.gaussian(1.0, tag="edge")
    with pytest.raises(ValueError):
        PerturbationSpec(potential=lambda q: q)
    assert kappa_V(PerturbationSpec.zero()) == 0.0
    assert kappa_V(PerturbationSpec()) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        AnharmonicBoundParams(0.5, 1.0, C11)
    with pytest.raises(ValueError):
        AnharmonicBoundParams(1.0, 0.0, C11)


def test_nu_comes_from_the_couplings_and_must_match_the_lattice():
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    assert b.nu == 1
    lat2 = TorusLattice(2, 4)
    p = PerturbationSpec.zero()
    with pytest.raises(ValueError, match="nu"):
        anharm_constants(b, p, lattice=lat2)
    f = WeylFunction.delta(lat2, (0, 0))
    g = WeylFunction.delta(lat2, (2, 1))
    for z_limit in (False, True):
        with pytest.raises(ValueError, match="nu"):
            anharm_bound_rhs(f, g, 0.5, b, p, z_limit=z_limit)


def test_F_mu_values():
    assert F_mu(1.0, 1, 0) == pytest.approx(1.0)
    assert F_mu(2.0, 1, 3.0) == pytest.approx(np.exp(-6.0) / 16.0)
    arr = F_mu(1.0, 2, np.array([0.0, 1.0]))
    assert arr == pytest.approx([1.0, np.exp(-1.0) / 8.0])


def test_lattice_power_sum_monotone_to_the_infinite_limit():
    limit = lattice_power_sum(1)
    assert limit == pytest.approx(2.0 * zeta(2.0, 1.0) - 1.0, rel=1e-12)
    prev = 0.0
    for L in (4, 8, 16, 64):
        s = lattice_power_sum(1, TorusLattice(1, L))
        assert prev < s < limit
        prev = s
    # the missing tail is a couple of 1/L corrections at L = 64
    assert limit - prev < 2.0 / 64


def test_constants_reduce_to_harmonic_when_kappa_vanishes():
    b = AnharmonicBoundParams(1.0, 0.5, C11)
    C, Cnu, v = anharm_constants(b, PerturbationSpec.zero())
    assert v == pytest.approx(velocity(C11, 1.5))
    assert C > 0 and Cnu > 0


def test_constants_formulas():
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    p = PerturbationSpec.cosine(0.2, 1.0)  # kappa = 0.2 exactly
    C, Cnu, v = anharm_constants(b, p)
    s_star = 1.0  # (nu+1)/eps - 1 with nu = 1, eps = 1
    sup = 4.0 * np.exp(-1.0)
    c = C11.c_max
    assert C == pytest.approx((2.0 + c * np.e + 1.0 / c) * sup, rel=1e-12)
    assert Cnu == pytest.approx(4.0 * (2.0 * zeta(2.0, 1.0) - 1.0), rel=1e-12)
    assert v == pytest.approx(velocity(C11, 2.0) + C * Cnu * 0.2 / 2.0,
                              rel=1e-12)


def test_sup_factor_is_one_for_large_epsilon():
    # eps >= nu + 1 puts the supremum at s = 0
    b = AnharmonicBoundParams(1.0, 2.0, C11)
    C, _, _ = anharm_constants(b, PerturbationSpec.zero())
    c = C11.c_max
    assert C == pytest.approx(2.0 + c * np.exp(1.5) + 1.0 / c, rel=1e-12)


def test_velocity_grows_with_kappa():
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    vs = [anharm_constants(b, PerturbationSpec.gaussian(a))[2]
          for a in (0.0, 0.1, 0.5)]
    assert vs[0] < vs[1] < vs[2]


def test_bound_rhs_forms():
    lat = TorusLattice(1, 8)
    f = WeylFunction.delta(lat, (0,))
    g = WeylFunction.delta(lat, (5,))
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    p = PerturbationSpec.gaussian(0.3)
    C, _, v = anharm_constants(b, p, lattice=lat)
    th = anharm_bound_rhs(f, g, 0.4, b, p)
    assert th == pytest.approx(C * np.exp(2.0 * v * 0.4) * F_mu(1.0, 1, 5.0),
                               rel=1e-12)
    co = anharm_bound_rhs(f, g, 0.4, b, p, form="corollary")
    assert co > 0
    # both decay in distance and grow in |t|
    g_near = WeylFunction.delta(lat, (2,))
    assert anharm_bound_rhs(f, g_near, 0.4, b, p) > th
    assert anharm_bound_rhs(f, g, 0.8, b, p) > th
    assert anharm_bound_rhs(f, g, -0.4, b, p) == pytest.approx(th)
    with pytest.raises(ValueError):
        anharm_bound_rhs(f, g, 0.4, b, p, form="bogus")
    with pytest.raises(ValueError):
        anharm_bound_rhs(f, WeylFunction.delta(TorusLattice(1, 4), (2,)),
                         0.4, b, p)


def test_bound_rhs_against_brute_pair_loop():
    lat = TorusLattice(2, 4)
    c = Couplings(0.8, (1.0, 0.5))
    b = AnharmonicBoundParams(1.2, 0.7, c)
    p = PerturbationSpec.cosine(0.2, 1.5)
    C, _, v = anharm_constants(b, p, lattice=lat)
    me = b.mu + b.epsilon
    rng = np.random.default_rng(13)
    for nx, ny in [(1, 1), (4, 3), (6, 8)]:
        sites = rng.permutation(lat.n_sites)
        f = WeylFunction.from_sites(
            lat, [(lat.sites[s], rng.uniform(0.5, 2.0)) for s in sites[:nx]])
        g = WeylFunction.from_sites(
            lat, [(lat.sites[s], 1j * rng.uniform(0.5, 2.0))
                  for s in sites[nx:nx + ny]])
        dists = [lat.distance(x, y) for x in f.support_sites()
                 for y in g.support_sites()]
        norms = f.sup_norm * g.sup_norm
        for t in (-0.6, 0.0, 0.3):
            pair = sum(F_mu(b.mu, 2, d) for d in dists)
            assert anharm_bound_rhs(f, g, t, b, p) == pytest.approx(
                C * norms * np.exp(me * v * abs(t)) * pair, rel=1e-13)
            cor = C * power_law_zeta(2) * norms * min(nx, ny) * np.exp(
                -b.mu * (min(dists) - (1.0 + b.epsilon / b.mu) * v * abs(t)))
            assert anharm_bound_rhs(f, g, t, b, p, form="corollary") \
                == pytest.approx(cor, rel=1e-13)


def test_bound_rhs_scales_with_sup_norms():
    lat = TorusLattice(1, 8)
    f = WeylFunction.from_sites(lat, [((0,), 2.0)])
    g = WeylFunction.from_sites(lat, [((4,), 0.5 + 0.5j)])
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    p = PerturbationSpec.zero()
    one = anharm_bound_rhs(WeylFunction.delta(lat, (0,)),
                           WeylFunction.delta(lat, (4,)), 0.3, b, p)
    assert anharm_bound_rhs(f, g, 0.3, b, p) == pytest.approx(
        2.0 * abs(0.5 + 0.5j) * one, rel=1e-12)


@pytest.mark.parametrize("n_sites, tag", [(3, "site_p"), (2, "bond")])
@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_momentum_and_bond_perturbations_obey_the_bound(n_sites, tag, alpha):
    # acceptance 7's check under the other two tags: the Fock oracle's
    # norms at trunc 16, refined by a dn = 4 gate that must pass, against
    # C e^((mu+eps) v t) F_mu(d) in the Z^nu limit.  The 2-ring is the
    # L = 1 torus, where that is anharm_bound_rhs itself.
    b = AnharmonicBoundParams(1.0, 1.0, C11)
    pert = PerturbationSpec.gaussian(alpha, tag)
    C, _, v = anharm_constants(b, pert)
    times = np.array([0.05, 0.15, 0.3])
    f, g = np.eye(n_sites, dtype=complex)[:2]
    sys = FockSystem(n_sites, 16, C11, perturbation=pert)
    small = commutator_front(sys, f, g, times, n_low=4).norms
    norms, change, ok = truncation_gate(sys, f, g, times, small, dn=4,
                                        tol=1e-4, n_low=4)
    assert ok, f"gate change {change:.2e} exceeds 1e-4"
    rhs = (C * np.exp((b.mu + b.epsilon) * v * times)
           * F_mu(b.mu, 1, ring_distance(n_sites, 0, 1)))
    if n_sites == 2:
        lat = TorusLattice(1, 1)
        assert anharm_bound_rhs(WeylFunction(lat, f), WeylFunction(lat, g),
                                times, b, pert, z_limit=True) \
            == pytest.approx(rhs, rel=1e-12)
    assert np.all(norms > 0) and np.all(rhs - norms >= 0)


def test_distance_two_norms_obey_the_bound_and_grow_as_t_to_the_2d():
    # the oracle at distance 2: a 4-ring (the L = 2 torus) with f at site
    # 0 and g at site 2, gated from trunc 8 to trunc 12 (dim 20736, the
    # oracle's cap).  At lambda = 0.5 and amplitude 0.5 the gate change is
    # about 7e-6, a 14x margin on its 1e-4 tolerance.  The norms grow at
    # least as t^(2d), the order of the harmonic bound's small-time form,
    # and the Z^nu anharmonic bound dominates them.
    c = Couplings(1.0, (0.5,))
    b = AnharmonicBoundParams(1.0, 1.0, c)
    pert = PerturbationSpec.gaussian(0.1)
    times = np.array([0.05, 0.15, 0.3])
    f, g = 0.5 * np.eye(4, dtype=complex)[[0, 2]]
    sys = FockSystem(4, 8, c, perturbation=pert)
    small = commutator_front(sys, f, g, times, n_low=4).norms
    norms, change, ok = truncation_gate(sys, f, g, times, small, dn=4,
                                        tol=1e-4, n_low=4)
    assert ok, f"gate change {change:.2e} exceeds 1e-4"
    d = ring_distance(4, 0, 2)
    slopes = np.diff(np.log(norms)) / np.diff(np.log(times))
    assert np.all(slopes >= 2 * d), slopes
    lat = TorusLattice(1, 2)
    rhs = anharm_bound_rhs(WeylFunction(lat, f), WeylFunction(lat, g),
                           times, b, pert, z_limit=True)
    assert np.all(norms > 0) and np.all(rhs - norms >= 0)
