import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticebounds.kernels import compute_h, velocity
from latticebounds.torus import Couplings, TorusLattice, dispersion
from latticebounds.weyl import (HarmonicBoundParams, WeylFunction,
                                commutator_norm_exact, evolve,
                                evolve_mode_space, geometric_lattice_sum,
                                harmonic_bound_rhs, support_distance,
                                symplectic_form)

C11 = Couplings(1.0, (1.0,))
LAT = TorusLattice(1, 8)


def random_field(lat, rng):
    return WeylFunction(lat, rng.standard_normal(lat.n_sites)
                        + 1j * rng.standard_normal(lat.n_sites))


def classical_flow_evolve(lat, c, f, t):
    """Independent oracle: evolve the Weyl argument by the classical flow
    of the quadratic Hamiltonian, built from its dense stiffness matrix."""
    n = lat.n_sites
    K = np.eye(n) * c.omega**2
    for i in range(n):
        x = lat.sites[i]
        for j, lam in enumerate(c.lam):
            e = np.zeros(lat.nu, dtype=int)
            e[j] = 1
            k = lat.index(lat.wrap(x + e))
            K[i, i] += lam
            K[k, k] += lam
            K[i, k] -= lam
            K[k, i] -= lam
    w, v = np.linalg.eigh(K)
    cos = (v * np.cos(2 * np.sqrt(w) * t)) @ v.T
    sin = (v * np.sin(2 * np.sqrt(w) * t)) @ v.T
    om = (v * np.sqrt(w)) @ v.T
    ominv = (v * (1.0 / np.sqrt(w))) @ v.T
    re = cos @ f.values.real - om @ sin @ f.values.imag
    im = ominv @ sin @ f.values.real + cos @ f.values.imag
    return re + 1j * im


def test_support_is_derived_from_the_values():
    vals = np.zeros(LAT.n_sites, dtype=complex)
    vals[[5, 3]] = 1.0, -2j
    with pytest.raises(ValueError):
        WeylFunction(LAT, vals[:-1])
    f = WeylFunction(LAT, vals)
    assert f.support.tolist() == [3, 5]
    assert np.array_equal(f.support_sites(), LAT.sites[[3, 5]])
    assert f.sup_norm == 2.0


def test_evolution_is_identity_at_time_zero():
    rng = np.random.default_rng(0)
    f = random_field(LAT, rng)
    assert np.max(np.abs(evolve(f, 0.0, couplings=C11).values
                         - f.values)) < 1e-12


def test_group_law():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_field(LAT, rng)
        s, t = rng.uniform(-2, 2, size=2)
        one = evolve(evolve(f, s, couplings=C11), t, couplings=C11)
        both = evolve(f, s + t, couplings=C11)
        assert np.max(np.abs(one.values - both.values)) < 1e-9


def test_symplectic_form_is_conserved():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g = random_field(LAT, rng), random_field(LAT, rng)
        t = float(rng.uniform(-3, 3))
        before = symplectic_form(f, g)
        after = symplectic_form(evolve(f, t, couplings=C11),
                                evolve(g, t, couplings=C11))
        assert after == pytest.approx(before, abs=1e-9)


def test_symplectic_form_antisymmetric():
    rng = np.random.default_rng(3)
    f, g = random_field(LAT, rng), random_field(LAT, rng)
    assert symplectic_form(f, g) == pytest.approx(-symplectic_form(g, f))
    assert symplectic_form(f, f) == pytest.approx(0.0)


def test_mode_space_oracle_agrees():
    rng = np.random.default_rng(4)
    for nu, L in [(1, 8), (2, 3)]:
        lat = TorusLattice(nu, L)
        c = Couplings(1.0, tuple([1.0] * nu))
        for _ in range(5):
            f = random_field(lat, rng)
            t = float(rng.uniform(-3, 3))
            a = evolve(f, t, couplings=c).values
            b = evolve_mode_space(f, t, c).values
            assert np.max(np.abs(a - b)) < 1e-10


def test_classical_flow_oracle_agrees():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_field(LAT, rng)
        t = float(rng.uniform(-2, 2))
        a = evolve(f, t, couplings=C11).values
        b = classical_flow_evolve(LAT, C11, f, t)
        assert np.max(np.abs(a - b)) < 1e-10


def test_evolution_is_real_linear():
    rng = np.random.default_rng(6)
    f, g = random_field(LAT, rng), random_field(LAT, rng)
    t = 0.8
    lhs = evolve(WeylFunction(LAT, 2.5 * f.values + g.values), t,
                 couplings=C11).values
    rhs = 2.5 * evolve(f, t, couplings=C11).values \
        + evolve(g, t, couplings=C11).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_zero_omega_evolution_group_law():
    c = Couplings(0.0, (1.0,))
    rng = np.random.default_rng(7)
    f = random_field(LAT, rng)
    one = evolve(evolve(f, 0.4, couplings=c), 0.9, couplings=c)
    both = evolve(f, 1.3, couplings=c)
    assert np.max(np.abs(one.values - both.values)) < 1e-9


def parent_route_kernels(lat, c, t):
    """The evolution kernels (h1, h2), written out: the three Fourier sums
    with every mode of gamma(k) = 0 masked and replaced by the free
    particle, e^(ikx) (1 - it)/N and e^(ikx) it/N."""
    n = lat.n_sites
    gam = np.atleast_1d(dispersion(c, lat.dual))
    phase = np.exp(-2j * gam * t)
    mask = gam == 0
    phase = np.where(mask, 0.0, phase)
    inv_gam = np.divide(1.0, gam, out=np.zeros_like(gam), where=~mask)
    waves = np.exp(1j * lat.sites @ lat.dual.T) / n  # waves[x, k]
    s0, s1, sm1, free = (waves @ w for w in
                         (phase, gam * phase, inv_gam * phase, mask))
    return (s0.real + 0.5j * (s1.imag + sm1.imag) + (1.0 - 1j * t) * free,
            0.5j * (s1.imag - sm1.imag) + 1j * t * free)


def parent_route_evolve(lat, c, f, t):
    """The real-space route: the kernels of parent_route_kernels, then two
    periodic convolutions."""
    h1, h2 = parent_route_kernels(lat, c, t)
    # diff[x, y] = index of x - y
    diff = np.array([[lat.index(lat.wrap(x - y)) for y in lat.sites]
                     for x in lat.sites])
    return f @ np.conj(h1)[diff].T + np.conj(f) @ h2[diff].T


# at omega = 1e-300, gamma(0) underflows to 0 as at omega = 0; no keyword
# selects the free particle there
@pytest.mark.parametrize("omega", [0.0, 0.7, 1e-300])
@pytest.mark.parametrize("nu,L", [(1, 8), (2, 3), (3, 2)])
def test_evolve_matches_the_real_space_kernel_route(nu, L, omega):
    lat = TorusLattice(nu, L)
    c = Couplings(omega, (1.0, 0.6, 1.3)[:nu])
    rng = np.random.default_rng(nu)
    f = random_field(lat, rng)
    g = random_field(lat, rng)
    for t in (0.0, 0.45, 1.7):
        h1, h2 = compute_h(lat, c, t)
        f_t = evolve(f, t, c).values
        want_f_t = parent_route_evolve(lat, c, f.values, t)
        for got, want in zip((h1.values, h2.values, f_t),
                             (*parent_route_kernels(lat, c, t), want_f_t)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) < 1e-12
        sigma = np.imag(np.vdot(g.values, want_f_t))
        assert commutator_norm_exact(f, g, t, c) == pytest.approx(
            2.0 * abs(np.sin(sigma / 2.0)), abs=1e-12)


def test_legacy_zero_omega_keyword_agrees_with_omega():
    f = random_field(LAT, np.random.default_rng(5))
    gapped, free = Couplings(0.7, (1.0,)), Couplings(0.0, (1.0,))
    for c, flag in ((gapped, False), (free, True)):
        assert np.array_equal(evolve(f, 1.3, c, zero_omega=flag).values,
                              evolve(f, 1.3, c).values)
    with pytest.raises(ValueError, match="omega = 0"):
        evolve(f, 1.0, gapped, zero_omega=True)
    with pytest.raises(ZeroDivisionError):
        evolve(f, 1.0, free, zero_omega=False)


def test_commutator_norm_range_and_t0():
    f = WeylFunction.delta(LAT, (0,))
    g = WeylFunction.delta(LAT, (4,))
    assert commutator_norm_exact(f, g, 0.0, couplings=C11) == 0.0
    for t in (0.5, 2.0, 7.0):
        v = commutator_norm_exact(f, g, t, couplings=C11)
        assert 0.0 <= v <= 2.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15),
       st.floats(-4, 4, allow_nan=False),
       st.floats(0.3, 2.0, allow_nan=False))
def test_bound_dominates_exact_norm(i, j, t, mu):
    if i == j:
        return
    f = WeylFunction.from_sites(LAT, [(LAT.sites[i], 1.0 + 0.4j)])
    g = WeylFunction.from_sites(LAT, [(LAT.sites[j], -0.8 + 0.1j)])
    lhs = commutator_norm_exact(f, g, t, couplings=C11)
    rhs = harmonic_bound_rhs(f, g, t, HarmonicBoundParams(mu, C11))
    assert lhs <= rhs + 1e-12


def random_multisite_pair(lat, rng, nx, ny):
    """Weyl arguments on disjoint random supports of sizes nx and ny."""
    sites = rng.permutation(lat.n_sites)

    def field(idx):
        return WeylFunction.from_sites(
            lat, [(lat.sites[s], rng.standard_normal()
                   + 1j * rng.standard_normal()) for s in idx])
    return field(sites[:nx]), field(sites[nx:nx + ny])


def test_bound_dominates_on_multisite_supports():
    rng = np.random.default_rng(8)
    p = HarmonicBoundParams(1.0, C11, a=0.5)
    for _ in range(50):
        f, g = random_multisite_pair(LAT, rng, 3, 2)
        t = float(rng.uniform(-2, 2))
        lhs = commutator_norm_exact(f, g, t, couplings=C11)
        assert lhs <= harmonic_bound_rhs(f, g, t, p) + 1e-12
        assert lhs <= harmonic_bound_rhs(f, g, t, p, form="corollary") + 1e-12


def test_bound_forms_against_brute_pair_loop():
    lat = TorusLattice(2, 4)
    c = Couplings(0.8, (1.0, 0.5))
    p = HarmonicBoundParams(0.9, c, a=0.6)
    v = velocity(c, p.mu)
    C = 2.0 + c.c_max * np.exp(p.mu / 2.0) + 1.0 / c.c_max
    rng = np.random.default_rng(12)
    for nx, ny in [(1, 1), (3, 5), (7, 4)]:
        f, g = random_multisite_pair(lat, rng, nx, ny)
        dists = [lat.distance(x, y) for x in f.support_sites()
                 for y in g.support_sites()]
        norms = f.sup_norm * g.sup_norm
        for t in (-1.3, 0.0, 0.7):
            pair = sum(np.exp(-p.mu * (d - v * abs(t))) for d in dists)
            assert harmonic_bound_rhs(f, g, t, p) == pytest.approx(
                C * norms * pair, rel=1e-13)
            ct = C * geometric_lattice_sum(p.mu * (1.0 - p.a), 2)
            cor = ct * norms * min(nx, ny) * np.exp(
                -p.mu * (p.a * min(dists) - v * abs(t)))
            assert harmonic_bound_rhs(f, g, t, p, form="corollary") \
                == pytest.approx(cor, rel=1e-13)
        assert support_distance(f, g) == min(dists)


def test_small_time_form():
    lat = TorusLattice(1, 16)
    f = WeylFunction.delta(lat, (0,))
    p = HarmonicBoundParams(0.1, C11)
    # the small-time variant needs d(X,Y) > 1 + c_max * e^(mu/2 + 1)
    threshold = 1.0 + C11.c_max * np.exp(0.05 + 1.0)
    g_near = WeylFunction.delta(lat, (int(threshold),))
    with pytest.raises(ValueError):
        harmonic_bound_rhs(f, g_near, 0.1, p, form="small_time")
    g = WeylFunction.delta(lat, (14,))
    for t in (0.01, 0.05, 0.1):
        lhs = commutator_norm_exact(f, g, t, couplings=C11)
        assert lhs <= harmonic_bound_rhs(f, g, t, p, form="small_time") + 1e-15


def test_corollary_requires_contraction_parameter():
    f = WeylFunction.delta(LAT, (0,))
    g = WeylFunction.delta(LAT, (4,))
    with pytest.raises(ValueError):
        harmonic_bound_rhs(f, g, 1.0, HarmonicBoundParams(1.0, C11),
                           form="corollary")
    with pytest.raises(ValueError):
        HarmonicBoundParams(1.0, C11, a=1.0)


def test_geometric_lattice_sum_closed_form():
    b = 0.7
    q = np.exp(-b)
    assert geometric_lattice_sum(b, 1) == pytest.approx((1 + q) / (1 - q))
    assert geometric_lattice_sum(b, 2) == pytest.approx(((1 + q) / (1 - q))**2)
    # against direct summation over a large block
    xs = np.arange(-200, 201)
    direct = np.sum(np.exp(-b * np.abs(xs)))
    assert geometric_lattice_sum(b, 1) == pytest.approx(direct, rel=1e-12)


def test_support_distance():
    f = WeylFunction.from_sites(LAT, [((0,), 1.0), ((1,), 1.0)])
    g = WeylFunction.from_sites(LAT, [((5,), 1.0), ((-7,), 2.0)])
    assert support_distance(f, g) == 4
