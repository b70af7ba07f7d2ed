"""The four exponential-bound evaluators (kernel envelope, harmonic,
anharmonic and bounded-interaction bounds) share one log-space kernel.
Wherever the per-pair product form of a bound is finite, the kernel must
agree with it to 1e-12 relative; where a factor of that product leaves the
float range, the kernel must still give the bound, or refuse it."""

import numpy as np
import pytest

from latticebounds.anharmonic import AnharmonicBoundParams, F_mu, \
    PerturbationSpec, anharm_bound_rhs, anharm_constants
from latticebounds.genbounds import InteractionGraph, decay_constants, \
    interaction_norm, l1_metric, phi_boundary, power_law, power_law_zeta, \
    theorem_phi_bound
from latticebounds.kernels import EnvelopeParams, envelope, velocity
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import HarmonicBoundParams, WeylFunction, \
    geometric_lattice_sum, harmonic_bound_rhs

TIMES = [-1.3, 0.0, 0.05, 0.4, 1.1, 2.5]
RTOL = 1e-12


def assert_matches(got, product):
    """got() equals the product form where that form is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = product()
    if np.all(np.isfinite(want)):
        np.testing.assert_allclose(got(), want, rtol=RTOL, atol=0.0)


LAT1, LAT2 = TorusLattice(1, 12), TorusLattice(2, 5)
C1, C2 = Couplings(1.0, (0.25,)), Couplings(0.8, (0.5, 1.2))
# (f, g, couplings): supports 10 apart on the chain; several pairs at
# several distances on the square lattice
PAIRS = {
    "chain": (WeylFunction.from_sites(LAT1, [((-6,), 1 + 0.5j),
                                             ((-5,), -0.3j)]),
              WeylFunction.from_sites(LAT1, [((5,), 0.7), ((6,), 0.2 - 0.4j)]),
              C1),
    "square": (WeylFunction.from_sites(LAT2, [((0, 0), 1.0), ((1, 0), 0.4j),
                                              ((0, -2), -0.8)]),
               WeylFunction.from_sites(LAT2, [((3, 1), 0.6), ((-4, 2), 1j)]),
               C2),
}


def pair_table(f, g):
    return f.lattice.distance(f.support_sites()[:, None],
                              g.support_sites()[None])


def harmonic_product(f, g, t, p, form):
    c, mu = p.couplings, p.mu
    v = velocity(c, mu)
    C = 2.0 + c.c_max * np.exp(mu / 2.0) + 1.0 / c.c_max
    norms = f.sup_norm * g.sup_norm
    d = pair_table(f, g)
    at = abs(t)
    theorem = C * norms * np.sum(np.exp(-mu * (d - v * at)))
    if form == "theorem":
        return theorem
    if form == "small_time":
        return at ** (2 * int(d.min())) * theorem
    size = min(len(f.support), len(g.support))
    return (C * geometric_lattice_sum(mu * (1.0 - p.a), f.lattice.nu)
            * norms * size * np.exp(-mu * (p.a * d.min() - v * at)))


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("m", [-1, 0, 1])
def test_envelope_matches_the_product_form(m, mu):
    e = EnvelopeParams(mu, C2)
    r = np.arange(12)
    pref = {0: 1.0, 1: C2.c_max * np.exp(mu / 2.0), -1: 1.0 / C2.c_max}[m]
    for t in TIMES:
        assert_matches(lambda: envelope(e, m, t, r), lambda: pref * np.exp(
            -mu * (r - velocity(C2, mu) * abs(t))))


@pytest.mark.parametrize("form", ["theorem", "corollary", "small_time"])
@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_harmonic_bound_matches_the_product_form(pair, mu, form):
    f, g, c = PAIRS[pair]
    p = HarmonicBoundParams(mu, c, a=0.5)
    if form == "small_time" and not \
            pair_table(f, g).min() > 1.0 + c.c_max * np.exp(mu / 2.0 + 1.0):
        with pytest.raises(ValueError, match="small-time"):
            harmonic_bound_rhs(f, g, 0.5, p, form=form)
        return
    for t in TIMES:
        assert_matches(lambda: harmonic_bound_rhs(f, g, t, p, form=form),
                       lambda: harmonic_product(f, g, t, p, form))


@pytest.mark.parametrize("z_limit", [False, True])
@pytest.mark.parametrize("form", ["theorem", "corollary"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_anharmonic_bound_matches_the_product_form(pair, form, z_limit):
    f, g, c = PAIRS[pair]
    b = AnharmonicBoundParams(1.5, 0.5, c)
    pert = PerturbationSpec.gaussian(0.3)
    C, _, v = anharm_constants(b, pert, None if z_limit else f.lattice)
    norms = f.sup_norm * g.sup_norm
    d = pair_table(f, g)
    size = min(len(f.support), len(g.support))
    for t in TIMES:
        at = abs(t)
        if form == "theorem":
            def want():
                return (C * norms * np.exp(2.0 * v * at)
                        * np.sum(F_mu(b.mu, b.nu, d)))
        else:
            def want():
                return (C * power_law_zeta(b.nu) * norms * size * np.exp(
                    -b.mu * (d.min() - (1.0 + 0.5 / 1.5) * v * at)))
        assert_matches(lambda: anharm_bound_rhs(
            f, g, t, b, pert, form=form, z_limit=z_limit), want)


CHAIN = InteractionGraph(l1_metric([(i,) for i in range(10)]),
                         [({i, i + 1}, 1.0) for i in range(9)])
GRAPH = InteractionGraph(l1_metric([(0, 0), (1, 0), (1, 1), (2, 1), (3, 1),
                                    (3, 2)]),
                         [({0, 1}, 0.1), ({1, 2}, 0.05), ({2, 3, 4}, 0.02),
                          ({4, 5}, 0.1)])
GRAPHS = {"chain": (CHAIN, {0, 1}, {7, 8, 9}), "graph": (GRAPH, {0}, {4, 5}),
          "overlap": (GRAPH, {0, 1}, {1, 5})}


def phi_product(G, F, X, Y, nA, nB, t, form, nu):
    dxy = min(G.d[x, y] for x in X for y in Y)
    bX, bY = phi_boundary(G, X), phi_boundary(G, Y)
    nb = min(len(bX), len(bY))
    at = abs(t)
    if form == "lrexp":
        phia = interaction_norm(G, power_law(nu + 1).with_a(F.a))
        Cbig = 2.0 ** (nu + 1) * power_law_zeta(nu)
        return (2.0 ** (-(nu + 1)) * nA * nB * nb
                * np.exp(-(F.a * dxy - 2.0 * phia * Cbig * at)))
    _, ca = decay_constants(G, F)
    phia = interaction_norm(G, F)
    if form == "theorem":
        ga = np.exp(2.0 * phia * ca * at) - (1.0 if dxy > 0 else 0.0)
        da = min(sum(F.f(G.d[x, y]) for x in bX for y in Y),
                 sum(F.f(G.d[x, y]) for x in X for y in bY))
        return 2.0 * nA * nB / ca * ga * da
    normF0, _ = decay_constants(G, F.with_a(0.0))
    return (2.0 * nA * nB * normF0 / ca * nb
            * np.exp(-F.a * (dxy - 2.0 * phia * ca / F.a * at)))


@pytest.mark.parametrize("form", ["theorem", "corollary", "lrexp"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_phi_bound_matches_the_product_form(graph, form):
    G, X, Y = GRAPHS[graph]
    F = power_law(3.0).with_a(0.4)
    # nu = 1 on the chain; the graph's points are in Z^2
    nu = 1 if graph == "chain" else 2
    for t in TIMES:
        assert_matches(
            lambda: theorem_phi_bound(G, F, X, Y, 1.5, 0.5, t, form=form,
                                      nu=nu),
            lambda: phi_product(G, F, X, Y, 1.5, 0.5, t, form, nu))


def test_harmonic_bound_is_finite_where_the_product_underflows():
    # C e^(-mu d) at t = 0 with C = 2 + sqrt(5) e^650 + 1/sqrt(5) and
    # e^(-1300) below the float range; the bound is sqrt(5) e^(-650) to
    # far below round-off
    lat = TorusLattice(1, 4)
    p = HarmonicBoundParams(1300.0, Couplings(1.0, (1.0,)))
    got = harmonic_bound_rhs(WeylFunction.delta(lat, (0,)),
                             WeylFunction.delta(lat, (1,)), 0.0, p)
    assert got == pytest.approx(np.sqrt(5.0) * np.exp(-650.0), rel=1e-12)


def test_values_outside_the_float_range_are_refused():
    c = Couplings(1.0, (1.0,))
    with pytest.raises(ValueError, match="fit in a float"):
        velocity(c, 1500.0)
    # kappa_V = 0.5 * 1e300^2 overflows to inf, and so would v
    b = AnharmonicBoundParams(1.0, 1.0, c)
    with pytest.raises(ValueError, match="fit in a float"):
        anharm_constants(b, PerturbationSpec.cosine(0.5, 1e300))
    with pytest.raises(ValueError, match=r"t = 1000 does not fit"):
        theorem_phi_bound(CHAIN, power_law(2.0).with_a(0.5), {0}, {9}, 1.0,
                          1.0, [1.0, 1e3], form="corollary")
