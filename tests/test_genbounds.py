import itertools
import warnings

import numpy as np
import pytest
from scipy.special import zeta

from latticebounds.genbounds import (DecayFunction, InteractionGraph,
                                     decay_constants, interaction_norm,
                                     l1_metric, phi_boundary,
                                     phi_boundary_and_D, power_law,
                                     power_law_zeta, theorem_phi_bound)


def random_graph(rng, n=None, nu=2):
    """Random integer point cloud with random few-body terms."""
    n = n or int(rng.integers(4, 9))
    pts = rng.integers(-6, 7, size=(n, nu))
    # distinct points so the metric axioms hold
    while len({tuple(p) for p in pts}) < n:
        pts = rng.integers(-6, 7, size=(n, nu))
    terms = []
    for _ in range(int(rng.integers(3, 9))):
        k = int(rng.integers(1, 4))
        Z = rng.choice(n, size=k, replace=False)
        terms.append((set(int(i) for i in Z), float(rng.uniform(0, 2))))
    return InteractionGraph(l1_metric(pts), terms)


def brute_norm_and_conv(G, F):
    n = G.n
    norm = max(sum(F.f(G.d[x, z]) for z in range(n)) for x in range(n))
    conv = max(sum(F.f(G.d[x, z]) * F.f(G.d[z, y]) for z in range(n))
               / F.f(G.d[x, y])
               for x in range(n) for y in range(n))
    return norm, conv


def brute_interaction_norm(G, F):
    best = 0.0
    for x in range(G.n):
        for y in range(G.n):
            s = sum(nm for Z, nm in G.terms if x in Z and y in Z)
            if s:
                best = max(best, s / F.f(G.d[x, y]))
    return best


def brute_boundary(G, X):
    out = set()
    for Z, nm in G.terms:
        if nm > 0 and any(i in X for i in Z) and any(i not in X for i in Z):
            out |= {i for i in Z if i in X}
    return frozenset(out)


def test_against_brute_force_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        G = random_graph(rng)
        F = power_law(float(rng.uniform(1.5, 4))).with_a(
            float(rng.uniform(0, 1)))
        assert decay_constants(G, F) == pytest.approx(
            brute_norm_and_conv(G, F), rel=1e-12)
        assert interaction_norm(G, F) == pytest.approx(
            brute_interaction_norm(G, F), rel=1e-12)
        sites = list(range(G.n))
        X = set(sites[: G.n // 2])
        Y = set(sites[G.n // 2:])
        assert phi_boundary(G, X) == brute_boundary(G, X)
        bX, bY, da = phi_boundary_and_D(G, F, X, Y)
        s1 = sum(F.f(G.d[x, y]) for x in bX for y in Y)
        s2 = sum(F.f(G.d[x, y]) for x in X for y in bY)
        assert da == pytest.approx(min(s1, s2))


def test_bound_vanishes_at_t0_for_separated_sets():
    rng = np.random.default_rng(1)
    pts = [(0, 0), (1, 0), (3, 1), (4, 1)]
    G = InteractionGraph(l1_metric(pts), [({0, 1}, 1.0), ({2, 3}, 0.7),
                                          ({1, 2}, 0.2)])
    F = power_law(2.0).with_a(0.2)
    # g_a(0) = e^0 - 1 = 0 whenever the sets are at positive distance
    assert theorem_phi_bound(G, F, {0}, {3}, 1.0, 1.0, 0.0) == 0.0
    assert theorem_phi_bound(G, F, {0}, {0, 3}, 1.0, 1.0, 0.0) > 0.0
    for t in (0.01, 0.05, 0.2):
        assert theorem_phi_bound(G, F, {0}, {3}, 1.0, 1.0, t) > 0.0


def test_bound_scales_with_observable_norms():
    pts = [(0,), (1,), (4,)]
    G = InteractionGraph(l1_metric(pts), [({0, 1}, 1.0), ({1, 2}, 1.0)])
    F = power_law(2.0).with_a(0.3)
    b1 = theorem_phi_bound(G, F, {0}, {2}, 1.0, 1.0, 0.7)
    b2 = theorem_phi_bound(G, F, {0}, {2}, 3.0, 0.5, 0.7)
    assert b2 == pytest.approx(1.5 * b1)


def test_power_law_zeta_one_dimensional_closed_form():
    # sum over Z of (1+|x|)^-2 = 2 zeta(2) - 1
    assert power_law_zeta(1) == pytest.approx(2.0 * zeta(2.0, 1.0) - 1.0,
                                              rel=1e-12)


def test_power_law_zeta_two_dimensional_regression():
    # frozen after summation converged against rmax 4000 to 1e-13
    assert power_law_zeta(2) == pytest.approx(2.7715086547545287, rel=1e-12)


def test_power_law_zeta_agrees_with_direct_block_sum():
    for nu in (1, 2):
        R = 60
        grids = np.meshgrid(*([np.arange(-R, R + 1)] * nu))
        l1 = sum(np.abs(g) for g in grids)
        direct = np.sum((1.0 + l1[l1 <= R]) ** (-nu - 1))
        # the block misses only the far tail
        assert power_law_zeta(nu) > direct
        assert power_law_zeta(nu) == pytest.approx(direct, rel=5e-2)


# sum over Z^nu of (1+|x|)^(-nu-1) to 20 digits, computed as
# 1 + sum_j a_j (zeta(nu+1-j) - 1), where a_j are the exact rational
# coefficients of the l1 shell count c_nu(r) = sum_j a_j (1+r)^j (r >= 1),
# evaluated with 60-digit Riemann zeta values; a 60-digit quadrature of
# the integral form agrees to 1e-58
ZETA_NU = {
    1: 2.2898681336964528729,
    2: 2.7715086547545286043,
    3: 2.4572204443829806118,
    4: 1.9055900279867326903,
    5: 1.4737952238780786410,
    6: 1.2253854190516496957,
    7: 1.1038035185964103193,
    8: 1.0484617994792375010,
    9: 1.0234521077256986022,
    10: 1.0117720715112138791,
    11: 1.0060677659823376842,
    12: 1.0031765611012501374,
    13: 1.0016759032491044323,
    14: 1.0008869352127686081,
    15: 1.0004696641806033342,
    16: 1.0002485164470875380,
    17: 1.0001313088405880064,
    18: 1.0000692555257335668,
    19: 1.0000364562227266445,
    20: 1.0000191526764318664,
}


@pytest.mark.parametrize("nu", sorted(ZETA_NU))
def test_power_law_zeta_meets_the_references(nu):
    assert power_law_zeta(nu) == pytest.approx(ZETA_NU[nu], rel=1e-14,
                                               abs=0)


def test_power_law_zeta_is_finite_and_quiet_on_its_domain():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = np.array([power_law_zeta(nu) for nu in range(1, 1001)])
    assert np.all(np.isfinite(z)) and np.all(z >= 1.0)
    # the terms beyond x = 0 sum to about 2 nu 2^(-nu-1)
    assert np.all(z[59:] <= 1.0 + 1e-15)


def test_power_law_zeta_validation():
    with pytest.raises(ValueError):
        power_law_zeta(0)


def test_corollary_and_lrexp_require_positive_weight():
    pts = [(0,), (1,), (4,)]
    G = InteractionGraph(l1_metric(pts), [({0, 1}, 1.0), ({1, 2}, 1.0)])
    F = power_law(2.0)
    with pytest.raises(ValueError):
        theorem_phi_bound(G, F, {0}, {2}, 1.0, 1.0, 1.0, form="corollary")
    with pytest.raises(ValueError):
        theorem_phi_bound(G, F, {0}, {2}, 1.0, 1.0, 1.0, form="lrexp")
    with pytest.raises(ValueError):
        theorem_phi_bound(G, F.with_a(0.5), {0}, {2}, 1.0, 1.0, 1.0,
                          form="lrexp")  # nu missing
    with pytest.raises(ValueError):
        theorem_phi_bound(G, F, {0}, {2}, 1.0, 1.0, 1.0, form="bogus")


def test_corollary_dominates_theorem_at_long_distance():
    # once the exponential tail takes over the corollary stays above the
    # D_a-weighted form for short times
    pts = [(i,) for i in range(12)]
    G = InteractionGraph(l1_metric(pts),
                         [({i, i + 1}, 1.0) for i in range(11)])
    F = power_law(2.0).with_a(1.0)
    th = theorem_phi_bound(G, F, {0}, {11}, 1.0, 1.0, 0.05)
    co = theorem_phi_bound(G, F, {0}, {11}, 1.0, 1.0, 0.05,
                           form="corollary")
    assert th <= co


def test_lrexp_form_values():
    pts = [(i,) for i in range(6)]
    G = InteractionGraph(l1_metric(pts),
                         [({i, i + 1}, 0.5) for i in range(5)])
    a, nu, t = 0.7, 1, 0.3
    F = power_law(nu + 1.0).with_a(a)
    got = theorem_phi_bound(G, F, {0}, {5}, 1.0, 1.0, t, form="lrexp", nu=nu)
    phia = interaction_norm(G, F)
    C = 2.0 ** (nu + 1) * power_law_zeta(nu)
    expect = 2.0 ** (-(nu + 1)) * 1 * np.exp(-(a * 5 - 2 * phia * C * t))
    assert got == pytest.approx(expect, rel=1e-12)


def test_metric_validation_rejects_bad_tables():
    terms = [({0, 1}, 1.0)]
    bad_diag = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        InteractionGraph(bad_diag, terms)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        InteractionGraph(asym, terms)
    degenerate = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        InteractionGraph(degenerate, terms)
    no_triangle = np.array([[0.0, 1.0, 5.0],
                            [1.0, 0.0, 1.0],
                            [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        InteractionGraph(no_triangle, terms)


def test_from_points_skips_only_the_triangle_scan(monkeypatch):
    pts = [(0, 0), (2, -1), (1, 3), (-2, 2)]
    terms = [({0, 1}, 1.0), ({1, 2, 3}, 0.5)]
    full = InteractionGraph(l1_metric(pts), terms)

    def scan(self):
        raise AssertionError("triangle scan of an l1 metric")

    monkeypatch.setattr(InteractionGraph, "_check_triangle", scan)
    G = InteractionGraph.from_points(pts, terms)
    assert np.array_equal(G.d, full.d) and G.terms == full.terms
    # the O(n^2) checks still run: a repeated point has distance 0
    with pytest.raises(ValueError, match="positive distance"):
        InteractionGraph.from_points(pts + [pts[1]], terms)
    with pytest.raises(ValueError, match="subsets"):
        InteractionGraph.from_points(pts, [({0, 7}, 1.0)])


def test_term_validation():
    d = l1_metric([(0,), (1,)])
    with pytest.raises(ValueError):
        InteractionGraph(d, [(set(), 1.0)])
    with pytest.raises(ValueError):
        InteractionGraph(d, [({0, 5}, 1.0)])
    with pytest.raises(ValueError):
        InteractionGraph(d, [({0, 1}, -1.0)])


def test_decay_function_validation():
    with pytest.raises(ValueError):
        DecayFunction(lambda r: 1.0, a=-0.1)
    F = DecayFunction(lambda r: -1.0)
    with pytest.raises(ValueError):
        F.f(1.0)


def test_bound_sets_must_be_nonempty_site_subsets():
    G = InteractionGraph(l1_metric([(0,), (1,), (2,)]),
                         [({0, 1}, 1.0), ({1, 2}, 1.0)])
    F = power_law(2.0).with_a(0.5)
    # -1 used to wrap to the last site, 99 to raise IndexError
    for bad in (set(), {-1}, {3}, {99}):
        for form in ("theorem", "corollary", "lrexp"):
            with pytest.raises(ValueError, match="subset"):
                theorem_phi_bound(G, F, bad, {2}, 1.0, 1.0, 0.5, form=form,
                                  nu=1)
            with pytest.raises(ValueError, match="subset"):
                theorem_phi_bound(G, F, {0}, bad, 1.0, 1.0, 0.5, form=form,
                                  nu=1)


def test_decay_table_keeps_the_positivity_check():
    d = l1_metric([(0,), (1,), (3,)])
    F = power_law(2.0).with_a(0.3)
    assert np.array_equal(F.table(d), np.vectorize(F.f)(d))
    with pytest.raises(ValueError, match="not positive"):
        DecayFunction(lambda r: 2.0 - r).table(d)
    with pytest.raises(ValueError, match="not positive"):
        DecayFunction(lambda r: -1.0).table(d)


def test_power_law_zeta_needs_its_tail_nodes():
    with pytest.raises(ValueError):
        power_law_zeta(1001)
    with pytest.raises(ValueError):
        power_law_zeta(10 ** 7)


def test_decay_value_is_the_table_at_one_distance():
    F = power_law(2.5).with_a(0.3)
    for r in (0, 1, 2.5, np.float64(7.0), 40):
        assert F.f(r) == F.table(r) and type(F.f(r)) is float
    assert np.array_equal(F.table(np.arange(6.0)),
                          [F.f(r) for r in range(6)])
    # e^(-800 r) underflows to 0 from r = 1 on
    far = power_law(2.0).with_a(800.0)
    for r in (1, 2.5):
        with pytest.raises(ValueError) as by_f:
            far.f(r)
        with pytest.raises(ValueError) as by_table:
            far.table(r)
        assert str(by_f.value) == str(by_table.value) == \
            f"F_a({r}) = 0.0 is not positive"
