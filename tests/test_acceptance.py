"""Acceptance battery: ten end-to-end criteria, one reported line each.

Each test emits a single PASS/FAIL line; the lines are replayed in the
terminal summary (see conftest) so the battery reads as a checklist even
with output capture on.
"""

import filecmp
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from latticebounds.anharmonic import (AnharmonicBoundParams,
                                      PerturbationSpec, anharm_constants,
                                      kappa_V, F_mu)
from latticebounds.cli import main as cli_main
from latticebounds.clustering import (clustering_fit, ground_covariance,
                                      weyl_expectation)
from latticebounds.focksim import FockSystem, commutator_front, \
    ring_distance, truncation_gate
from latticebounds.genbounds import (DecayFunction, InteractionGraph,
                                     decay_constants, interaction_norm,
                                     l1_metric, phi_boundary,
                                     phi_boundary_and_D, theorem_phi_bound)
from latticebounds.kernels import (EnvelopeParams, compute_H,
                                   compute_H_direct, envelope)
from latticebounds.lightcone import extract_front, mu_star, optimal_velocity
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import (HarmonicBoundParams, WeylFunction,
                                commutator_norm_exact, evolve,
                                evolve_mode_space, harmonic_bound_rhs,
                                symplectic_form)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def report(num, name, ok, detail):
    from conftest import ACCEPTANCE_LINES
    line = (f"ACCEPTANCE {num:2d} {name:<24s} "
            f"{'PASS' if ok else 'FAIL'}  {detail}")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_01_kernel_domination():
    t0 = time.time()
    ts = np.linspace(0.0, 10.0, 40)
    worst = -np.inf
    for nu in (1, 2):
        for L in (8, 16, 32):
            lat = TorusLattice(nu, L)
            dist = lat.abs_l1()
            for om, la in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
                c = Couplings(om, tuple([la] * nu))
                for t in ts:
                    fields = {m: np.abs(compute_H(lat, c, m, float(t)).values)
                              for m in (-1, 0, 1)}
                    for mu in (0.5, 1.0, 2.0):
                        e = EnvelopeParams(mu, c)
                        for m in (-1, 0, 1):
                            gap = np.max(fields[m] - envelope(e, m, float(t),
                                                              dist))
                            worst = max(worst, float(gap))
    report(1, "kernel_domination", worst <= 1e-12,
           f"worst excess {worst:.2e}, {time.time() - t0:.1f}s")


def test_02_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        nu = int(rng.integers(1, 3))
        L = int(rng.choice([4, 6, 8]))
        lat = TorusLattice(nu, L)
        c = Couplings(float(rng.uniform(0.3, 2.0)),
                      tuple(rng.uniform(0.3, 2.0, nu)))
        m = int(rng.choice([-1, 0, 1]))
        t = float(rng.uniform(0, 5))
        i = int(rng.integers(lat.n_sites))
        fast = compute_H(lat, c, m, t).values[i]
        slow = compute_H_direct(lat, c, m, t, site_index=i)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1.0))
    lat = TorusLattice(1, 8)
    c = Couplings(1.0, (1.0,))
    mode_err = 0.0
    for _ in range(50):
        f = WeylFunction(lat, rng.standard_normal(lat.n_sites)
                         + 1j * rng.standard_normal(lat.n_sites))
        t = float(rng.uniform(-3, 3))
        mode_err = max(mode_err, float(np.max(np.abs(
            evolve(f, t, couplings=c).values
            - evolve_mode_space(f, t, c).values))))
    ok = worst < 1e-10 and mode_err < 1e-10
    report(2, "oracle_equivalence", ok,
           f"kernel {worst:.2e}, mode-space {mode_err:.2e}, "
           f"{time.time() - t0:.1f}s")


def test_03_weyl_invariants():
    t0 = time.time()
    rng = np.random.default_rng(12)
    lat = TorusLattice(1, 8)
    c = Couplings(1.0, (1.0,))
    e_id = e_grp = e_sym = 0.0
    for _ in range(500):
        f = WeylFunction(lat, rng.standard_normal(lat.n_sites)
                         + 1j * rng.standard_normal(lat.n_sites))
        g = WeylFunction(lat, rng.standard_normal(lat.n_sites)
                         + 1j * rng.standard_normal(lat.n_sites))
        s, t = rng.uniform(-2, 2, 2)
        e_id = max(e_id, float(np.max(np.abs(
            evolve(f, 0.0, couplings=c).values - f.values))))
        one = evolve(evolve(f, float(s), couplings=c), float(t), couplings=c)
        both = evolve(f, float(s + t), couplings=c)
        e_grp = max(e_grp, float(np.max(np.abs(one.values - both.values))))
        e_sym = max(e_sym, abs(
            symplectic_form(evolve(f, float(t), couplings=c),
                            evolve(g, float(t), couplings=c))
            - symplectic_form(f, g)))
    ok = e_id < 1e-12 and e_grp < 1e-9 and e_sym < 1e-9
    report(3, "weyl_invariants", ok,
           f"id {e_id:.1e}, group {e_grp:.1e}, sympl {e_sym:.1e}, "
           f"{time.time() - t0:.1f}s")


def test_04_harmonic_domination():
    t0 = time.time()
    rng = np.random.default_rng(13)
    lat = TorusLattice(1, 16)
    c = Couplings(1.0, (1.0,))
    violations = 0
    small_checked = 0
    for _ in range(1000):
        sites = rng.permutation(lat.n_sites)
        nf, ng = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = WeylFunction.from_sites(
            lat, [(lat.sites[s], rng.standard_normal()
                   + 1j * rng.standard_normal()) for s in sites[:nf]])
        g = WeylFunction.from_sites(
            lat, [(lat.sites[s], rng.standard_normal()
                   + 1j * rng.standard_normal())
                  for s in sites[nf:nf + ng]])
        t = float(rng.uniform(-3, 3))
        mu = float(rng.uniform(0.3, 2.0))
        p = HarmonicBoundParams(mu, c)
        lhs = commutator_norm_exact(f, g, t, couplings=c)
        if lhs > harmonic_bound_rhs(f, g, t, p) + 1e-12:
            violations += 1
        from latticebounds.weyl import support_distance
        if support_distance(f, g) > 1.0 + c.c_max * np.exp(mu / 2.0 + 1.0):
            small_checked += 1
            if lhs > harmonic_bound_rhs(f, g, t, p,
                                        form="small_time") + 1e-12:
                violations += 1
    report(4, "harmonic_domination", violations == 0,
           f"0 violations required, got {violations} "
           f"({small_checked} small-time cases), {time.time() - t0:.1f}s")


def test_05_velocity_and_lightcone():
    t0 = time.time()
    mu0 = mu_star()
    c = Couplings(1.0, (1.0,))
    lat = TorusLattice(1, 32)
    tgrid = np.linspace(0.05, 40, 400)
    rvals = list(range(1, lat.L + 1))
    table = np.empty((len(tgrid), lat.L))
    for i, t in enumerate(tgrid):
        hm1 = compute_H(lat, c, -1, float(t))
        for j, r in enumerate(rvals):
            table[i, j] = 2.0 * abs(np.sin(hm1.at((r,)) / 2.0))
    vels = {th: extract_front(tgrid, rvals, table, th,
                              r_max=lat.L - 2).fitted_velocity
            for th in (1e-2, 1e-3, 1e-4)}
    spread = (max(vels.values()) - min(vels.values())) / min(vels.values())
    vb = optimal_velocity(c)
    ok = (0.5 < mu0 < 1.0
          and abs(2.0 / mu0 - np.exp(mu0 / 2.0 + 1.0)) < 1e-10
          and vels[1e-3] <= vb <= 4.0 * c.c_max
          and spread < 0.10)
    report(5, "velocity_lightcone", ok,
           f"v(1e-3) {vels[1e-3]:.3f} <= {vb:.3f}, spread {spread:.1%}, "
           f"{time.time() - t0:.1f}s")


def test_06_general_framework():
    t0 = time.time()
    rng = np.random.default_rng(14)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        pts = rng.integers(-6, 7, size=(n, 2))
        while len({tuple(p) for p in pts}) < n:
            pts = rng.integers(-6, 7, size=(n, 2))
        terms = [(set(int(i) for i in rng.choice(n, int(rng.integers(1, 4)),
                                                 replace=False)),
                  float(rng.uniform(0, 2)))
                 for _ in range(int(rng.integers(3, 8)))]
        G = InteractionGraph(l1_metric(pts), terms)
        F = DecayFunction(lambda r, p=float(rng.uniform(1.5, 3)):
                          (1.0 + r) ** (-p), float(rng.uniform(0, 1)))
        normF, ca = decay_constants(G, F)
        b_norm = max(sum(F.f(G.d[x, z]) for z in range(n)) for x in range(n))
        b_conv = max(sum(F.f(G.d[x, z]) * F.f(G.d[z, y]) for z in range(n))
                     / F.f(G.d[x, y]) for x in range(n) for y in range(n))
        b_phi = max((sum(nm for Z, nm in G.terms if x in Z and y in Z)
                     / F.f(G.d[x, y]) for x in range(n) for y in range(n)
                     if sum(nm for Z, nm in G.terms if x in Z and y in Z)),
                    default=0.0)
        X = set(range(n // 2))
        Y = set(range(n // 2, n))
        bX = frozenset(i for Z, nm in G.terms if nm > 0
                       and Z & X and Z - X for i in Z & X)
        gX, gY, da = phi_boundary_and_D(G, F, X, Y)
        s1 = sum(F.f(G.d[x, y]) for x in gX for y in Y)
        s2 = sum(F.f(G.d[x, y]) for x in X for y in gY)
        if not (np.isclose(normF, b_norm, rtol=1e-12)
                and np.isclose(ca, b_conv, rtol=1e-12)
                and np.isclose(interaction_norm(G, F), b_phi, rtol=1e-12)
                and phi_boundary(G, X) == bX
                and np.isclose(da, min(s1, s2), rtol=1e-12)):
            mismatches += 1
    pts = [(0,), (1,), (5,)]
    G = InteractionGraph(l1_metric(pts), [({0, 1}, 1.0)])
    F = DecayFunction(lambda r: (1.0 + r) ** -2, 0.3)
    zero_ok = theorem_phi_bound(G, F, {0}, {2}, 1.0, 1.0, 0.0) == 0.0
    report(6, "general_framework", mismatches == 0 and zero_ok,
           f"{mismatches} mismatches over 50 graphs, g_a(0)=0 "
           f"{'ok' if zero_ok else 'BAD'}, {time.time() - t0:.1f}s")


def ring_gaussian_expectation(n_sites, c, amps):
    """Exact Gaussian <W(f)> on an n-site ring (any n, not just tori)."""
    ks = 2.0 * np.pi * np.arange(n_sites) / n_sites
    gam = np.sqrt(c.omega ** 2 + 4.0 * c.lam[0] * np.sin(ks / 2.0) ** 2)
    x = np.arange(n_sites)
    qq = np.array([np.sum(np.cos(ks * d) / gam) / (2 * n_sites)
                   for d in x])
    pp = np.array([np.sum(np.cos(ks * d) * gam) / (2 * n_sites)
                   for d in x])
    QQ = np.array([[qq[(i - j) % n_sites] for j in x] for i in x])
    PP = np.array([[pp[(i - j) % n_sites] for j in x] for i in x])
    re, im = amps.real, amps.imag
    return float(np.exp(-0.5 * (re @ QQ @ re + im @ PP @ im)))


def gaussian_kappa_by_quadrature(alpha):
    """integral |w| |vhat'(w)| dw for V(q) = alpha e^(-q^2/2), whose
    |vhat'(w)| = alpha |w| e^(-w^2/2) / sqrt(2 pi)."""
    return sum(quad(lambda w: alpha * w * w * np.exp(-w * w / 2.0)
                    / np.sqrt(2.0 * np.pi), lo, hi,
                    epsabs=1e-13, epsrel=1e-12)[0]
               for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))


def test_07_anharmonic_bound():
    t0 = time.time()
    kap_err = max(abs(kappa_V(PerturbationSpec.gaussian(a))
                      - gaussian_kappa_by_quadrature(a)) for a in (0.1, 0.5))
    b = AnharmonicBoundParams(1.0, 1.0, Couplings(1.0, (1.0,)))
    _, Cnu, _ = anharm_constants(b, PerturbationSpec.zero())
    cnu_err = abs(Cnu - 4.0 * (np.pi ** 2 / 3.0 - 1.0))
    c = Couplings(1.0, (1.0,))
    times = [0.05, 0.15, 0.3]
    worst_margin = np.inf
    gate_change = 0.0
    f = np.array([1.0, 0.0, 0.0], complex)
    g = np.array([0.0, 1.0, 0.0], complex)
    for alpha in (0.1, 0.5):
        pert = PerturbationSpec.gaussian(alpha)
        Cb, _, v = anharm_constants(b, pert)
        sys_ = FockSystem(3, 16, c, perturbation=pert)
        small = commutator_front(sys_, f, g, times, n_low=4).norms
        norms, change, ok = truncation_gate(sys_, f, g, times, small, dn=4,
                                            tol=1e-4, n_low=4)
        gate_change = max(gate_change, change)
        if not ok:
            report(7, "anharmonic_bound", False,
                   f"gate change {change:.2e} exceeds 1e-4")
        d01 = ring_distance(3, 0, 1)
        for t, nm in zip(times, norms):
            rhs = Cb * np.exp(2.0 * v * t) * F_mu(1.0, 1, d01)
            worst_margin = min(worst_margin, rhs - nm)
    ok = kap_err < 1e-8 and cnu_err < 1e-6 and worst_margin >= 0
    report(7, "anharmonic_bound", ok,
           f"kappa {kap_err:.1e}, C_nu {cnu_err:.1e}, margin "
           f"{worst_margin:.2e}, gate {gate_change:.1e}, "
           f"{time.time() - t0:.0f}s")


def test_08_fock_oracle_convergence():
    t0 = time.time()
    c = Couplings(1.0, (1.0,))
    lat = TorusLattice(1, 1)
    f = WeylFunction.delta(lat, (0,))
    g = WeylFunction.delta(lat, (1,))
    fa = np.array([1.0, 0.0], complex)
    ga = np.array([0.0, 1.0], complex)
    monotone = True
    finals = []
    for t in (0.1, 0.35):
        exact = commutator_norm_exact(f, g, t, couplings=c)
        errs = []
        for n in (12, 16, 20, 24):
            sys_ = FockSystem(2, n, c)
            errs.append(abs(sys_.commutator_norm(fa, ga, t, n_low=4)
                            - exact))
        monotone = monotone and all(a > b for a, b in zip(errs, errs[1:]))
        finals.append(errs[-1])
    ok = monotone and max(finals) < 1e-6
    report(8, "fock_oracle", ok,
           f"monotone {monotone}, final err {max(finals):.1e}, "
           f"{time.time() - t0:.0f}s")


def test_09_clustering():
    t0 = time.time()
    c = Couplings(1.0, (1.0,))
    rng = np.random.default_rng(15)
    worst = 0.0
    # 2-site ring against the lattice Gaussian calculus
    lat2 = TorusLattice(1, 1)
    cov2 = ground_covariance(lat2, c)
    sys2 = FockSystem(2, 30, c)
    _, gs2 = sys2.ground_state()
    for _ in range(4):
        amps = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        fock = float(np.vdot(gs2, sys2.weyl_matrix(amps) @ gs2).real)
        gauss = weyl_expectation(cov2, WeylFunction(lat2, amps))
        worst = max(worst, abs(fock - gauss))
    # 3-site ring against the closed-form ring covariances
    sys3 = FockSystem(3, 16, c)
    _, gs3 = sys3.ground_state()
    for _ in range(4):
        amps = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        wf = sys3.apply_weyl(sys3.weyl_local_factors(amps), gs3)
        fock = float(np.vdot(gs3, wf).real)
        gauss = ring_gaussian_expectation(3, c, amps)
        worst = max(worst, abs(fock - gauss))
    fit = clustering_fit(ground_covariance(TorusLattice(1, 32),
                                           Couplings(2.0, (1.0,))),
                         mu=1.0, epsilon=1.0)
    ok = worst < 1e-6 and fit.dominated
    report(9, "clustering", ok,
           f"ground-state err {worst:.1e}, dominated {fit.dominated}, "
           f"{time.time() - t0:.0f}s")


def test_10_cli_determinism(tmp_path):
    t0 = time.time()
    names = ["kernels", "evolve", "commutator", "lightcone", "genbound",
             "anharm", "focksim", "clustering"]
    stable = True
    for name in names:
        cfg = os.path.join(SCENARIOS, f"{name}_ref.json")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = cli_main([name, "--config", cfg, "--out", str(out)])
            assert code == 0, f"{name} scenario exited {code}"
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].iterdir()
                      if p.suffix == ".csv")
        assert csvs, f"{name} produced no CSV output"
        for fn in csvs:
            if not filecmp.cmp(outs[0] / fn, outs[1] / fn, shallow=False):
                stable = False
    report(10, "cli_determinism", stable,
           f"8 scenarios x 2 runs byte-compared, {time.time() - t0:.0f}s")
