import numpy as np
import pytest
from scipy.integrate import quad

from latticebounds.kernels import (EnvelopeParams, compute_H,
                                   compute_H_direct, compute_h, envelope,
                                   velocity)
from latticebounds.torus import Couplings, TorusLattice


C11 = Couplings(1.0, (1.0,))


def test_fft_matches_direct_summation():
    rng = np.random.default_rng(0)
    for nu, L in [(1, 8), (2, 4)]:
        lat = TorusLattice(nu, L)
        c = Couplings(rng.uniform(0.2, 2), tuple(rng.uniform(0.2, 2, nu)))
        for m in (-1, 0, 1):
            t = float(rng.uniform(0, 5))
            fast = compute_H(lat, c, m, t)
            slow = compute_H_direct(lat, c, m, t)
            assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_single_site_probe_matches_full_field():
    lat = TorusLattice(1, 8)
    full = compute_H(lat, C11, 0, 0.7)
    i = lat.index((3,))
    probe = compute_H_direct(lat, C11, 0, 0.7, site_index=i)
    assert probe == pytest.approx(full.values[i], abs=1e-13)


def test_values_at_time_zero():
    # H0 is a delta at the origin, H1 and Hm1 vanish identically
    lat = TorusLattice(2, 4)
    h0 = compute_H(lat, C11_2 := Couplings(1.0, (1.0, 0.5)), 0, 0.0)
    expect = np.zeros(lat.n_sites)
    expect[lat.index((0, 0))] = 1.0
    assert np.allclose(h0.values, expect, atol=1e-13)
    for m in (1, -1):
        assert np.max(np.abs(compute_H(lat, C11_2, m, 0.0).values)) < 1e-13


def test_kernels_are_even_in_x():
    lat = TorusLattice(1, 8)
    neg = lat.neg_indices()
    for m in (-1, 0, 1):
        vals = compute_H(lat, C11, m, 1.3).values
        assert np.allclose(vals, vals[neg], atol=1e-13)


def test_time_derivative_identity():
    # dH0/dt = 2 H1 and dHm1/dt = -2 H0, by central differences
    lat = TorusLattice(1, 8)
    t, eps = 0.9, 1e-5
    d0 = (compute_H(lat, C11, 0, t + eps).values
          - compute_H(lat, C11, 0, t - eps).values) / (2 * eps)
    assert np.max(np.abs(d0 - 2.0 * compute_H(lat, C11, 1, t).values)) < 1e-6
    dm = (compute_H(lat, C11, -1, t + eps).values
          - compute_H(lat, C11, -1, t - eps).values) / (2 * eps)
    assert np.max(np.abs(dm + 2.0 * compute_H(lat, C11, 0, t).values)) < 1e-6


def test_integral_identity():
    # Hm1(t, x) = -2 * integral_0^t H0(s, x) ds
    lat = TorusLattice(1, 6)
    t = 1.1
    target = compute_H(lat, C11, -1, t).values
    for i in [lat.index((0,)), lat.index((2,)), lat.index((5,))]:
        integral, _ = quad(
            lambda s: compute_H_direct(lat, C11, 0, s, site_index=i), 0, t,
            limit=200)
        assert target[i] == pytest.approx(-2.0 * integral, abs=1e-6)


def test_dual_grid_orthogonality():
    # (1/2L) sum_k e^{ikx} sin^{2m}(k/2) vanishes when m < |x| (no aliasing)
    for L in (4, 6, 8):
        lat = TorusLattice(1, L)
        k = lat.dual[:, 0]
        for m in range(0, 7):
            for x in range(m + 1, L + 1):
                if m + x >= 2 * L:
                    continue
                s = np.sum(np.exp(1j * k * x) * np.sin(k / 2) ** (2 * m))
                assert abs(s) / (2 * L) < 1e-12


def test_envelope_dominates_kernels():
    rng = np.random.default_rng(2)
    lat = TorusLattice(1, 16)
    dist = lat.abs_l1()
    for c in (C11, Couplings(0.5, (2.0,)), Couplings(2.0, (0.5,))):
        for mu in (0.5, 1.0, 2.0):
            e = EnvelopeParams(mu, c)
            for _ in range(5):
                t = float(rng.uniform(0, 10))
                for m in (-1, 0, 1):
                    vals = np.abs(compute_H(lat, c, m, t).values)
                    assert np.all(vals <= envelope(e, m, t, dist) + 1e-12)


def test_envelope_prefactors():
    c = Couplings(0.5, (2.0,))
    e = EnvelopeParams(1.0, c)
    v = velocity(c, 1.0)
    assert envelope(e, 0, 0.0, 0) == pytest.approx(1.0)
    assert envelope(e, 1, 0.0, 0) == pytest.approx(c.c_max * np.exp(0.5))
    assert envelope(e, -1, 0.0, 0) == pytest.approx(1.0 / c.c_max)
    assert envelope(e, 0, 1.0, 3) == pytest.approx(np.exp(-(3 - v)))


def test_velocity_formula_and_monotone_pieces():
    c = C11
    assert velocity(c, 1.0) == pytest.approx(c.c_max * np.exp(1.5))
    assert velocity(c, 0.1) == pytest.approx(c.c_max * 20.0)
    with pytest.raises(ValueError):
        velocity(c, 0.0)


def test_zero_omega_needs_flag():
    lat = TorusLattice(1, 4)
    c = Couplings(0.0, (1.0,))
    with pytest.raises(ZeroDivisionError):
        compute_h(lat, c, 0.5)
    with pytest.raises(ZeroDivisionError):
        compute_H(lat, c, -1, 0.5)


def test_zero_omega_flag_is_refused_for_positive_omega():
    with pytest.raises(ValueError, match="omega = 0"):
        compute_h(TorusLattice(1, 4), Couplings(0.7, (1.0,)), 0.5,
                  zero_omega=True)


def test_zero_omega_kernels_at_time_zero():
    # at t = 0 the evolution kernels reduce to a delta and zero
    lat = TorusLattice(1, 8)
    c = Couplings(0.0, (1.0,))
    h1, h2 = compute_h(lat, c, 0.0, zero_omega=True)
    expect = np.zeros(lat.n_sites, dtype=complex)
    expect[lat.index((0,))] = 1.0
    assert np.allclose(h1.values, expect, atol=1e-13)
    assert np.max(np.abs(h2.values)) < 1e-13


def test_zero_omega_kernel_mean_values():
    # summing the kernels over x isolates the explicit zero-mode terms
    lat = TorusLattice(1, 8)
    c = Couplings(0.0, (1.0,))
    t = 0.8
    h1, h2 = compute_h(lat, c, t, zero_omega=True)
    assert np.sum(h1.values) == pytest.approx(1.0 - 1j * t, abs=1e-12)
    assert np.sum(h2.values) == pytest.approx(1j * t, abs=1e-12)


def test_gapped_h_kernels_match_base_combination():
    lat = TorusLattice(1, 8)
    t = 0.6
    h1, h2 = compute_h(lat, C11, t)
    H0 = compute_H(lat, C11, 0, t).values
    H1 = compute_H(lat, C11, 1, t).values
    Hm1 = compute_H(lat, C11, -1, t).values
    assert np.allclose(h1.values, H0 + 0.5j * (H1 + Hm1), atol=1e-13)
    assert np.allclose(h2.values, 0.5j * (H1 - Hm1), atol=1e-13)


def test_kernel_field_site_lookup():
    lat = TorusLattice(1, 4)
    f = compute_H(lat, C11, 0, 0.3)
    assert f.at((2,)) == f.values[lat.index((2,))]
    grid = compute_H(lat, C11, 0, [0.0, 0.3])
    assert np.array_equal(grid.at((2,)), grid.values[:, lat.index((2,))])


def test_envelope_params_validation():
    with pytest.raises(ValueError):
        EnvelopeParams(0.0, C11)
