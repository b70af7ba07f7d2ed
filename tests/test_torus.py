import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticebounds.torus import Couplings, TorusLattice, dispersion


def test_site_and_dual_counts():
    for nu, L in [(1, 4), (2, 3), (3, 2)]:
        lat = TorusLattice(nu, L)
        assert lat.n_sites == (2 * L) ** nu
        assert lat.sites.shape == lat.dual.shape == ((2 * L) ** nu, nu)


def test_dual_alignment_and_range():
    lat = TorusLattice(2, 5)
    assert np.allclose(lat.dual, lat.sites * np.pi / lat.L)
    assert np.all(lat.dual > -np.pi)
    assert np.all(lat.dual <= np.pi + 1e-15)


def test_distance_wraparound():
    lat = TorusLattice(1, 4)
    assert lat.distance((3,), (-3,)) == 2  # around the back: |6 - 8| = 2
    assert lat.distance((3,), (3,)) == 0


def test_distance_two_dimensional():
    lat = TorusLattice(2, 8)
    assert lat.distance((7, 0), (-7, 3)) == 5


def test_distance_exhaustive_eta_minimum():
    lat = TorusLattice(2, 3)
    rng = np.random.default_rng(1)
    for _ in range(60):
        x = lat.sites[rng.integers(lat.n_sites)]
        y = lat.sites[rng.integers(lat.n_sites)]
        brute = min(
            sum(abs(x[j] - y[j] + 2 * lat.L * eta[j]) for j in range(2))
            for eta in [(a, b) for a in range(-2, 3) for b in range(-2, 3)])
        assert lat.distance(x, y) == brute


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_metric_axioms(L, data):
    lat = TorusLattice(1, L)
    i = data.draw(st.integers(0, lat.n_sites - 1))
    j = data.draw(st.integers(0, lat.n_sites - 1))
    k = data.draw(st.integers(0, lat.n_sites - 1))
    x, y, z = lat.sites[i], lat.sites[j], lat.sites[k]
    assert lat.distance(x, y) == lat.distance(y, x)
    assert (lat.distance(x, y) == 0) == (i == j)
    assert lat.distance(x, z) <= lat.distance(x, y) + lat.distance(y, z)
    assert lat.distance(x, y) <= lat.nu * lat.L


def test_distance_broadcasts_over_leading_axes():
    lat = TorusLattice(2, 3)
    rng = np.random.default_rng(2)
    xs = lat.sites[rng.integers(lat.n_sites, size=5)]
    ys = lat.sites[rng.integers(lat.n_sites, size=7)]
    d = lat.distance(xs[:, None], ys[None])
    assert d.shape == (5, 7)
    assert all(d[i, j] == lat.distance(x, y)
               for i, x in enumerate(xs) for j, y in enumerate(ys))
    assert type(lat.distance(xs[0], ys[0])) is int
    assert np.array_equal(lat.distances_from(xs[0]),
                          [lat.distance(s, xs[0]) for s in lat.sites])


def test_distance_rejects_out_of_range():
    lat = TorusLattice(1, 4)
    # a bad coordinate is caught alone and inside a broadcast array
    for x in [(5,), [(0,), (5,)], [[(1,)], [(-4,)]]]:
        with pytest.raises(ValueError):
            lat.distance(x, (0,))
        with pytest.raises(ValueError):
            lat.distance((0,), x)


def test_wrap_is_idempotent_and_in_range():
    lat = TorusLattice(2, 3)
    for raw in [(-9, 7), (6, 6), (-3, 3), (0, 0)]:
        w = lat.wrap(np.array(raw))
        assert np.array_equal(lat.wrap(w), w)
        assert np.all(w > -lat.L) and np.all(w <= lat.L)
        assert np.all((w - np.array(raw)) % (2 * lat.L) == 0)


def test_index_roundtrip():
    lat = TorusLattice(2, 4)
    for i in range(lat.n_sites):
        assert lat.index(lat.sites[i]) == i


def test_neg_indices_involution():
    lat = TorusLattice(2, 3)
    neg = lat.neg_indices()
    assert np.array_equal(neg[neg], np.arange(lat.n_sites))
    # -k maps pi to pi (the boundary point is its own negative)
    for i in range(lat.n_sites):
        expect = lat.wrap(-lat.sites[i])
        assert lat.index(expect) == neg[i]


def test_grid_roundtrip():
    lat = TorusLattice(2, 3)
    v = np.arange(lat.n_sites, dtype=complex)
    assert np.array_equal(lat.from_grid(lat.to_grid(v)), v)


def test_couplings_validation():
    with pytest.raises(ValueError):
        Couplings(-1.0, (1.0,))
    with pytest.raises(ValueError):
        Couplings(1.0, (-0.5,))
    with pytest.raises(ValueError):
        Couplings(0.0, (0.0, 0.0))
    c = Couplings(0.5, (2.0, 0.0))
    assert c.nu == 2
    assert c.c_max == pytest.approx(np.sqrt(0.25 + 8.0))


def test_dispersion_values_and_evenness():
    c = Couplings(1.0, (1.0,))
    assert dispersion(c, np.array([0.0])) == pytest.approx(1.0)
    assert dispersion(c, np.array([np.pi])) == pytest.approx(np.sqrt(5.0))
    lat = TorusLattice(1, 6)
    gam = dispersion(c, lat.dual)
    assert np.allclose(gam, gam[lat.neg_indices()])
    assert np.all(gam <= c.c_max + 1e-15)


def test_dispersion_gapless_at_zero_when_omega_vanishes():
    c = Couplings(0.0, (1.0,))
    assert dispersion(c, np.array([0.0])) == 0.0
    assert dispersion(c, np.array([0.1])) > 0.0


def test_couplings_whose_c_max_overflows_are_rejected():
    for c in ((1e300, (1.0,)), (1.0, (1e308, 1e308))):
        with pytest.raises(ValueError, match="overflows"):
            Couplings(*c)
    assert np.isfinite(Couplings(1e150, (1e300,)).c_max)


@pytest.mark.parametrize("nu,L", [(1, 4), (2, 3), (3, 2)])
def test_fft_and_ifft_are_the_lattice_fourier_sums(nu, L):
    lat = TorusLattice(nu, L)
    n = lat.n_sites
    rng = np.random.default_rng(nu)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phase = np.exp(1j * lat.dual @ lat.sites.T)  # phase[k, x] = e^{ik.x}
    assert np.max(np.abs(lat.fft(v) - np.conj(phase) @ v)) < 1e-12
    assert np.max(np.abs(lat.ifft(v) - phase.T @ v / n)) < 1e-12
    assert np.max(np.abs(lat.ifft(lat.fft(v)) - v)) < 1e-13
    assert np.max(np.abs(lat.fft(lat.ifft(v)) - v)) < 1e-13


@pytest.mark.parametrize("nu,L", [(1, 4), (2, 3), (3, 2)])
def test_fft_and_ifft_batch_leading_axes_bitwise(nu, L):
    lat = TorusLattice(nu, L)
    rng = np.random.default_rng(10 + nu)
    v = (rng.standard_normal((2, 3, lat.n_sites))
         + 1j * rng.standard_normal((2, 3, lat.n_sites)))
    for transform in (lat.fft, lat.ifft):
        rows = np.array([[transform(r) for r in block] for block in v])
        assert np.array_equal(transform(v), rows)
    assert np.array_equal(lat.from_grid(lat.to_grid(v)), v)


@pytest.mark.parametrize("nu,L", [(1, 5), (2, 3), (3, 2)])
def test_index_roundtrip_and_errors_in_every_dimension(nu, L):
    lat = TorusLattice(nu, L)
    assert [lat.index(x) for x in lat.sites] == list(range(lat.n_sites))
    assert all(type(lat.index(x)) is int for x in lat.sites[:3])
    for wrong in ([0] * (nu + 1), [0] * (nu - 1)):
        with pytest.raises(ValueError, match=f"must have {nu} coordinates"):
            lat.index(wrong)
    for out in (L + 1, -L):
        with pytest.raises(ValueError, match=r"must lie in \(-"):
            lat.index([0] * (nu - 1) + [out])


def test_dispersion_type_follows_the_shape_of_k():
    c = Couplings(0.5, (1.0, 0.3))
    one = dispersion(c, np.array([0.4, -1.0]))
    assert type(one) is float
    for n in (1, 2, 5):
        k = np.linspace(-3.0, 3.0, 2 * n).reshape(n, 2)
        gam = dispersion(c, k)
        assert isinstance(gam, np.ndarray) and gam.shape == (n,)
        assert [dispersion(c, row) for row in k] == gam.tolist()
    with pytest.raises(ValueError, match="dimension"):
        dispersion(c, np.array([0.4]))
