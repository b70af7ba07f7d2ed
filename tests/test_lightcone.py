import numpy as np
import pytest

from latticebounds.kernels import compute_H, velocity
from latticebounds.lightcone import FrontData, extract_front, mu_star
from latticebounds.torus import Couplings, TorusLattice


def test_mu_star_solves_the_crossover_equation():
    mu0 = mu_star()
    assert 0.5 < mu0 < 1.0
    assert abs(2.0 / mu0 - np.exp(mu0 / 2.0 + 1.0)) < 1e-10
    # regression: value frozen after the bisection converged to 1e-12
    assert mu0 == pytest.approx(0.5569290855223699, abs=1e-11)


def test_mu_star_bracket_signs():
    assert 2.0 / 0.5 - np.exp(1.25) > 0
    assert 2.0 / 1.0 - np.exp(1.5) < 0


def test_optimal_velocity_never_exceeds_four_cmax():
    for c in (Couplings(1.0, (1.0,)), Couplings(0.1, (2.0,)),
              Couplings(2.0, (0.0,))):
        v = velocity(c, mu_star())
        assert v == pytest.approx(2.0 * c.c_max / mu_star())
        assert v <= 4.0 * c.c_max


def test_synthetic_front_recovers_exact_velocity():
    # crossing times t*(r) = r/3 exactly -> fitted velocity 3, residual 0
    tgrid = np.linspace(0.01, 10, 400)
    rvals = list(range(1, 13))
    series = np.array([[1.0 if t >= r / 3.0 else 0.0 for r in rvals]
                       for t in tgrid])
    front = extract_front(tgrid, rvals, series, threshold=0.5)
    assert front.fitted_velocity == pytest.approx(3.0, rel=1e-2)
    assert front.fit_residual < 0.05
    for r in rvals:
        assert front.arrivals[r] == pytest.approx(r / 3.0, abs=0.05)


def test_all_below_threshold_reports_misses():
    tgrid = np.linspace(0, 1, 10)
    rvals = [1, 2, 3]
    series = np.full((10, 3), 1e-9)
    front = extract_front(tgrid, rvals, series, threshold=0.5)
    assert front.arrivals == {}
    assert front.missed == [1, 2, 3]
    assert np.isnan(front.fitted_velocity)


def test_threshold_and_grid_validation():
    tgrid = np.linspace(0, 1, 5)
    series = np.zeros((5, 2))
    with pytest.raises(ValueError):
        extract_front(tgrid, [1, 2], series, threshold=2.5)
    with pytest.raises(ValueError):
        extract_front(tgrid[::-1], [1, 2], series, threshold=0.5)


def _front_table(lat, c, tgrid, rvals):
    # delta-argument commutator norms reduce to one kernel per time
    table = np.empty((len(tgrid), len(rvals)))
    for i, t in enumerate(tgrid):
        hm1 = compute_H(lat, c, -1, float(t))
        for j, r in enumerate(rvals):
            table[i, j] = 2.0 * abs(np.sin(hm1.at((r,)) / 2.0))
    return table


def test_measured_front_stays_below_velocity_bound():
    lat = TorusLattice(1, 16)
    c = Couplings(1.0, (1.0,))
    tgrid = np.linspace(0.25, 20, 80)
    rvals = list(range(1, lat.L + 1))
    table = _front_table(lat, c, tgrid, rvals)
    front = extract_front(tgrid, rvals, table, threshold=1e-3,
                          r_max=lat.L - 2)
    arrivals = [front.arrivals[r] for r in sorted(front.arrivals)]
    assert all(b >= a - 1e-9 for a, b in zip(arrivals, arrivals[1:]))
    assert 0 < front.fitted_velocity <= velocity(c, mu_star())


def test_front_velocity_is_threshold_robust():
    # reference sweep; the fit window stops two sites short of the
    # torus injectivity radius so wraparound never touches the arrivals
    lat = TorusLattice(1, 32)
    c = Couplings(1.0, (1.0,))
    tgrid = np.linspace(0.05, 40, 400)
    rvals = list(range(1, lat.L + 1))
    table = _front_table(lat, c, tgrid, rvals)
    vels = [extract_front(tgrid, rvals, table, th,
                          r_max=lat.L - 2).fitted_velocity
            for th in (1e-2, 1e-3, 1e-4)]
    spread = (max(vels) - min(vels)) / min(vels)
    assert spread < 0.10
    assert max(vels) <= velocity(c, mu_star())
