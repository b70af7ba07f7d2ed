"""Empirical propagation fronts from exact commutator data, and the
optimal envelope rate mu0 with its velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus import Couplings
from .kernels import velocity

__all__ = ["FrontData", "mu_star", "optimal_velocity", "extract_front"]


def mu_star() -> float:
    """Root mu0 of 2/mu = e^(mu/2 + 1), located by bisection on (1/2, 1)
    to a bracket of width 1e-12.

    The envelope velocity c_max * max(2/mu, e^(mu/2 + 1)) is minimal there,
    with value 2 c_max / mu0 <= 4 c_max.
    """
    def h(mu):
        return 2.0 / mu - np.exp(mu / 2.0 + 1.0)

    lo, hi = 0.5, 1.0
    if not (h(lo) > 0 > h(hi)):
        raise RuntimeError("bisection bracket lost")  # cannot happen
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    mu0 = 0.5 * (lo + hi)
    assert 0.5 < mu0 < 1.0
    return mu0


def optimal_velocity(c: Couplings) -> float:
    """v_h(mu0) = 2 c_max / mu0; never exceeds 4 c_max."""
    return velocity(c, mu_star())


@dataclass
class FrontData:
    """First-crossing arrival times and the fitted front velocity."""

    threshold: float
    arrivals: dict[int, float]            # distance r -> earliest time t*(r)
    fitted_velocity: float
    fit_residual: float
    missed: list[int] = field(default_factory=list)  # r never crossing


def extract_front(tgrid: np.ndarray, rvalues, series: np.ndarray,
                  threshold: float, r_max: int | None = None) -> FrontData:
    """Locate the light-cone front in a commutator table.

    series[i, j] is the commutator norm at time tgrid[i] and distance
    rvalues[j].  The arrival t*(r) is the first grid crossing of the
    threshold, linearly interpolated.  The velocity comes from a
    least-squares fit of the arrival model

        t*(r) = r / v + b * r^(1/3) + c

    over 3 <= r <= r_max.  The r^(1/3) term absorbs the precursor
    tail ahead of the ballistic front: below it the signal decays like
    exp(-const * r * (deficit)^(3/2)), so a fixed threshold is crossed
    early by an amount growing like r^(1/3).  Without that term the
    fitted slope drifts systematically with the threshold; with it the
    velocity is stable across thresholds spanning several decades.
    r >= 3 discards near-field transients; r_max (default: no cap)
    should stay a couple of sites below the torus injectivity radius so
    wraparound does not contaminate the arrivals.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or np.any(np.diff(tgrid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not (0.0 < threshold < 2.0):
        raise ValueError("threshold must lie in (0, 2)")
    series = np.asarray(series, dtype=float)
    arrivals: dict[int, float] = {}
    missed: list[int] = []
    for j, r in enumerate(rvalues):
        col = series[:, j]
        above = np.nonzero(col >= threshold)[0]
        if len(above) == 0:
            missed.append(int(r))
            continue
        i = above[0]
        if i == 0:
            arrivals[int(r)] = float(tgrid[0])
        else:
            t0, t1 = tgrid[i - 1], tgrid[i]
            v0, v1 = col[i - 1], col[i]
            arrivals[int(r)] = float(t0 + (threshold - v0) * (t1 - t0)
                                     / (v1 - v0))
    pts = [(t, r) for r, t in arrivals.items()
           if r >= 3 and (r_max is None or r <= r_max)]
    if len(pts) >= 4:
        ts = np.array([p[0] for p in pts])
        rs = np.array([p[1] for p in pts], dtype=float)
        design = np.column_stack([rs, np.cbrt(rs), np.ones_like(rs)])
        coef, *_ = np.linalg.lstsq(design, ts, rcond=None)
        vel = float(1.0 / coef[0]) if coef[0] > 0 else float("nan")
        residual = float(np.sqrt(np.mean((design @ coef - ts) ** 2)))
    else:
        vel = float("nan")
        residual = float("nan")
    return FrontData(threshold=threshold, arrivals=arrivals,
                     fitted_velocity=vel, fit_residual=residual,
                     missed=missed)
