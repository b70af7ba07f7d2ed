"""Ground-state correlation decay for the harmonic lattice: exact Gaussian
Weyl expectations, truncated correlations, log-linear decay fits, and the
gap-based correlation length they are compared against.

The harmonic ground state is Gaussian, so every Weyl expectation reduces to
a quadratic form in the circulant covariances

    <q_x q_y> = (1/2N) sum_k e^{ik(x-y)} / gamma(k)
    <p_x p_y> = (1/2N) sum_k e^{ik(x-y)} gamma(k)

and products of Weyl operators reduce via W(f)W(g) = e^{-(i/2) Im<f,g>}
W(f+g).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus import Couplings, TorusLattice, dispersion
from .weyl import WeylFunction, _check_same_lattice, _conv, symplectic_form
from .anharmonic import AnharmonicBoundParams, PerturbationSpec, \
    anharm_constants

__all__ = ["GroundStateCovariance", "ClusteringFit", "ground_covariance",
           "weyl_expectation", "weyl_correlation", "xi_theorem",
           "clustering_fit"]


@dataclass(frozen=True)
class GroundStateCovariance:
    """Circulant ground-state covariances indexed by displacement, and the
    spectral gap 2 omega (one-boson excitations cost 2 gamma(k) >= 2 omega)."""

    lattice: TorusLattice
    couplings: Couplings
    qq: np.ndarray
    pp: np.ndarray

    @property
    def gap(self) -> float:
        return 2.0 * self.couplings.omega


def ground_covariance(lat: TorusLattice, c: Couplings) -> GroundStateCovariance:
    """Exact finite Fourier sums for the Gaussian ground-state covariances."""
    if c.omega <= 0:
        raise ZeroDivisionError(
            "ground-state covariance diverges at the zero mode for omega = 0")
    gam = np.atleast_1d(dispersion(c, lat.dual))
    qq = lat.ifft(0.5 / gam)
    pp = lat.ifft(0.5 * gam)
    # relative to the sums, which scale with gamma
    if any(np.max(np.abs(s.imag)) > 1e-12 * np.max(np.abs(s))
           for s in (qq, pp)):
        raise AssertionError("covariances must be real (gamma is even)")
    return GroundStateCovariance(lat, c, qq.real, pp.real)


def _form(cov: GroundStateCovariance, a: WeylFunction,
          b: WeylFunction) -> float:
    """Symmetric bilinear form Re(a)' QQ Re(b) + Im(a)' PP Im(b).

    QQ and PP are circulant, so each is applied to b as a periodic
    convolution with its displacement profile.
    """
    lat = cov.lattice
    qb = _conv(lat, cov.qq, b.values.real).real
    pb = _conv(lat, cov.pp, b.values.imag).real
    return float(a.values.real @ qb + a.values.imag @ pb)


def weyl_expectation(cov: GroundStateCovariance, h: WeylFunction) -> float:
    """<W(h)> = exp(-<B(h)^2>/2) in the Gaussian ground state.

    The generator B(h) = sum_x q_x Re h_x + p_x Im h_x has
    <B^2> = Re(h)' QQ Re(h) + Im(h)' PP Im(h); the symmetrized q-p cross
    covariance vanishes in the ground state.  Both circulant quadratic
    forms are evaluated by FFT convolution with the covariance profiles.
    """
    _check_same_lattice(cov, h)
    return float(np.exp(-0.5 * _form(cov, h, h)))


def weyl_correlation(cov: GroundStateCovariance, f: WeylFunction,
                     g: WeylFunction) -> complex:
    """Truncated correlation <W(f)W(g)> - <W(f)><W(g)>.

    With W(f)W(g) = e^{-i sigma/2} W(f+g), sigma = Im<f, g>, and
    <B(f+g)^2> = <B(f)^2> + <B(g)^2> + 2s for the cross term
    s = Re(f)' QQ Re(g) + Im(f)' PP Im(g), the correlation is
    <W(f)><W(g)> expm1(-s - i sigma/2).  This form has no cancellation
    between two numbers of order one, so far-apart supports keep their
    relative accuracy.
    """
    _check_same_lattice(cov, f, g)
    z = -_form(cov, f, g) - 0.5j * symplectic_form(f, g)
    return complex(weyl_expectation(cov, f) * weyl_expectation(cov, g)
                   * np.expm1(z))


def xi_theorem(b: AnharmonicBoundParams, gap: float,
               p: PerturbationSpec | None = None) -> float:
    """Correlation length (2(mu+eps) v(mu+eps) + gap) / (mu * gap), with
    v from the Z^nu constants."""
    if gap <= 0:
        raise ValueError("the clustering length needs a positive gap")
    _, _, v = anharm_constants(b, p or PerturbationSpec.zero())
    me = b.mu + b.epsilon
    return float((2.0 * me * v + gap) / (b.mu * gap))


@dataclass
class ClusteringFit:
    """Measured correlation decay against the gap-based length scale."""

    distances: np.ndarray
    covariances: np.ndarray
    fitted_xi: float
    xi_theorem: float
    c_fit: float
    dominated: bool
    nonpositive_seen: bool = False
    tightness_ratio: float = field(default=float("nan"))


def clustering_fit(cov: GroundStateCovariance, mu: float, epsilon: float,
                   p: PerturbationSpec | None = None) -> ClusteringFit:
    """Singleton-pair correlation sweep over distance with a log-linear fit.

    Correlations are taken between real unit Weyl arguments at the origin
    and at distance d, read off the covariance profile.  The envelope
    constant is calibrated on the near half of the sweep and domination
    |corr(d)| <= C e^{-d/xi} is checked for d >= xi with xi the gap-based
    length.
    """
    lat = cov.lattice
    if lat.nu != 1:
        raise ValueError("the distance sweep is one-dimensional")
    b = AnharmonicBoundParams(mu=mu, epsilon=epsilon, couplings=cov.couplings)
    xi = xi_theorem(b, cov.gap, p)
    ds = np.arange(1, lat.L + 1)
    # weyl_correlation of real unit deltas: e^(-qq(0)) expm1(-qq(d))
    qq = cov.qq[lat.L - 1:]  # displacements 0..L
    corr = np.exp(-qq[0]) * np.expm1(-qq[ds])
    nonpos = bool(np.any(corr <= 0))
    mags = np.abs(corr)
    usable = mags > 1e-300
    if np.count_nonzero(usable) >= 2:
        slope = np.polyfit(ds[usable], np.log(mags[usable]), 1)[0]
        fitted_xi = float(-1.0 / slope) if slope < 0 else float("inf")
    else:
        fitted_xi = float("nan")
    near = ds <= max(ds[len(ds) // 2], 1)
    c_fit = float(np.max(mags[near] * np.exp(ds[near] / xi)))
    far = ds >= xi
    dominated = bool(np.all(mags[far] <= c_fit * np.exp(-ds[far] / xi)
                            * (1.0 + 1e-9))) if np.any(far) else True
    return ClusteringFit(distances=ds, covariances=corr, fitted_xi=fitted_xi,
                         xi_theorem=xi, c_fit=c_fit, dominated=dominated,
                         nonpositive_seen=nonpos,
                         tightness_ratio=float(fitted_xi / xi))
