"""Finite Fourier-sum propagation kernels of the harmonic lattice.

Three base kernels are computed over the torus,

    H0(t,x)  = Re (1/N) sum_k            exp(i k.x - 2i gamma(k) t)
    H1(t,x)  = Im (1/N) sum_k gamma(k)   exp(i k.x - 2i gamma(k) t)
    Hm1(t,x) = Im (1/N) sum_k gamma(k)^-1 exp(i k.x - 2i gamma(k) t)

with N the number of sites, together with the evolution kernels

    h1 = H0 + (i/2)(H1 + Hm1),      h2 = (i/2)(H1 - Hm1)

through which the Weyl argument evolves.  gamma is even in k, so h1 and h2
are the inverse transforms of the mode multipliers

    cos 2gt - (i/2)(g sin 2gt + s),      -(i/2)(g sin 2gt - s)

with g = gamma(k) and s = sin(2gt)/g = 2t at g = 0: the omega = 0 zero mode
is the free particle (1 - it, it), with no special case.  A direct-summation
oracle checks the FFT sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import Couplings, TorusLattice, dispersion

__all__ = ["KernelField", "EnvelopeParams", "compute_H", "compute_H_direct",
           "compute_h", "envelope", "velocity"]

_KINDS = {"H0", "H1", "Hm1", "h1", "h2", "h01", "h02"}
_M_TO_KIND = {0: "H0", 1: "H1", -1: "Hm1"}


@dataclass(frozen=True)
class KernelField:
    """One sampled kernel: complex values indexed by the site enumeration."""

    lattice: TorusLattice
    couplings: Couplings
    t: float
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def at(self, x) -> complex:
        return self.values[self.lattice.index(x)]


@dataclass(frozen=True)
class EnvelopeParams:
    """Decay rate mu > 0 for the exponential kernel envelopes."""

    mu: float
    couplings: Couplings

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")


def _weights(lat: TorusLattice, c: Couplings, m: int, t: float) -> np.ndarray:
    """gamma(k)^m * exp(-2i gamma(k) t) over the dual grid; a zero mode
    (omega = 0) with m = -1 raises ZeroDivisionError."""
    if m not in _M_TO_KIND:
        raise ValueError("m must be one of -1, 0, 1")
    gam = np.atleast_1d(dispersion(c, lat.dual))
    if m == -1 and np.any(gam == 0.0):
        raise ZeroDivisionError(
            "singular mode: gamma(k) = 0 at k = 0 (omega = 0 with m = -1)")
    return gam ** m * np.exp(-2j * gam * t)


def _fourier_sum_direct(lat: TorusLattice, w: np.ndarray,
                        site_index: int | None = None):
    """Brute-force evaluation of the same finite sum (oracle path)."""
    if site_index is not None:
        phase = np.exp(1j * lat.dual @ lat.sites[site_index])
        return np.sum(w * phase) / lat.n_sites
    out = np.empty(lat.n_sites, dtype=complex)
    for i in range(lat.n_sites):
        phase = np.exp(1j * lat.dual @ lat.sites[i])
        out[i] = np.sum(w * phase) / lat.n_sites
    return out


def compute_H(lat: TorusLattice, c: Couplings, m: int, t: float) -> KernelField:
    """Real-valued base kernel H^(m) at time t (fast FFT path)."""
    s = lat.ifft(_weights(lat, c, m, t))
    vals = s.real if m == 0 else s.imag
    return KernelField(lat, c, float(t), _M_TO_KIND[m], vals)


def compute_H_direct(lat: TorusLattice, c: Couplings, m: int, t: float,
                     site_index: int | None = None):
    """Direct-summation oracle for H^(m); optionally a single site probe."""
    s = _fourier_sum_direct(lat, _weights(lat, c, m, t), site_index)
    vals = s.real if m == 0 else s.imag
    if site_index is not None:
        return float(vals)
    return KernelField(lat, c, float(t), _M_TO_KIND[m], vals)


def _evolution_multipliers(lat: TorusLattice, c: Couplings, t: float,
                           zero_omega: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mode multipliers (h1^(k), h2^(k)) of the evolution kernels at time t.

    zero_omega must be set exactly when omega = 0, where the k = 0 mode is
    the free particle; it changes no arithmetic.
    """
    if c.omega == 0 and not zero_omega:
        raise ZeroDivisionError(
            "singular mode: k = 0 requires zero_omega=True when omega = 0")
    if c.omega > 0 and zero_omega:
        raise ValueError("zero_omega=True requires omega = 0")
    gam = np.atleast_1d(dispersion(c, lat.dual))
    gs = gam * np.sin(2.0 * gam * t)
    s = 2.0 * t * np.sinc(2.0 * gam * t / np.pi)  # sin(2 gamma t) / gamma
    return np.cos(2.0 * gam * t) - 0.5j * (gs + s), -0.5j * (gs - s)


def compute_h(lat: TorusLattice, c: Couplings, t: float,
              zero_omega: bool = False) -> tuple[KernelField, KernelField]:
    """Evolution kernel pair (h1, h2) at time t.

    zero_omega must be set exactly when omega = 0 (ZeroDivisionError if it
    is missing there, ValueError if it is set for omega > 0).
    """
    w1, w2 = _evolution_multipliers(lat, c, t, zero_omega)
    k1, k2 = ("h01", "h02") if zero_omega else ("h1", "h2")
    return (KernelField(lat, c, float(t), k1, lat.ifft(w1)),
            KernelField(lat, c, float(t), k2, lat.ifft(w2)))


def velocity(c: Couplings, mu: float) -> float:
    """Propagation speed of the envelopes: c_max * max(2/mu, e^(mu/2 + 1))."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return c.c_max * max(2.0 / mu, np.exp(mu / 2.0 + 1.0))


def envelope(e: EnvelopeParams, m: int, t: float, r) -> float:
    """Exponential envelope dominating |H^(m)(t, x)| at torus distance r.

    Prefactor 1, c_max * e^(mu/2), or 1/c_max for m = 0, 1, -1.
    """
    c = e.couplings
    if m == 0:
        pref = 1.0
    elif m == 1:
        pref = c.c_max * np.exp(e.mu / 2.0)
    elif m == -1:
        pref = 1.0 / c.c_max
    else:
        raise ValueError("m must be one of -1, 0, 1")
    r = np.asarray(r, dtype=float)
    out = pref * np.exp(-e.mu * (r - velocity(c, e.mu) * abs(t)))
    return float(out) if out.ndim == 0 else out
