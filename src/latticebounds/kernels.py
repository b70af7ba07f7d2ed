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
oracle checks the FFT sums.  The FFT-path kernels, multipliers and envelopes
take t as a scalar or as a 1-D time grid, which becomes their leading axis;
a grid is evaluated in blocks of at most _BLOCK values per temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import Couplings, TorusLattice, dispersion

__all__ = ["KernelField", "EnvelopeParams", "compute_H", "compute_H_direct",
           "compute_h", "envelope", "velocity"]

_BLOCK = 2 ** 16  # values per block when a time grid is evaluated


@dataclass(frozen=True)
class KernelField:
    """One sampled kernel: values over the site enumeration (last axis)."""

    lattice: TorusLattice
    values: np.ndarray

    def at(self, x):
        return self.values[..., self.lattice.index(x)]


@dataclass(frozen=True)
class EnvelopeParams:
    """Decay rate mu > 0 for the exponential kernel envelopes."""

    mu: float
    couplings: Couplings

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")


def _weights(lat: TorusLattice, c: Couplings, m: int, t) -> np.ndarray:
    """gamma(k)^m * exp(-2i gamma(k) t) over the dual grid; a zero mode
    (omega = 0) with m = -1 raises ZeroDivisionError."""
    if m not in (-1, 0, 1):
        raise ValueError("m must be one of -1, 0, 1")
    gam = np.atleast_1d(dispersion(c, lat.dual))
    if m == -1 and np.any(gam == 0.0):
        raise ZeroDivisionError(
            "singular mode: gamma(k) = 0 at k = 0 (omega = 0 with m = -1)")
    return gam ** m * np.exp(-2j * gam * np.asarray(t, dtype=float)[..., None])


def _time_blocks(lat: TorusLattice, t, fn) -> np.ndarray:
    """fn over a 1-D time grid in blocks of at most _BLOCK // n_sites times
    (at least one), concatenated; fn(t) for a scalar t.  Rows are computed
    independently, so blocking bounds the (T, N) temporaries and changes no
    bit of the result."""
    t = np.asarray(t, dtype=float)
    step = max(1, _BLOCK // lat.n_sites)
    return fn(t) if t.ndim == 0 else np.concatenate(
        [fn(t[i:i + step]) for i in range(0, max(len(t), 1), step)])


def compute_H(lat: TorusLattice, c: Couplings, m: int, t) -> KernelField:
    """Real-valued base kernel H^(m) at time t (fast FFT path)."""
    def part(tb):
        s = lat.ifft(_weights(lat, c, m, tb))
        return s.real if m == 0 else s.imag
    return KernelField(lat, _time_blocks(lat, t, part))


def compute_H_direct(lat: TorusLattice, c: Couplings, m: int, t: float,
                     site_index: int | None = None):
    """Direct-summation oracle for H^(m); optionally a single site probe."""
    w = _weights(lat, c, m, t)
    rows = range(lat.n_sites) if site_index is None else [site_index]
    s = np.array([np.sum(w * np.exp(1j * lat.dual @ lat.sites[i]))
                  / lat.n_sites for i in rows])
    vals = s.real if m == 0 else s.imag
    return KernelField(lat, vals) if site_index is None else float(vals[0])


def _evolution_multipliers(lat: TorusLattice, c: Couplings, t,
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
    t = np.asarray(t, dtype=float)[..., None]
    gs = gam * np.sin(2.0 * gam * t)
    s = 2.0 * t * np.sinc(2.0 * gam * t / np.pi)  # sin(2 gamma t) / gamma
    return np.cos(2.0 * gam * t) - 0.5j * (gs + s), -0.5j * (gs - s)


def compute_h(lat: TorusLattice, c: Couplings, t,
              zero_omega: bool = False) -> tuple[KernelField, KernelField]:
    """Evolution kernel pair (h1, h2) at time t.

    zero_omega must be set exactly when omega = 0 (ZeroDivisionError if it
    is missing there, ValueError if it is set for omega > 0).
    """
    h = _time_blocks(lat, t, lambda tb: np.stack(
        [lat.ifft(w) for w in _evolution_multipliers(lat, c, tb, zero_omega)],
        axis=-2))
    return KernelField(lat, h[..., 0, :]), KernelField(lat, h[..., 1, :])


def velocity(c: Couplings, mu: float) -> float:
    """Propagation speed of the envelopes: c_max * max(2/mu, e^(mu/2 + 1))."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return c.c_max * max(2.0 / mu, np.exp(mu / 2.0 + 1.0))


def envelope(e: EnvelopeParams, m: int, t, r) -> float | np.ndarray:
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
    # v|t| - r with the times leading; mu (v|t| - r) = -mu (r - v|t|) exactly
    vt = velocity(c, e.mu) * np.abs(t)
    out = pref * np.exp(e.mu * np.subtract.outer(vt, np.asarray(r, float)))
    return float(out) if out.ndim == 0 else out
