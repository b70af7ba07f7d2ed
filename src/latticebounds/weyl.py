"""Weyl arguments, their exact harmonic evolution, and the propagation
bound evaluators for the harmonic model.

A Weyl operator W(f) = exp(i sum_x (q_x Re f_x + p_x Im f_x)) is represented
by its complex argument f alone; the harmonic dynamics maps arguments to
arguments,

    f_t = f * conj(h1_t) + conj(f) * h2_t      (periodic convolution)

applied in k as the closed-form mode multipliers conj(h1^_t), h2^_t of
`kernels`.  The commutator norm of two evolved Weyl operators is exactly
2 |sin(sigma/2)| with sigma = Im<g, f_t>.  Inner products conjugate the
first argument throughout.  The exact norm and the bounds take t as a
scalar or as a 1-D time grid, which becomes the leading axis of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import Couplings, TorusLattice, dispersion
from .kernels import _evolution_multipliers, _exp_bound, _time_blocks, \
    velocity

__all__ = ["WeylFunction", "HarmonicBoundParams", "evolve",
           "evolve_mode_space", "symplectic_form", "commutator_norm_exact",
           "harmonic_bound_rhs", "geometric_lattice_sum"]


class WeylFunction:
    """Complex field over the lattice; its support is where it is nonzero."""

    def __init__(self, lattice: TorusLattice, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (lattice.n_sites,):
            raise ValueError("values must be a flat array over all sites")
        self.lattice = lattice
        self.values = values

    @property
    def support(self) -> np.ndarray:
        """Ascending indices of the sites where the values are nonzero."""
        return np.flatnonzero(self.values)

    @classmethod
    def from_sites(cls, lattice: TorusLattice, entries) -> "WeylFunction":
        """Build from (site, amplitude) pairs."""
        vals = np.zeros(lattice.n_sites, dtype=complex)
        for site, amp in entries:
            vals[lattice.index(site)] += amp
        return cls(lattice, vals)

    @classmethod
    def delta(cls, lattice: TorusLattice, site, amp=1.0) -> "WeylFunction":
        return cls.from_sites(lattice, [(site, amp)])

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def support_sites(self) -> np.ndarray:
        return self.lattice.sites[self.support]


def _check_same_lattice(*objs):
    lat = objs[0].lattice
    for o in objs[1:]:
        if o.lattice != lat:
            raise ValueError("lattice mismatch")
    return lat


def _conv(lat: TorusLattice, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic convolution (a*b)_x = sum_y a_y b_{x-y} via the FFT grid."""
    return lat.ifft(lat.fft(a) * lat.fft(b))


def _evolved(f: WeylFunction, t, couplings: Couplings) -> np.ndarray:
    """Values of f_t: two forward FFTs, then one inverse FFT per time block."""
    lat = f.lattice
    fa, fb = lat.fft(f.values), lat.fft(np.conj(f.values))

    def block(tb):
        w1, w2 = _evolution_multipliers(lat, couplings, tb)
        return lat.ifft(fa * np.conj(w1) + fb * w2)
    return _time_blocks(lat, t, block)


def evolve(f: WeylFunction, t: float, couplings: Couplings,
           zero_omega: bool | None = None) -> WeylFunction:
    """Exact harmonic evolution f -> f_t under the given couplings.

    The zero mode is derived from the couplings.  zero_omega is a legacy
    keyword that changes no arithmetic: a value that is given must agree
    with omega = 0 (ZeroDivisionError if it is False there, ValueError if
    it is True for omega > 0).  ROADMAP item 1b deletes it together with
    the perfbench evolve check that passes it.
    """
    if zero_omega is not None and zero_omega != (couplings.omega == 0):
        if zero_omega:
            raise ValueError("zero_omega=True requires omega = 0")
        raise ZeroDivisionError(
            "singular mode: k = 0 requires zero_omega=True when omega = 0")
    return WeylFunction(f.lattice, _evolved(f, t, couplings))


def evolve_mode_space(f: WeylFunction, t: float, c: Couplings) -> WeylFunction:
    """Independent oracle: evolve through the normal-mode amplitudes.

    The generator sum_x (q_x Re f_x + p_x Im f_x) is decomposed over the
    lowering operators b_k, whose Heisenberg evolution is the exact phase
    exp(-2i gamma(k) t); the evolved argument is reassembled from the
    rotated amplitudes.  O(N^2), used only on small lattices.
    """
    lat = f.lattice
    n = lat.n_sites
    gam = dispersion(c, lat.dual)
    if np.any(gam == 0):
        raise ZeroDivisionError("mode-space oracle requires gamma(k) > 0")
    # forward transforms R(k) = N^(-1/2) sum_x e^{ikx} Re f_x, same for Im
    phase = np.exp(1j * lat.dual @ lat.sites.T)  # phase[k, x]
    rhat = phase @ f.values.real / np.sqrt(n)
    ihat = phase @ f.values.imag / np.sqrt(n)
    # amplitude of b_k in the generator
    ck = (1j * rhat / np.sqrt(gam) + np.sqrt(gam) * ihat) / np.sqrt(2.0)
    ck = ck * np.exp(-2j * gam * t)
    # invert, using c_{-k} to separate the two real transforms
    neg = lat.neg_indices()
    ck_neg_conj = np.conj(ck[neg])
    rhat_t = np.sqrt(gam) * (ck - ck_neg_conj) * np.sqrt(2.0) / 2j
    ihat_t = (ck + ck_neg_conj) / (np.sqrt(2.0) * np.sqrt(gam))
    re_t = np.conj(phase).T @ rhat_t / np.sqrt(n)
    im_t = np.conj(phase).T @ ihat_t / np.sqrt(n)
    return WeylFunction(lat, re_t.real + 1j * im_t.real)


def _im_inner(a: np.ndarray, b: np.ndarray):
    """Im sum_x conj(a_x) b_x over the last axis."""
    return np.imag(np.sum(np.conj(a) * b, axis=-1))


def symplectic_form(f: WeylFunction, g: WeylFunction) -> float:
    """Im<f, g> with <f, g> = sum_x conj(f_x) g_x.  Antisymmetric."""
    _check_same_lattice(f, g)
    return float(_im_inner(f.values, g.values))


def commutator_norm_exact(f: WeylFunction, g: WeylFunction, t,
                          couplings: Couplings) -> float | np.ndarray:
    """Exact ||[tau_t(W(f)), W(g)]|| = 2 |sin(Im<g, f_t>/2)|, in [0, 2]."""
    lat = _check_same_lattice(f, g)
    sigma = _time_blocks(lat, t, lambda tb: _im_inner(
        g.values, _evolved(f, tb, couplings)))
    out = 2.0 * np.abs(np.sin(sigma / 2.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HarmonicBoundParams:
    """mu > 0, and for the corollary form a contraction factor 0 < a < 1."""

    mu: float
    couplings: Couplings
    a: float | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.a is not None and not (0.0 < self.a < 1.0):
            raise ValueError("a must lie in (0, 1)")


def geometric_lattice_sum(b: float, nu: int) -> float:
    """sum over z in Z^nu of e^(-b |z|) in closed form (product of 1-d sums)."""
    if b <= 0:
        raise ValueError("decay rate must be positive")
    return float(((1.0 + np.exp(-b)) / -np.expm1(-b)) ** nu)


def _pair_histogram(f: WeylFunction, g: WeylFunction):
    """Ascending torus distances r of the support pairs of f and g, and the
    number of pairs at each; r[0] is d(X, Y)."""
    lat = _check_same_lattice(f, g)
    d = lat.distance(f.support_sites()[:, None], g.support_sites()[None])
    if d.size == 0:
        raise ValueError("f and g need nonempty supports")
    n = np.bincount(d.ravel())
    r = np.flatnonzero(n)
    return r, n[r]


def support_distance(f: WeylFunction, g: WeylFunction) -> int:
    """d(X, Y) = min over support pairs of the torus distance."""
    return int(_pair_histogram(f, g)[0][0])


def harmonic_bound_rhs(f: WeylFunction, g: WeylFunction, t,
                       p: HarmonicBoundParams,
                       form: str = "theorem") -> float | np.ndarray:
    """Right-hand side of the harmonic propagation bound.

    form = "theorem":    C ||f|| ||g|| sum_{x in X, y in Y}
                         exp(-mu (d(x,y) - v_h(mu) |t|))
           "corollary":  Ctilde ||f|| ||g|| min(|X|,|Y|)
                         exp(-mu (a d(X,Y) - v_h(mu) |t|))
           "small_time": theorem form times t^(2 d(X,Y)); requires
                         d(X,Y) > 1 + c_max * e^(mu/2 + 1)

    with C = 2 + c_max e^(mu/2) + 1/c_max, Ctilde = C sum_z e^(-mu (1-a) |z|).
    """
    c, mu = p.couplings, p.mu
    v = velocity(c, mu)
    log_c = np.logaddexp(np.log(c.c_max) + mu / 2.0,
                         np.log(2.0 + 1.0 / c.c_max))
    r, n = _pair_histogram(f, g)
    K, log_phi, log_g = f.sup_norm * g.sup_norm, log_c - mu * r, None
    if form == "small_time":
        if not (r[0] > 1 and np.log(r[0] - 1.0)
                > np.log(c.c_max) + mu / 2.0 + 1.0):
            raise ValueError(
                "small-time form requires d(X,Y) > 1 + c_max*e^(mu/2 + 1); "
                f"got d(X,Y) = {r[0]}")
        log_g = lambda at: 2 * r[0] * np.log(at)
    elif form == "corollary":
        if p.a is None:
            raise ValueError("corollary form requires the parameter a")
        K *= (geometric_lattice_sum(mu * (1.0 - p.a), f.lattice.nu)
              * min(len(f.support), len(g.support)))
        log_phi, n = log_c - mu * p.a * r[0], None
    elif form != "theorem":
        raise ValueError(f"unknown form {form!r}")
    return _exp_bound(f"harmonic_bound_rhs {form}", t, K, mu * v, log_phi, n,
                      log_g)
