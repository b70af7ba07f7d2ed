"""Bound evaluators for on-site (and bond) perturbations of the harmonic
lattice: the perturbation strength kappa, the composite constants, and the
perturbed-model commutator bound.

The Fourier convention is vhat'(w) = integral dq/(2 pi) V'(q) e^(-i q w);
kappa = integral |w| |vhat'(w)| dw measures the perturbation strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .torus import Couplings, TorusLattice
from .kernels import velocity
from .weyl import WeylFunction, _pair_distances, support_distance
from .genbounds import power_law_zeta

__all__ = ["PerturbationSpec", "AnharmonicBoundParams", "kappa_V",
           "anharm_constants", "anharm_bound_rhs", "F_mu", "lattice_power_sum"]


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation V with its strength kappa = integral |w| |vhat'(w)| dw,
    which each family's constructor gives in closed form.  A spec without
    a potential may leave kappa unset; it then counts as 0.

    tag selects where the perturbation acts when a brute-force Hamiltonian
    is assembled: "site" (V(q_x)), "site_p" (V(p_x)), or "bond"
    (V(q_x - q_{x+e})).  The bound formulas do not depend on the tag.
    """

    kappa: float | None = None
    potential: Callable[[float], float] | None = None
    tag: str = "site"
    name: str = "custom"

    def __post_init__(self):
        if self.tag not in ("site", "site_p", "bond"):
            raise ValueError("tag must be 'site', 'site_p', or 'bond'")
        if self.kappa is None and self.potential is not None:
            raise ValueError("a potential needs its kappa")

    @classmethod
    def zero(cls) -> "PerturbationSpec":
        return cls(kappa=0.0, name="zero")

    @classmethod
    def gaussian(cls, alpha: float, tag: str = "site") -> "PerturbationSpec":
        """V(q) = alpha * exp(-q^2/2); |vhat'(w)| = |alpha| |w| e^(-w^2/2) /
        sqrt(2 pi), so kappa = |alpha|."""
        return cls(kappa=abs(alpha),
                   potential=lambda q, a=alpha: a * np.exp(-q * q / 2.0),
                   tag=tag, name=f"gaussian({alpha})")

    @classmethod
    def cosine(cls, kappa: float, beta: float,
               tag: str = "site") -> "PerturbationSpec":
        """V(q) = kappa * cos(beta q); vhat' is a pair of atoms at +-beta
        with weight |kappa beta|/2 each, so kappa_V = |kappa| beta^2."""
        # beta * beta, not beta ** 2: a float power raises OverflowError
        return cls(kappa=abs(kappa) * beta * beta,
                   potential=lambda q, k=kappa, b=beta: k * np.cos(b * q),
                   tag=tag, name=f"cosine({kappa},{beta})")


def kappa_V(p: PerturbationSpec) -> float:
    """The perturbation strength kappa = integral |w| |vhat'(w)| dw."""
    return 0.0 if p.kappa is None else float(p.kappa)


@dataclass(frozen=True)
class AnharmonicBoundParams:
    """mu >= 1 and epsilon > 0, plus the harmonic couplings, whose number
    of bond couplings is the lattice dimension nu."""

    mu: float
    epsilon: float
    couplings: Couplings

    def __post_init__(self):
        if self.mu < 1.0:
            raise ValueError("the perturbed bound requires mu >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def nu(self) -> int:
        return self.couplings.nu


def _check_nu(b: AnharmonicBoundParams, lattice: TorusLattice | None):
    if lattice is not None and lattice.nu != b.nu:
        raise ValueError(f"the lattice has nu = {lattice.nu}, the couplings "
                         f"nu = {b.nu}")


def F_mu(mu: float, nu: int, r) -> np.ndarray:
    """Decay profile e^(-mu r) / (1 + r)^(nu + 1)."""
    r = np.asarray(r, dtype=float)
    out = np.exp(-mu * r) / (1.0 + r) ** (nu + 1)
    return float(out) if out.ndim == 0 else out


def lattice_power_sum(nu: int, lattice: TorusLattice | None = None) -> float:
    """sum of (1 + |z|)^(-nu-1) over the torus lattice, or over all of Z^nu
    when lattice is None."""
    if lattice is None:
        return power_law_zeta(nu)
    return float(np.sum((1.0 + lattice.abs_l1()) ** (-nu - 1.0)))


def anharm_constants(b: AnharmonicBoundParams, p: PerturbationSpec,
                     lattice: TorusLattice | None = None
                     ) -> tuple[float, float, float]:
    """(C, C_nu, v) for the perturbed bound.

    C    = (2 + c_max e^((mu+eps)/2) + 1/c_max) * sup_{s>=0} (1+s)^(nu+1) e^(-eps s)
    C_nu = 2^(nu+1) * sum (1 + |z|)^(-nu-1)  (over the torus lattice, or
           over Z^nu when lattice is None)
    v    = v_h(mu+eps) + C C_nu kappa / (mu+eps)

    A lattice whose nu is not that of the couplings raises ValueError.
    """
    _check_nu(b, lattice)
    c = b.couplings
    me = b.mu + b.epsilon
    s_star = max(0.0, (b.nu + 1.0) / b.epsilon - 1.0)
    sup = (1.0 + s_star) ** (b.nu + 1) * np.exp(-b.epsilon * s_star)
    C = (2.0 + c.c_max * np.exp(me / 2.0) + 1.0 / c.c_max) * sup
    Cnu = 2.0 ** (b.nu + 1) * lattice_power_sum(b.nu, lattice)
    kap = kappa_V(p)
    v = velocity(c, me) + C * Cnu * kap / me
    return float(C), float(Cnu), float(v)


def anharm_bound_rhs(f: WeylFunction, g: WeylFunction, t: float,
                     b: AnharmonicBoundParams, p: PerturbationSpec,
                     form: str = "theorem", z_limit: bool = False) -> float:
    """Commutator bound for the perturbed dynamics.

    form = "theorem":   C ||f|| ||g|| e^((mu+eps) v |t|)
                        sum_{x in X, y in Y} F_mu(d(x,y))
           "corollary": Ctilde ||f|| ||g|| min(|X|,|Y|)
                        e^(-mu (d(X,Y) - (1 + eps/mu) v |t|))

    The constants take the lattice sum over the torus of f, or over Z^nu
    when z_limit is set.
    """
    if f.lattice != g.lattice:
        raise ValueError("lattice mismatch")
    lat = f.lattice
    _check_nu(b, lat)
    C, _, v = anharm_constants(b, p, None if z_limit else lat)
    norms = f.sup_norm * g.sup_norm
    me = b.mu + b.epsilon
    if form == "theorem":
        pair = np.sum(F_mu(b.mu, b.nu, _pair_distances(f, g)))
        return float(C * norms * np.exp(me * v * abs(t)) * pair)
    if form == "corollary":
        Ct = C * power_law_zeta(b.nu)
        dxy = support_distance(f, g)
        size = min(len(f.support), len(g.support))
        return float(Ct * norms * size
                     * np.exp(-b.mu * (dxy - (1.0 + b.epsilon / b.mu)
                                       * v * abs(t))))
    raise ValueError(f"unknown form {form!r}")
