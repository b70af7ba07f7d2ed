"""Propagation bounds for arbitrary finite site sets with bounded
interactions: decay functions, interaction norms, interaction boundaries,
and the general bound evaluators.

Only the numbers ||Phi(Z)|| enter the bound, so interactions are modelled
as (subset, norm) pairs; no operators are represented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DecayFunction", "InteractionGraph", "decay_constants",
           "interaction_norm", "phi_boundary_and_D", "theorem_phi_bound",
           "power_law_zeta", "l1_metric"]


@dataclass(frozen=True)
class DecayFunction:
    """Non-increasing positive F(r), optionally exponentially weighted:
    F_a(r) = e^(-a r) F(r)."""

    base: Callable[[float], float]
    a: float = 0.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be >= 0")

    def f(self, r: float) -> float:
        fa = float(np.exp(-self.a * r) * self.base(r))
        if not fa > 0:
            raise ValueError(f"F_a({r}) = {fa} is not positive")
        return fa

    def table(self, d: np.ndarray) -> np.ndarray:
        """F_a over an array of distances, with the same positivity check.
        A value that underflows to 0 is refused too: it would turn the
        convolution constant C_a into 0/0, and skipping it would
        underestimate C_a."""
        fa = np.exp(-self.a * d) * np.broadcast_to(self.base(d), np.shape(d))
        bad = ~(fa > 0)
        if np.any(bad):
            raise ValueError(f"F_a({np.asarray(d)[bad].flat[0]}) = "
                             f"{fa[bad].flat[0]} is not positive")
        return fa

    def with_a(self, a: float) -> "DecayFunction":
        return DecayFunction(self.base, a)


def power_law(exponent: float) -> DecayFunction:
    """F(r) = (1 + r)^(-exponent)."""
    return DecayFunction(lambda r: (1.0 + r) ** (-exponent))


def l1_metric(points) -> np.ndarray:
    """Pairwise l1 distance table for integer points (rows)."""
    pts = np.asarray(points, dtype=float)
    return np.sum(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)


class InteractionGraph:
    """Finite site list with a metric table and interaction term norms."""

    def __init__(self, metric: np.ndarray, terms):
        self._set(metric, terms)
        self._check_triangle()

    @classmethod
    def from_points(cls, points, terms) -> "InteractionGraph":
        """The graph on the l1 metric of the points (rows).  That metric
        satisfies the triangle inequality by construction, so only the
        O(n^2) checks run, not the O(n^3) scan of a given metric."""
        G = cls.__new__(cls)
        G._set(l1_metric(points), terms)
        return G

    def _set(self, metric, terms):
        """Store the metric and the terms, with every check but the scan."""
        d = np.asarray(metric, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("metric must be a square table")
        self.n = d.shape[0]
        self.d = d
        self.terms = []
        for Z, norm in terms:
            Z = frozenset(int(i) for i in Z)
            if not Z or any(i < 0 or i >= self.n for i in Z):
                raise ValueError("term subsets must be nonempty site subsets")
            if norm < 0:
                raise ValueError("term norms must be >= 0")
            self.terms.append((Z, float(norm)))
        if np.any(np.diag(d) != 0):
            raise ValueError("metric must vanish on the diagonal")
        if np.any(d != d.T):
            raise ValueError("metric must be symmetric")
        if np.any((d == 0) & ~np.eye(self.n, dtype=bool)):
            raise ValueError("distinct sites must have positive distance")

    def _check_triangle(self):
        """The triangle inequality, exhaustively: O(n^3) comparisons."""
        d = self.d
        for z in range(self.n):
            if np.any(d > d[:, z][:, None] + d[z, :][None, :] + 1e-12):
                raise ValueError("triangle inequality violated")

    def set_distance(self, X, Y) -> float:
        X, Y = list(X), list(Y)
        return float(np.min(self.d[np.ix_(X, Y)]))


def decay_constants(G: InteractionGraph, F: DecayFunction) -> tuple[float, float]:
    """(||F_a||, C_a): the uniform-integrability norm and the convolution
    constant, both by exhaustive summation over the finite site set."""
    fa = F.table(G.d)
    norm = float(np.max(np.sum(fa, axis=1)))
    # C_a = sup_{x,y} sum_z F_a(d(x,z)) F_a(d(z,y)) / F_a(d(x,y))
    conv = fa @ fa
    ca = float(np.max(conv / fa))
    return norm, ca


def interaction_norm(G: InteractionGraph, F: DecayFunction) -> float:
    """||Phi||_a = max over site pairs of sum_{Z containing both} ||Phi(Z)||
    divided by F_a of their distance."""
    # pair-weight table S[x, y] = sum_{Z containing x and y} ||Phi(Z)||
    S = np.zeros((G.n, G.n))
    for Z, norm in G.terms:
        idx = np.array(sorted(Z))
        S[np.ix_(idx, idx)] += norm
    mask = S > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(S[mask] / F.table(G.d[mask])))


def phi_boundary(G: InteractionGraph, X) -> frozenset[int]:
    """Sites of X touched by a nonzero term straddling X and its complement."""
    X = frozenset(int(i) for i in X)
    out = set()
    for Z, norm in G.terms:
        if norm == 0:
            continue
        if Z & X and Z - X:
            out |= Z & X
    return frozenset(out)


def phi_boundary_and_D(G: InteractionGraph, F: DecayFunction, X, Y):
    """Interaction boundaries of X and Y and the boundary-weighted pair sum

        D_a(X,Y) = min( sum_{x in bX, y in Y} F_a(d(x,y)),
                        sum_{x in X, y in bY} F_a(d(x,y)) ).
    """
    X = frozenset(int(i) for i in X)
    Y = frozenset(int(i) for i in Y)
    bX = phi_boundary(G, X)
    bY = phi_boundary(G, Y)
    s1, s2 = (float(np.sum(F.table(G.d[np.ix_(sorted(A), sorted(B))])))
              for A, B in ((bX, Y), (X, bY)))
    return bX, bY, min(s1, s2)


def power_law_zeta(nu: int) -> float:
    """sum over x in Z^nu of (1 + |x|)^(-nu-1), |x| the l1 norm.

    With (1+r)^(-s) = Gamma(s)^(-1) int u^(s-1) e^(-u(1+r)) du and
    sum_x e^(-u|x|) = coth(u/2)^nu, the sum without x = 0 is

        (1/nu!) int_0^inf e^(-u) (u coth(u/2))^nu (1 - tanh(u/2)^nu) du,

    taken by the trapezoid rule in tau = log u (step 1/8; the integrand is
    analytic for |Im tau| < pi/2), which meets 50-digit references to
    about 3e-16 relative for nu = 1..1000.
    """
    if not 1 <= nu <= 1000:
        raise ValueError("nu must lie in 1..1000")
    h = 0.125
    tau = np.arange(-45.0, np.log(nu + 1.0) + 5.0, h)
    u = np.exp(tau)
    # log tanh(u/2), accurate at both ends
    e = np.exp(-u[u >= 1])
    log_tanh = np.concatenate((np.log(np.tanh(u[u < 1] / 2)),
                               np.log1p(-2 * e / (1 + e))))
    terms = np.exp((nu + 1) * tau - u - nu * log_tanh - math.lgamma(nu + 1))
    return 1.0 + h * float(np.sum(terms * -np.expm1(nu * log_tanh)))


def theorem_phi_bound(G: InteractionGraph, F: DecayFunction, X, Y,
                      normA: float, normB: float, t,
                      form: str = "theorem",
                      nu: int | None = None) -> float | np.ndarray:
    """General bound for bounded interactions, at a time or a 1-D grid.

    form = "theorem":   (2 ||A|| ||B|| / C_a) g_a(t) D_a(X,Y) with
                        g_a(t) = e^(2 ||Phi||_a C_a |t|) - 1 if d(X,Y) > 0,
                        no "-1" otherwise.
           "corollary": (2 ||A|| ||B|| ||F|| / C_a) min(|bX|, |bY|)
                        e^(-a (d(X,Y) - 2 ||Phi||_a C_a |t| / a)); a > 0.
           "lrexp":     specialization to F(r) = (1+r)^(-nu-1) on Z^nu with
                        its convolution constant C = 2^(nu+1) * zeta sum.
    """
    from .kernels import _exp_bound
    X = frozenset(int(i) for i in X)
    Y = frozenset(int(i) for i in Y)
    for name, S in (("X", X), ("Y", Y)):
        if not S or min(S) < 0 or max(S) >= G.n:
            raise ValueError(f"{name} must be a nonempty subset of the sites "
                             f"0..{G.n - 1}")
    dxy = G.set_distance(X, Y)
    if form in ("lrexp", "corollary"):
        if F.a <= 0:
            raise ValueError(f"{form} form requires a > 0")
        nb = min(len(phi_boundary(G, X)), len(phi_boundary(G, Y)))
    if form in ("theorem", "corollary"):
        _, ca = decay_constants(G, F)
        if ca == 0:
            raise ValueError("degenerate graph: C_a = 0")
        rate = 2.0 * interaction_norm(G, F) * ca
    log_phi, log_g = -F.a * dxy, None
    if form == "lrexp":
        if nu is None:
            raise ValueError("lrexp form requires nu")
        K = 2.0 ** (-(nu + 1)) * normA * normB * nb
        rate = (2.0 * interaction_norm(G, power_law(nu + 1).with_a(F.a))
                * 2.0 ** (nu + 1) * power_law_zeta(nu))
    elif form == "theorem":  # the pair sum D_a is part of K
        K = 2.0 * normA * normB / ca * phi_boundary_and_D(G, F, X, Y)[2]
        log_phi = 0.0
        if dxy > 0:  # e^(rate |t|) - 1 = e^(rate |t|) (1 - e^(-rate |t|))
            log_g = lambda at: np.log(-np.expm1(-rate * at))
    elif form == "corollary":
        normF0, _ = decay_constants(G, F.with_a(0.0))
        K = 2.0 * normA * normB * normF0 / ca * nb
    else:
        raise ValueError(f"unknown form {form!r}")
    return _exp_bound(f"theorem_phi_bound {form}", t, K, rate, log_phi,
                      log_g=log_g)
