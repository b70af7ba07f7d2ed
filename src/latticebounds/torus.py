"""Periodic cubic lattice geometry, torus metric, and the dispersion relation.

The lattice is the cube (-L, L]^nu of integer points with periodic boundary
conditions; its dual momentum grid is {x*pi/L : x in lattice}, contained in
(-pi, pi]^nu.  Every other module indexes fields through the single site
enumeration defined here, and reaches the lattice Fourier transform only
through `TorusLattice.fft`/`ifft`, which map site-ordered fields (last
axis; leading axes are a batch) to dual-ordered coefficients and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TorusLattice", "Couplings", "dispersion"]


@dataclass(frozen=True)
class Couplings:
    """On-site frequency omega >= 0 and per-axis bond couplings lambda_j >= 0."""

    omega: float
    lam: tuple[float, ...]

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        if any(l < 0 for l in self.lam):
            raise ValueError("all bond couplings must be >= 0")
        if self.omega == 0 and all(l == 0 for l in self.lam):
            raise ValueError("couplings must not all vanish")
        with np.errstate(over="ignore"):
            c2 = np.float64(self.omega) ** 2 + 4.0 * sum(self.lam)
        if not np.isfinite(c2):
            raise ValueError("couplings too large: c_max overflows")

    @property
    def nu(self) -> int:
        return len(self.lam)

    @property
    def c_max(self) -> float:
        """Maximal mode frequency (omega^2 + 4*sum(lambda))^(1/2)."""
        return float(np.sqrt(self.omega**2 + 4.0 * sum(self.lam)))


class TorusLattice:
    """Finite torus (-L, L]^nu with |sites| = (2L)^nu.

    Sites are enumerated row-major over coordinates -L+1, ..., L per axis.
    The dual grid is index-aligned: dual[i] = sites[i] * pi / L.  The FFT
    grid holds site x at x mod 2L, so the enumeration is that grid rolled
    by L - 1 per axis; the flat permutation between the two is fixed here.
    """

    def __init__(self, nu: int, L: int):
        if nu < 1 or L < 1:
            raise ValueError("nu and L must be positive integers")
        self.nu = int(nu)
        self.L = int(L)
        self.side = 2 * self.L
        self._shape = (self.side,) * self.nu
        # row-major over the cube of coordinates -L+1, ..., L
        self.sites = np.ascontiguousarray(
            np.indices(self._shape, dtype=np.int64).reshape(self.nu, -1).T
            - (self.L - 1))
        self.dual = self.sites * (np.pi / self.L)
        self.sites.flags.writeable = False
        self.dual.flags.writeable = False
        # flat FFT-grid index of each site, and the site at each grid point
        self._grid_pos = np.ravel_multi_index(tuple((self.sites % self.side).T),
                                              self._shape)
        self._grid_site = np.argsort(self._grid_pos)

    @property
    def n_sites(self) -> int:
        return self.side ** self.nu

    def index(self, x) -> int:
        """Flat index of site x under the canonical row-major enumeration."""
        x = np.array(x, dtype=np.int64, ndmin=1)
        self._check_site(x)
        return int(np.ravel_multi_index(tuple(x + self.L - 1), self._shape))

    def _check_site(self, x):
        x = np.atleast_2d(x)
        if x.shape[-1] != self.nu:
            raise ValueError(f"site must have {self.nu} coordinates")
        if np.any(x <= -self.L) or np.any(x > self.L):
            raise ValueError(f"coordinates must lie in (-{self.L}, {self.L}]")

    def wrap(self, x):
        """Map integer coordinates back into (-L, L] componentwise."""
        x = np.asarray(x, dtype=np.int64)
        return (x + self.L - 1) % self.side - self.L + 1

    def distance(self, x, y) -> int | np.ndarray:
        """Torus metric: sum_j min_eta |x_j - y_j + 2L*eta|.

        x and y are sites or arrays of sites (coordinates on the last axis)
        that broadcast over their leading axes; a single pair gives an int.
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        self._check_site(x)
        self._check_site(y)
        d = np.abs(x - y) % self.side
        out = np.sum(np.minimum(d, self.side - d), axis=-1)
        return int(out) if out.ndim == 0 else out

    def distances_from(self, x) -> np.ndarray:
        """Torus distances from x to every site, in enumeration order."""
        return self.distance(self.sites, x)

    def abs_l1(self) -> np.ndarray:
        """Torus distance |x| from the origin for every site."""
        return self.distances_from(np.zeros(self.nu, dtype=np.int64))

    def neg_indices(self) -> np.ndarray:
        """Index of -x for each site index.

        Uses the convention that the boundary coordinate L maps to itself
        (exact index arithmetic, no floating point).
        """
        pos = self.wrap(-self.sites) + self.L - 1  # row-major positions
        return np.ravel_multi_index(tuple(pos.T), self._shape)

    def to_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape site-indexed values onto the FFT grid (x mod 2L)."""
        return values.take(self._grid_site, axis=-1).reshape(
            values.shape[:-1] + self._shape)

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Inverse of to_grid."""
        flat = grid.reshape(*grid.shape[:-self.nu], -1)
        return flat.take(self._grid_pos, axis=-1)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """sum_x exp(-i k.x) v_x for every dual point k, in site order."""
        return self.from_grid(np.fft.fftn(self.to_grid(values), s=self._shape,
                                          axes=range(-self.nu, 0)))

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """(1/N) sum_k exp(i k.x) c_k for every site x, in site order."""
        return self.from_grid(np.fft.ifftn(self.to_grid(coeffs), s=self._shape,
                                           axes=range(-self.nu, 0)))

    def __eq__(self, other):
        return (isinstance(other, TorusLattice)
                and self.nu == other.nu and self.L == other.L)

    def __hash__(self):
        return hash((self.nu, self.L))

    def __repr__(self):
        return f"TorusLattice(nu={self.nu}, L={self.L})"


def dispersion(c: Couplings, k) -> float | np.ndarray:
    """Mode frequency gamma(k) = sqrt(omega^2 + 4 sum_j lambda_j sin^2(k_j/2)).

    k is one dual point (shape (nu,)), giving a float, or an (n, nu)
    array of them, giving n values.
    Even in each component; maximum over the dual grid is c.c_max.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape[-1] != c.nu:
        raise ValueError("dual point dimension does not match couplings")
    lam = np.asarray(c.lam)
    g = np.sqrt(c.omega**2 + 4.0 * np.sum(lam * np.sin(k / 2.0) ** 2, axis=-1))
    return g if k.ndim > 1 else float(g)
