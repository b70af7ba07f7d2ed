"""Brute-force oracle: exact Heisenberg dynamics of a few coupled
oscillators in a truncated number-state basis.

Systems of N <= 4 sites (open chain or ring) are represented on the tensor
product of per-site truncated oscillator bases.  H is assembled once, as
a sparse Kronecker sum of the on-site and bond terms, and every path uses
it: small systems diagonalise it densely; above DENSE_EIG_DIM the
low-lying eigenvectors come from ARPACK and the propagator is applied by
Krylov expm_multiply, so no dense matrix beyond the observables is formed.
H is real for every even potential under every tag, so the dense
eigendecomposition and ARPACK (symmetric Lanczos) run in real arithmetic.

Commutator norms are measured on the span of the lowest-lying energy
eigenvectors.  The truncated propagator is only faithful on states well
below the truncation edge; the restricted norm converges as the per-site
dimension grows, while the norm over the full truncated space is dominated
by edge artifacts and never does.  For the harmonic model the commutator
of two Weyl operators is a scalar multiple of a unitary, so the restricted
norm equals the true norm up to truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, expm_multiply

from .torus import Couplings
from .anharmonic import PerturbationSpec

__all__ = ["FockSystem", "build_system", "evolve_observable",
           "commutator_front", "truncation_gate", "ring_distance"]

MAX_DENSE_DIM = 20736
DENSE_EIG_DIM = 2100  # above this, propagation goes matrix-free


def ring_distance(n_sites: int, i: int, j: int) -> int:
    d = abs(i - j) % n_sites
    return min(d, n_sites - d)


def _local_ops(n: int, omega0: float):
    """Truncated q and p with [q, p] = i away from the truncation edge
    (mass 1/2 convention): q = (b + b*)/sqrt(2 w0), p = i sqrt(w0/2) (b* - b)."""
    s = np.sqrt(np.arange(1, n))
    b = np.diag(s, 1)
    q = (b + b.T) / np.sqrt(2.0 * omega0)
    p = 1j * np.sqrt(omega0 / 2.0) * (b.T - b)
    return q, p


def _matrix_function(h: np.ndarray, fn) -> np.ndarray:
    """fn applied to a Hermitian matrix through its spectral decomposition."""
    w, v = np.linalg.eigh(h)
    return (v * fn(w)) @ v.conj().T


def _mul(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v, without a complex copy of a real a."""
    if np.isrealobj(a) and np.iscomplexobj(v):
        return a @ v.real + 1j * (a @ v.imag)
    return a @ v


class FockSystem:
    """N-site oscillator system in a truncated per-site number basis."""

    def __init__(self, n_sites: int, trunc: int, couplings: Couplings,
                 geometry: str = "ring",
                 perturbation: PerturbationSpec | None = None):
        if n_sites < 1 or n_sites > 4:
            raise ValueError("the oracle supports 1 to 4 sites")
        if geometry not in ("ring", "chain"):
            raise ValueError("geometry must be 'ring' or 'chain'")
        if couplings.nu != 1:
            raise ValueError("the oracle is one-dimensional (nu = 1)")
        if trunc < 3:
            raise ValueError("truncation must be at least 3")
        dim = trunc ** n_sites
        if dim > MAX_DENSE_DIM:
            raise ValueError(
                f"dimension {dim} exceeds the dense-feasibility cap "
                f"{MAX_DENSE_DIM}")
        self.n_sites = n_sites
        self.trunc = trunc
        self.dim = dim
        self.couplings = couplings
        self.geometry = geometry
        self.perturbation = perturbation or PerturbationSpec.zero()
        omega0 = couplings.omega if couplings.omega > 0 else couplings.c_max
        self.omega0 = omega0
        self.q1, self.p1 = _local_ops(trunc, omega0)
        self._assemble_local_terms()
        self._h = None
        self._eig = None
        self._low: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- assembly -----------------------------------------------------

    def bonds(self) -> list[tuple[int, int]]:
        if self.n_sites == 1:
            return []
        if self.geometry == "chain":
            return [(x, x + 1) for x in range(self.n_sites - 1)]
        return [(x, (x + 1) % self.n_sites) for x in range(self.n_sites)]

    def _assemble_local_terms(self):
        n = self.trunc
        c = self.couplings
        lam = c.lam[0]
        pert = self.perturbation
        onsite = self.p1 @ self.p1 + c.omega**2 * (self.q1 @ self.q1)
        if pert.potential is not None and pert.tag == "site":
            onsite = onsite + _matrix_function(self.q1, pert.potential)
        if pert.potential is not None and pert.tag == "site_p":
            onsite = onsite + _matrix_function(self.p1, pert.potential)
        # lam (q_i - q_j)^2 on a pair, plus an optional bond potential
        eye = np.eye(n)
        dq = np.kron(self.q1, eye) - np.kron(eye, self.q1)
        bond = lam * (dq @ dq)
        if pert.potential is not None and pert.tag == "bond":
            bond = bond + _matrix_function(dq, pert.potential)
        # relative, so that the check holds at every energy scale
        if any(np.max(np.abs(m - m.conj().T)) > 1e-10 * np.max(np.abs(m))
               for m in (onsite, bond)):
            raise AssertionError("non-Hermitian assembly")
        # V(p) of an even V is real up to eigh round-off (~1e-17)
        if all(np.max(np.abs(m.imag)) <= 1e-12 * np.max(np.abs(m))
               for m in (onsite, bond)):
            onsite, bond = onsite.real, bond.real
        self._onsite = onsite
        self._bond = bond

    def _embed(self, op: np.ndarray, sites: tuple[int, ...]) -> sp.csr_array:
        """op, acting on `sites` in the order given, on the full space."""
        n, N = self.trunc, self.n_sites
        order = list(sites) + [x for x in range(N) if x not in sites]
        # full-space index of each index of the space reordered as `order`
        full = np.arange(self.dim).reshape((n,) * N).transpose(order).ravel()
        m = sp.kron(op, sp.identity(n ** (N - len(sites))), format="coo")
        return sp.csr_array((m.data, (full[m.row], full[m.col])),
                            shape=(self.dim, self.dim))

    def hamiltonian(self) -> sp.csr_array:
        """The Hamiltonian as a cached sparse (CSR) Kronecker sum of the
        on-site and bond terms; float64 when those terms are real."""
        if self._h is None:
            self._h = sum([self._embed(self._onsite, (x,))
                           for x in range(self.n_sites)]
                          + [self._embed(self._bond, b)
                             for b in self.bonds()])
        return self._h

    # -- tensor application (vectors or column blocks) -------------------

    def _apply_one_site(self, op: np.ndarray, site: int,
                        v: np.ndarray) -> np.ndarray:
        n, N = self.trunc, self.n_sites
        batch = v.shape[1:]
        t = v.reshape((n,) * N + batch)
        t = np.moveaxis(t, site, 0)
        moved = t.shape
        t = op @ t.reshape(n, -1)
        t = np.moveaxis(t.reshape(moved), 0, site)
        return t.reshape((self.dim,) + batch)

    def apply_h(self, v: np.ndarray) -> np.ndarray:
        return self.hamiltonian() @ v

    # -- spectra and states --------------------------------------------

    def eigensystem(self):
        """Cached dense eigendecomposition (small dimensions only)."""
        if self._eig is None:
            if self.dim > DENSE_EIG_DIM:
                raise ValueError(
                    f"dense eigendecomposition disabled at dim {self.dim}; "
                    "use the matrix-free paths")
            self._eig = np.linalg.eigh(self.hamiltonian().toarray())
        return self._eig

    def eigenvalues(self, k: int | None = None) -> np.ndarray:
        if k is None:
            return self.eigensystem()[0]
        return self.low_energy_basis(k)[0]

    def low_energy_basis(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest energies, ascending, and orthonormal eigenvector
        columns for them (cached per k).  Above DENSE_EIG_DIM they come
        from ARPACK's symmetric Lanczos driver when H is real; its start
        vector is seeded, so repeated runs give the same basis."""
        if k < 1:
            raise ValueError("the low-energy basis needs k >= 1")
        k = min(k, self.dim if self.dim <= DENSE_EIG_DIM else self.dim - 2)
        if k not in self._low:
            if self.dim <= DENSE_EIG_DIM:
                w, v = self.eigensystem()
                w, v = w[:k], v[:, :k]
            else:
                # not an all-ones start: on a ring that vector lies in the
                # translation-invariant sector, and Lanczos started there
                # misses the k = +-1 levels
                v0 = np.random.default_rng(0).standard_normal(self.dim)
                w, v = eigsh(self.hamiltonian(), k=k, which="SA", v0=v0,
                             maxiter=50 * self.dim)
                order = np.argsort(w)
                # eigs (complex H) leaves degenerate levels non-orthogonal
                w, v = w[order], np.linalg.qr(v[:, order])[0]
            self._low[k] = (w, np.ascontiguousarray(v))
        return self._low[k]

    def ground_state(self) -> tuple[float, np.ndarray]:
        w, v = self.low_energy_basis(1)
        return float(w[0]), v[:, 0]

    # -- Weyl operators -------------------------------------------------

    def weyl_local_factors(self, f: np.ndarray) -> list[np.ndarray]:
        """Per-site unitaries of W(f) = prod_x exp(i(q_x Re f_x + p_x Im f_x))."""
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.n_sites,):
            raise ValueError("f must assign one amplitude per site")
        facs = []
        for x in range(self.n_sites):
            gen = self.q1 * f[x].real + self.p1 * f[x].imag
            facs.append(_matrix_function(gen, lambda w: np.exp(1j * w)))
        return facs

    def weyl_matrix(self, f: np.ndarray) -> np.ndarray:
        facs = self.weyl_local_factors(f)
        out = facs[0]
        for m in facs[1:]:
            out = np.kron(out, m)
        return out

    def apply_weyl(self, f_or_factors, v: np.ndarray,
                   adjoint: bool = False) -> np.ndarray:
        facs = (self.weyl_local_factors(f_or_factors)
                if isinstance(f_or_factors, np.ndarray) else f_or_factors)
        for x, m in enumerate(facs):
            v = self._apply_one_site(m.conj().T if adjoint else m, x, v)
        return v

    # -- dynamics --------------------------------------------------------

    def propagate(self, v: np.ndarray, t: float) -> np.ndarray:
        """exp(-i t H) v for a vector or column block, through the cached
        eigendecomposition or, above DENSE_EIG_DIM, by expm_multiply on the
        sparse H (which gives it the exact trace and 1-norm)."""
        if self.dim <= DENSE_EIG_DIM:
            w, vecs = self.eigensystem()
            # conj() of a real array is the array itself, not a copy
            coef = _mul(vecs.conj().T, v)
            return _mul(vecs, (np.exp(-1j * t * w) * coef.T).T)
        if t == 0.0:
            return v.astype(complex)
        return expm_multiply(-1j * t * self.hamiltonian(), v.astype(complex))

    def commutator_norm(self, f: np.ndarray, g: np.ndarray, t: float,
                        n_low: int = 20) -> float:
        """Norm of [tau_t(W(f)), W(g)] restricted to the lowest n_low
        energy eigenvectors (the converged sector of the truncation)."""
        ff = self.weyl_local_factors(np.asarray(f, dtype=complex))
        gf = self.weyl_local_factors(np.asarray(g, dtype=complex))
        energies, basis = self.low_energy_basis(n_low)
        # tau_t(W_f) W_g B and W_g tau_t(W_f) B, with e^{-itH} B =
        # B diag(e^{-itE}) and the two e^{itH} blocks propagated as one
        x = self.propagate(self.apply_weyl(gf, basis), t)
        y = basis * np.exp(-1j * t * energies)
        z = self.propagate(self.apply_weyl(ff, np.hstack([x, y])), -t)
        a, b = np.hsplit(z, 2)
        return float(np.linalg.norm(a - self.apply_weyl(gf, b), 2))


def build_system(n_sites: int, trunc: int, couplings: Couplings,
                 geometry: str = "ring",
                 perturbation: PerturbationSpec | None = None) -> FockSystem:
    return FockSystem(n_sites, trunc, couplings, geometry, perturbation)


def evolve_observable(sys: FockSystem, a: np.ndarray, t: float) -> np.ndarray:
    """Dense Heisenberg evolution e^{itH} A e^{-itH} via eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (sys.dim, sys.dim):
        raise ValueError("observable has the wrong dimension")
    w, v = sys.eigensystem()
    at = v.conj().T @ a @ v
    phases = np.exp(1j * t * w)
    at = (phases[:, None] * at) * np.conj(phases)[None, :]
    return v @ at @ v.conj().T


@dataclass
class FrontSeries:
    tgrid: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    fit_residual_rel: float


def commutator_front(sys: FockSystem, f: np.ndarray, g: np.ndarray,
                     tgrid, n_low: int = 20) -> FrontSeries:
    """Commutator norms over a time grid for disjointly supported f, g,
    with a linear short-time fit through the origin."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if np.any((f != 0) & (g != 0)):
        raise ValueError("supports of f and g must be disjoint")
    tgrid = np.asarray(tgrid, dtype=float)
    norms = np.array([sys.commutator_norm(f, g, t, n_low=n_low)
                      for t in tgrid])
    nz = tgrid != 0
    if np.count_nonzero(nz) >= 2:
        slope = float(np.sum(tgrid[nz] * norms[nz])
                      / np.sum(tgrid[nz] ** 2))
        resid = norms[nz] - slope * tgrid[nz]
        rel = float(np.linalg.norm(resid) / max(np.linalg.norm(norms[nz]),
                                                1e-300))
    else:
        slope, rel = float("nan"), float("nan")
    return FrontSeries(tgrid=tgrid, norms=norms, fitted_slope=slope,
                       fit_residual_rel=rel)


def truncation_gate(sys: FockSystem, f: np.ndarray, g: np.ndarray,
                    tgrid, norms, dn: int = 4, tol: float = 1e-4,
                    n_low: int = 20) -> tuple[np.ndarray, float, bool]:
    """Convergence gate: recompute the commutator norms with the per-site
    dimension raised by dn, compare them with `norms` (those of sys on
    tgrid, from commutator_front); report (refined, max change, pass)."""
    tgrid = np.asarray(tgrid, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if norms.shape != tgrid.shape:
        raise ValueError("norms must give one value per time")
    bigger = FockSystem(sys.n_sites, sys.trunc + dn, sys.couplings,
                        sys.geometry, sys.perturbation)
    big = np.array([bigger.commutator_norm(f, g, t, n_low=n_low)
                    for t in tgrid])
    change = float(np.max(np.abs(norms - big))) if len(tgrid) else 0.0
    return big, change, change < tol
