"""Brute-force oracle: exact Heisenberg dynamics of a few coupled
oscillators in a truncated number-state basis.

Systems of N <= 4 sites (open chain or ring) are represented on the tensor
product of per-site truncated oscillator bases.  H is assembled once, as
a sparse Kronecker sum of the on-site and bond terms, and every path uses
it: small systems diagonalise it densely; above DENSE_EIG_DIM the
low-lying eigenvectors come from ARPACK and the propagator is a Chebyshev
sweep over the whole time grid (`expm_multiply`), so no dense matrix
beyond the observables is formed.  H is real for every even potential
under every tag, so the dense eigendecomposition, ARPACK (symmetric
Lanczos) and the sweep run in real arithmetic.

The local terms are sparse, and each is placed on its sites from its COO
entries: the harmonic bond lam (q_i - q_j)^2 has about 9 n^2 of the n^4
entries of a pair table, and only a bond potential V(q_i - q_j) is a
dense n^2 x n^2 table.  So assembly time and memory follow the entries
of H: a 2-ring at n = 60 (31444 entries) peaks at 3.7 MiB under
tracemalloc, where a dense bond term peaked at 297 MiB.

An even potential also commutes with the site parity (-1)^n under every
tag, as the harmonic terms do, so H conserves the total parity
(-1)^(sum_x n_x).  The local terms' entries that link opposite parities
are then eigh round-off; they are set to exactly 0 and H holds none of
them, and the dense eigendecomposition runs once per parity sector.  A
potential that is not even keeps every entry, and H one sector.

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
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .torus import Couplings
from .anharmonic import PerturbationSpec

__all__ = ["FockSystem", "evolve_observable", "expm_multiply",
           "commutator_front", "check_gate", "truncation_gate",
           "ring_distance"]

MAX_DENSE_DIM = 20736
DENSE_EIG_DIM = 800  # above this, eigsh and the Chebyshev sweep take over
MAX_TERMS = 2 ** 16  # Chebyshev terms a sweep may take
TAIL = 2.0 ** -53  # bound on the dropped Bessel tail, relative to |v|
# times per grid block of FockSystem._commutator_norms: a block holds its
# propagated columns and its Bessel table in about this many values
_GRID_VALUES = 2 ** 20


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


def _bessel_order(x: float, tol: float) -> int:
    """The smallest order K with 2 sum_{k >= K} |J_k(x)| <= tol, by
    Kapteyn's bound |J_k(k sech al)| <= e^{k (tanh al - al)}: its
    logarithm falls with slope -al in k, so the tail past K is at most
    2 e^{K (tanh al - al)} / (1 - e^{-al}), al = arccosh(K / x).  The
    orders searched, up to x + 64 + 32 x^(1/3), reach any tol >= 1e-70: at
    the last one the bound is about e^{-170} for large x, less for small."""
    if x <= tol / 2:  # 2 sum_{k >= 1} |J_k(x)| <= 2 (e^{x/2} - 1)
        return 1
    k = np.arange(np.floor(x) + 1, x + 64 + 32 * np.cbrt(x))
    al = np.arccosh(k / x)
    log_tail = (np.log(2.0) + k * (np.tanh(al) - al)
                - np.log1p(-np.exp(-al)))
    return int(k[np.argmax(log_tail <= np.log(tol))])


def _bessel_j(n: int, x: np.ndarray) -> np.ndarray:
    """J_k(x_j) for k < n (rows) at each x_j >= 0 (columns), by Miller's
    backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} (Numerical Recipes
    6.5), started where the tail is below TAIL**2 and normalised by
    J_0 + 2 sum_k J_2k = 1."""
    x = np.asarray(x, dtype=float)
    # below TAIL / 2, J_0 = 1 and the rest is below the tail bound
    live = x > TAIL / 2
    xs = np.where(live, x, 1.0)
    out = np.zeros((n, x.size))
    nxt, cur, norm = np.zeros(x.size), np.ones(x.size), np.zeros(x.size)
    for k in range(max(n, _bessel_order(np.max(x, initial=0.0),
                                        TAIL ** 2)), 0, -1):
        if k < n:
            out[k] = cur
        if k % 2 == 0:
            norm += 2.0 * cur
        nxt, cur = cur, (2.0 * k / xs) * cur - nxt
        # one step grows by at most 2k/x < 2^72: rescale well before overflow
        big = np.abs(cur) > 1e200
        if big.any():
            for arr in (nxt, cur, norm):
                arr[big] *= 1e-200
            out[k:, big] *= 1e-200
    out[0] = cur
    out /= norm + cur
    out[:, ~live] = 0.0
    out[0, ~live] = 1.0
    return out


def expm_multiply(matvec, v: np.ndarray, times, lo: float, hi: float,
                  real: bool) -> np.ndarray:
    """exp(-i t H) v for every t of the 1-D grid `times` (a leading axis
    per time), for a Hermitian H with spectrum in [lo, hi] given by
    `matvec` (a column block to H times it), by one Chebyshev sweep
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)):

        exp(-itH) = e^{-itb} sum_k (2 - d_k0) (-i sgn t)^k J_k(a|t|) T_k(G),

    G = (H - b)/a, [lo, hi] = [b - a, b + a].  The vectors T_k(G) v do not
    depend on t, so the grid costs K - 1 products with H, where K is the
    first order whose Bessel tail 2 sum_{k >= K} |J_k(a max|t|)| is at most
    TAIL; since |T_k(G)| <= 1 that bounds the error relative to |v|.  A
    sweep that needs more than MAX_TERMS terms raises ValueError.  With
    `real` (H real) v enters as the real columns [Re v, Im v].

    This is not scipy's expm_multiply (Al-Mohy & Higham's truncated Taylor
    method, which estimates norms from random probes): it draws nothing."""
    times = np.asarray(times, dtype=float)
    v = np.asarray(v)
    a, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    x = a * np.abs(times)
    x_max = float(np.max(x, initial=0.0))
    # the tail past order x_max is not small, so x_max >= MAX_TERMS (or
    # nan) needs more than MAX_TERMS terms without a search
    n_terms = (_bessel_order(x_max, TAIL) if x_max < MAX_TERMS
               else MAX_TERMS + 1)
    if n_terms > MAX_TERMS:
        raise ValueError(
            f"propagation to |t| = {np.max(np.abs(times)):.6g} needs more "
            f"than {MAX_TERMS} Chebyshev terms (a max|t| = {x_max:.6g})")
    # (-i sgn t)^k J_k = (-1)^{k//2} J_k times (-i sgn t) when k is odd:
    # even orders feed the real part and odd orders the imaginary part
    k = np.arange(n_terms)[:, None]
    sgn = np.where(times < 0, -1.0, 1.0)
    coef = _bessel_j(n_terms, x) * np.where(k // 2 % 2, -2.0, 2.0)
    coef[1::2] *= -sgn
    coef[0] /= 2.0
    u = v.reshape(len(v), -1)
    width = u.shape[1]
    u = np.hstack([u.real, u.imag]) if real else u.astype(complex)
    acc = np.zeros((2, len(times)) + u.shape, u.dtype)
    prev, cur = None, u
    for k in range(n_terms):
        if k:
            nxt = matvec(cur)
            nxt -= b * cur
            nxt *= (2.0 if k > 1 else 1.0) / a
            if k > 1:
                nxt -= prev
            prev, cur = cur, nxt
        acc[k % 2] += coef[k][:, None, None] * cur
    out = acc[0] + 1j * acc[1]
    if real:
        out = out[..., :width] + 1j * out[..., width:]
    out *= np.exp(-1j * b * times)[:, None, None]
    return out.reshape(times.shape + v.shape)


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
                f"dimension {dim} exceeds the oracle's cap {MAX_DENSE_DIM}")
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
        self._interval = None
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
        q2 = self.q1 @ self.q1
        onsite = self.p1 @ self.p1 + c.omega**2 * q2
        if pert.potential is not None and pert.tag == "site":
            onsite = onsite + _matrix_function(self.q1, pert.potential)
        if pert.potential is not None and pert.tag == "site_p":
            onsite = onsite + _matrix_function(self.p1, pert.potential)
        # lam (q_i - q_j)^2 = lam (q^2 x 1 + 1 x q^2 - 2 q x q) on a pair,
        # about 9 n^2 entries of n^4; only a bond potential V(q_i - q_j)
        # is a dense n^2 x n^2 table
        q, q2 = sp.csr_array(self.q1), sp.csr_array(q2)
        eye = sp.eye_array(n, format="csr")
        bond = lam * (sp.kron(q2, eye) + sp.kron(eye, q2)
                      - 2.0 * sp.kron(q, q))
        if pert.potential is not None and pert.tag == "bond":
            dq = np.kron(self.q1, np.eye(n)) - np.kron(np.eye(n), self.q1)
            bond = bond + _matrix_function(dq, pert.potential)
        terms = [sp.coo_array(onsite), sp.coo_array(bond)]
        # relative, so that the checks hold at every energy scale
        scale = [np.max(np.abs(m.data), initial=0.0) for m in terms]
        if any(np.max(np.abs((m - m.conj().T).data), initial=0.0) > 1e-10 * s
               for m, s in zip(terms, scale)):
            raise AssertionError("non-Hermitian assembly")
        # an even V commutes with the site parity (-1)^n, as the harmonic
        # terms do, so the entries that link opposite parities are eigh
        # round-off.  Set to 0, which leaves the even part (m + PmP)/2,
        # they drop out of H, and H is block-diagonal in the total parity
        # (-1)^(sum_x n_x).  An odd V keeps every entry, and H one sector.
        links = []
        for k, m in enumerate(terms, start=1):
            # the digit-sum parity of each local state, row-major
            par = np.indices((n,) * k).sum(0).ravel() % 2
            links.append(par[m.row] != par[m.col])
        odd = [np.max(np.abs(m.data[link]), initial=0.0)
               for m, link in zip(terms, links)]
        self._sectors = [np.arange(self.dim)]
        if all(o <= 1e-12 * s for o, s in zip(odd, scale)):
            for m, link in zip(terms, links):
                m.data[link] = 0.0
            # the parity of each state, in the row-major order of _embed
            total = np.indices((n,) * self.n_sites).sum(0).ravel() % 2
            self._sectors = [np.flatnonzero(total == 0),
                             np.flatnonzero(total)]
        # V(p) of an even V is real up to eigh round-off (~1e-17)
        if all(np.max(np.abs(m.data.imag), initial=0.0) <= 1e-12 * s
               for m, s in zip(terms, scale)):
            terms = [m.real for m in terms]
        for m in terms:
            m.eliminate_zeros()
        self._onsite, self._bond = terms

    def _embed(self, op: sp.coo_array,
               sites: tuple[int, ...]) -> sp.csr_array:
        """op, acting on `sites` in the order given, on the full space.
        An index table places it, not a Kronecker product with identities,
        because the sites need not be ascending: the ring's wrap bond is
        (N - 1, 0)."""
        n, N = self.trunc, self.n_sites
        order = list(sites) + [x for x in range(N) if x not in sites]
        # full-space index of each (local state of `sites`, state of the
        # other sites) pair: row i lists the full indices of local state i
        full = np.arange(self.dim).reshape((n,) * N).transpose(order)
        full = full.reshape(op.shape[0], -1)
        return sp.csr_array((np.repeat(op.data, full.shape[1]),
                             (full[op.row].ravel(), full[op.col].ravel())),
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

    def apply_h(self, v: np.ndarray) -> np.ndarray:
        return self.hamiltonian() @ v

    # -- spectra and states --------------------------------------------

    def eigensystem(self):
        """Cached dense eigendecomposition (small dimensions only): one
        eigh per parity sector, on that sector's block of the sparse H.
        The energies ascend (a stable sort, so a tie keeps the even sector
        first) and each eigenvector is supported in its sector's rows."""
        if self._eig is None:
            if self.dim > DENSE_EIG_DIM:
                raise ValueError(
                    f"dense eigendecomposition disabled at dim {self.dim}; "
                    "use the matrix-free paths")
            h = self.hamiltonian()
            parts = [np.linalg.eigh(h[idx][:, idx].toarray())
                     for idx in self._sectors]
            w = np.concatenate([wi for wi, _ in parts])
            order = np.argsort(w, kind="stable")
            # the column of each eigenpair, in sector order, once sorted
            col = np.empty(self.dim, dtype=int)
            col[order] = np.arange(self.dim)
            v = np.zeros((self.dim, self.dim), h.dtype)
            start = 0
            for idx, (wi, vi) in zip(self._sectors, parts):
                v[np.ix_(idx, col[start:start + len(wi)])] = vi
                start += len(wi)
            self._eig = w[order], v
        return self._eig

    def low_energy_basis(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The 1 <= k <= dim - 2 lowest energies, ascending, and orthonormal
        eigenvector columns for them (cached per k).  Above DENSE_EIG_DIM
        they come from ARPACK's symmetric Lanczos driver when H is real; its
        start vector is seeded, so repeated runs give the same basis."""
        if not 1 <= k <= self.dim - 2:
            raise ValueError(f"the low-energy basis needs 1 <= k <= dim - 2"
                             f" = {self.dim - 2}, got {k}")
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
        return [_matrix_function(self.q1 * a.real + self.p1 * a.imag,
                                 lambda w: np.exp(1j * w)) for a in f]

    def weyl_matrix(self, f: np.ndarray) -> np.ndarray:
        return reduce(np.kron, self.weyl_local_factors(f))

    def apply_weyl(self, factors: list[np.ndarray],
                   v: np.ndarray) -> np.ndarray:
        """W(f) v for a vector or column block v, W(f) given by per-site
        factors (weyl_local_factors) that act on sites 0, 1, ... in turn:
        site x is the middle axis of the row-major view (n^x, n, rest)."""
        n = self.trunc
        for x, m in enumerate(factors):
            v = (m @ v.reshape(n ** x, n, -1)).reshape(v.shape)
        return v

    # -- dynamics --------------------------------------------------------

    def _spectral_interval(self) -> tuple[float, float]:
        """Cached Gershgorin interval of H: every eigenvalue lies within
        the absolute off-diagonal row sum of some diagonal entry."""
        if self._interval is None:
            h = self.hamiltonian()
            d = h.diagonal().real
            r = abs(h).sum(axis=1) - np.abs(d)
            self._interval = float(np.min(d - r)), float(np.max(d + r))
        return self._interval

    def propagate(self, v: np.ndarray, t) -> np.ndarray:
        """exp(-i t H) v for a vector or column block v, at a scalar t or
        for every t of a 1-D grid (a leading axis per time), through the
        cached eigendecomposition or, above DENSE_EIG_DIM, by one Chebyshev
        sweep (`expm_multiply`) on the sparse H."""
        grid = np.atleast_1d(np.asarray(t, dtype=float))
        if self.dim <= DENSE_EIG_DIM:
            w, vecs = self.eigensystem()
            # conj() of a real array is the array itself, not a copy
            coef = _mul(vecs.conj().T, v)
            # every time of the grid as columns of one product with vecs
            phases = np.exp(-1j * np.multiply.outer(w, grid))
            coef = coef[..., None] * phases.reshape(
                (self.dim,) + (1,) * (coef.ndim - 1) + (len(grid),))
            out = _mul(vecs, coef.reshape(self.dim, -1)).reshape(coef.shape)
            out = np.moveaxis(out, -1, 0)
        else:
            lo, hi = self._spectral_interval()
            out = expm_multiply(self.apply_h, v, grid, lo, hi,
                                real=not np.iscomplexobj(self.hamiltonian()))
        return out if np.ndim(t) else out[0]

    def commutator_norm(self, f: np.ndarray, g: np.ndarray, t: float,
                        n_low: int = 20) -> float:
        """Norm of [tau_t(W(f)), W(g)] restricted to the lowest n_low
        energy eigenvectors (the converged sector of the truncation)."""
        return float(self._commutator_norms(f, g, [t], n_low)[0])

    def _commutator_norms(self, f: np.ndarray, g: np.ndarray, times,
                          n_low: int) -> np.ndarray:
        """commutator_norm for every t of the 1-D grid `times`."""
        times = np.asarray(times, dtype=float)
        ff = self.weyl_local_factors(np.asarray(f, dtype=complex))
        gf = self.weyl_local_factors(np.asarray(g, dtype=complex))
        energies, basis = self.low_energy_basis(n_low)
        wg_basis = self.apply_weyl(gf, basis)
        wf_basis = self.apply_weyl(ff, basis)
        norms = np.empty(len(times))
        # tau_t(W_f) W_g B = e^{itH} W_f x(t) with x(t) = e^{-itH} W_g B,
        # and W_g tau_t(W_f) B = W_g (e^{itH} W_f B) e^{-itE}: x and the
        # e^{itH} W_f B block take one grid call each, per block of times
        step = max(1, _GRID_VALUES // (basis.size + MAX_TERMS))
        for s in range(0, len(times), step):
            block = times[s:s + step]
            x = self.propagate(wg_basis, block)
            y = (self.propagate(wf_basis, -block)
                 * np.exp(-1j * np.multiply.outer(block, energies))[:, None])
            for i, t in enumerate(block):
                a = self.propagate(self.apply_weyl(ff, x[i]), -t)
                norms[s + i] = np.linalg.norm(
                    a - self.apply_weyl(gf, y[i]), 2)
        return norms


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
    norms = sys._commutator_norms(f, g, tgrid, n_low)
    nz = tgrid != 0
    if np.count_nonzero(nz) >= 2:
        slope = float(np.sum(tgrid[nz] * norms[nz])
                      / np.sum(tgrid[nz] ** 2))
        resid = norms[nz] - slope * tgrid[nz]
        rel = float(np.linalg.norm(resid) / max(np.linalg.norm(norms[nz]),
                                                1e-300))
    else:
        slope, rel = float("nan"), float("nan")
    return FrontSeries(norms=norms, fitted_slope=slope, fit_residual_rel=rel)


def check_gate(dn: int, tol: float) -> None:
    """Raise ValueError unless dn >= 1 and tol > 0, the parameters that
    truncation_gate accepts; a caller may check them before it pays for
    the commutator front the gate compares against."""
    if dn < 1 or not tol > 0:
        raise ValueError(f"the gate needs dn >= 1 and tol > 0, got dn = "
                         f"{dn}, tol = {tol}")


def truncation_gate(sys: FockSystem, f: np.ndarray, g: np.ndarray,
                    tgrid, norms, dn: int = 4, tol: float = 1e-4,
                    n_low: int = 20) -> tuple[np.ndarray, float, bool]:
    """Convergence gate: recompute the commutator norms with the per-site
    dimension raised by dn >= 1, compare them with `norms` (those of sys
    on tgrid, from commutator_front); report (refined, max change, pass),
    a pass when the largest *absolute* change is below tol > 0 (README)."""
    check_gate(dn, tol)
    tgrid = np.asarray(tgrid, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if norms.shape != tgrid.shape:
        raise ValueError("norms must give one value per time")
    bigger = FockSystem(sys.n_sites, sys.trunc + dn, sys.couplings,
                        sys.geometry, sys.perturbation)
    big = bigger._commutator_norms(f, g, tgrid, n_low)
    change = float(np.max(np.abs(norms - big))) if len(tgrid) else 0.0
    return big, change, change < tol
