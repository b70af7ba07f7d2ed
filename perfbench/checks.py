"""Output checks, run off the clock after the timed passes.

Each check reads the CSVs a scenario wrote and compares them with a
recomputation: the library's independent oracles (direct Fourier sums,
mode-space evolution, the exact torus formula) or a brute re-derivation
of the formula written here.  A check returns a list of failure messages;
an empty list means the scenario's output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from latticebounds.kernels import compute_H, compute_H_direct
from latticebounds.torus import Couplings, TorusLattice
from latticebounds.weyl import (WeylFunction, commutator_norm_exact, evolve,
                                evolve_mode_space)

# same-path recomputations differ only by the 12-digit CSV rounding
SAME_RTOL = 1e-9
ORACLE_ATOL = 1e-10
FOCK_ORACLE_ATOL = 1e-2  # as in the CLI's verify battery
ZETA_2 = math.pi ** 2 / 6.0
BOUND_SLACK = 1e-12  # round-off allowed above a bound, as in the acceptance tests


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Report:
    """Collects failure messages for one scenario."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok, message: str):
        if not bool(ok):
            self.failures.append(message)

    def close(self, what: str, got, want, rtol: float = SAME_RTOL,
              atol: float = 0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.failures.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        same_nan = np.isnan(got) & np.isnan(want)
        err = np.where(same_nan, 0.0, np.abs(got - want))
        lim = atol + rtol * np.abs(want)
        bad = ~(err <= lim)
        if np.any(bad):
            i = int(np.argmax(bad))
            self.failures.append(
                f"{what}: {int(np.sum(bad))} values off, first "
                f"{got.flat[i]!r} vs {want.flat[i]!r}")


# ------------------------------------------------------------ helpers

def _lattice(cfg) -> TorusLattice:
    return TorusLattice(cfg["lattice"]["nu"], cfg["lattice"]["L"])


def _couplings(cfg) -> Couplings:
    return Couplings(float(cfg["couplings"]["omega"]),
                     tuple(float(v) for v in cfg["couplings"]["lambda"]))


def _torus_dist(L: int, x, y) -> np.ndarray:
    """Torus l1 distance between integer point arrays (broadcasting)."""
    d = np.abs(np.asarray(x) - np.asarray(y)) % (2 * L)
    return np.sum(np.minimum(d, 2 * L - d), axis=-1)


def _weyl_values(lat: TorusLattice, entries) -> np.ndarray:
    side = 2 * lat.L
    vals = np.zeros(lat.n_sites, dtype=complex)
    for e in entries:
        idx = 0
        for c in e["site"]:
            idx = idx * side + (int(c) + lat.L - 1)
        vals[idx] += float(e.get("re", 0.0)) + 1j * float(e.get("im", 0.0))
    return vals


def _support(lat: TorusLattice, vals: np.ndarray) -> np.ndarray:
    return lat.sites[np.nonzero(vals)[0]]


def _cmax(c: Couplings) -> float:
    return math.sqrt(c.omega ** 2 + 4.0 * sum(c.lam))


def _velocity(c: Couplings, mu: float) -> float:
    return _cmax(c) * max(2.0 / mu, math.exp(mu / 2.0 + 1.0))


def _probe_indices(n: int) -> list[int]:
    return sorted({0, n // 3, n // 2, n - 1})


# ------------------------------------------------------------ per kind

def check_kernels(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    _, rows = read_csv(os.path.join(outdir, "kernels.csv"))
    mu = cfg.get("mu")
    dist = _torus_dist(lat.L, lat.sites, np.zeros(lat.nu, dtype=int))
    rmax = int(dist.max())
    ms = cfg.get("m", [0, 1, -1])
    times = [float(t) for t in cfg["times"]]
    rep.require(len(rows) == len(ms) * len(times) * (rmax + 1),
                "kernels: row count")
    want, env = [], []
    for m in ms:
        for t in times:
            vals = compute_H(lat, c, m, t).values
            want += [[m, t, r, float(np.abs(vals[dist == r]).max())]
                     for r in range(rmax + 1)]
            for i in _probe_indices(lat.n_sites):
                rep.close(f"kernels: oracle m={m} t={t} site {i}", vals[i],
                          compute_H_direct(lat, c, m, t, site_index=i),
                          rtol=0.0, atol=ORACLE_ATOL)
            if mu is not None:
                pref = {0: 1.0, 1: _cmax(c) * math.exp(mu / 2.0),
                        -1: 1.0 / _cmax(c)}[m]
                env += [pref * math.exp(-mu * (r - _velocity(c, mu) * abs(t)))
                        for r in range(rmax + 1)]
    got = np.array(rows, dtype=float) if rows else np.zeros((0, 4))
    rep.close("kernels: m,t,r,max_abs_value", got[:, :4], np.array(want))
    if mu is not None:
        rep.close("kernels: envelope", got[:, 4], env)
        # the FFT noise floor sits above far-tail envelopes
        rep.require(np.all(got[:, 3] <= got[:, 4] + BOUND_SLACK),
                    "kernels: envelope does not dominate")


def check_evolve(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    _, rows = read_csv(os.path.join(outdir, "evolve.csv"))
    f = WeylFunction(lat, _weyl_values(lat, cfg["f"]))
    times = [float(t) for t in cfg["times"]]
    zero_omega = bool(cfg.get("zero_omega", False))
    rep.require(len(rows) == len(times) * lat.n_sites, "evolve: row count")
    labels = [" ".join(str(int(v)) for v in x) for x in lat.sites]
    rep.require([r[1] for r in rows] == labels * len(times),
                "evolve: site column")
    got = np.array([[float(r[0]), float(r[2]), float(r[3])] for r in rows])
    want = []
    for k, t in enumerate(times):
        ft = evolve(f, t, couplings=c, zero_omega=zero_omega).values
        want += [[t, v.real, v.imag] for v in ft]
        if k in (0, len(times) - 1) and not zero_omega:
            oracle = evolve_mode_space(f, t, c).values
            rep.close(f"evolve: mode-space oracle t={t}",
                      np.abs(ft - oracle), np.zeros(len(ft)), rtol=0.0,
                      atol=ORACLE_ATOL)
    want = np.array(want)
    scale = float(np.max(np.abs(want[:, 1:]))) if len(want) else 1.0
    rep.close("evolve: t,re_f,im_f", got, want, atol=1e-11 * scale)


def _pair_distances(lat, fv, gv):
    xs, ys = _support(lat, fv), _support(lat, gv)
    return _torus_dist(lat.L, xs[:, None, :], ys[None, :, :])


def check_commutator(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    _, rows = read_csv(os.path.join(outdir, "commutator.csv"))
    fv = _weyl_values(lat, cfg["f"])
    gv = _weyl_values(lat, cfg["g"])
    f = WeylFunction(lat, fv)
    times = [float(t) for t in cfg["times"]]
    mu, a = float(cfg["mu"]), cfg.get("a")
    got = np.array(rows, dtype=float)
    rep.require(got.shape == (len(times), 5), "commutator: row count")
    if got.shape != (len(times), 5):
        return
    d = _pair_distances(lat, fv, gv)
    cmax = _cmax(c)
    v = _velocity(c, mu)
    C = 2.0 + cmax * math.exp(mu / 2.0) + 1.0 / cmax
    norms = np.max(np.abs(fv)) * np.max(np.abs(gv))
    exact, thm, cor = [], [], []
    for t in times:
        ft = evolve_mode_space(f, t, c).values
        exact.append(2.0 * abs(math.sin(np.imag(np.vdot(gv, ft)) / 2.0)))
        thm.append(C * norms * np.sum(np.exp(-mu * (d - v * abs(t)))))
        if a is None:
            cor.append(float("nan"))
        else:
            q = math.exp(-mu * (1.0 - a))
            Ct = C * ((1.0 + q) / (1.0 - q)) ** lat.nu
            size = min(len(_support(lat, fv)), len(_support(lat, gv)))
            cor.append(Ct * norms * size
                       * math.exp(-mu * (a * d.min() - v * abs(t))))
    rep.close("commutator: t", got[:, 0], times)
    rep.close("commutator: r", got[:, 1], np.full(len(times), d.min()))
    rep.close("commutator: exact_norm vs mode space", got[:, 2], exact,
              rtol=0.0, atol=ORACLE_ATOL)
    rep.close("commutator: bound_theorem", got[:, 3], thm)
    rep.close("commutator: bound_corollary", got[:, 4], cor)
    # exact norms carry ~1e-16 of FFT round-off where the bound is far
    # smaller; the acceptance battery allows a 1e-12 excess
    rep.require(np.all(got[:, 2] <= got[:, 3] + BOUND_SLACK),
                "commutator: exact_norm exceeds bound_theorem")
    if a is not None:
        rep.require(np.all(got[:, 2] <= got[:, 4] + BOUND_SLACK),
                    "commutator: exact_norm exceeds bound_corollary")


def _arrivals(tgrid, col, threshold):
    above = np.nonzero(col >= threshold)[0]
    if len(above) == 0:
        return None
    i = above[0]
    if i == 0:
        return float(tgrid[0])
    t0, t1, v0, v1 = tgrid[i - 1], tgrid[i], col[i - 1], col[i]
    return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))


def check_lightcone(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    L = lat.L
    times = np.array([float(t) for t in cfg["times"]])
    _, rows = read_csv(os.path.join(outdir, "lightcone.csv"))
    rvals = np.arange(1, L + 1)
    table = np.empty((len(times), L))
    for i, t in enumerate(times):
        vals = compute_H(lat, c, -1, float(t)).values
        table[i] = 2.0 * np.abs(np.sin(vals[rvals + L - 1] / 2.0))
        if i in (0, len(times) - 1):
            for r in (1, L // 2, L):
                rep.close(f"lightcone: oracle t={t} r={r}",
                          vals[r + L - 1],
                          compute_H_direct(lat, c, -1, float(t),
                                           site_index=r + L - 1),
                          rtol=0.0, atol=ORACLE_ATOL)
    want = np.column_stack([np.repeat(times, L), np.tile(rvals, len(times)),
                            table.ravel()])
    rep.close("lightcone: t,r,norm", np.array(rows, dtype=float), want)

    mu0 = brentq(lambda m: 2.0 / m - math.exp(m / 2.0 + 1.0), 0.5, 1.0,
                 xtol=1e-15)
    vb = 2.0 * _cmax(c) / mu0
    _, frows = read_csv(os.path.join(outdir, "front.csv"))
    got = np.array(frows, dtype=float)
    expect = []
    for th in cfg.get("thresholds", [1e-3]):
        arr = {int(r): _arrivals(times, table[:, j], th)
               for j, r in enumerate(rvals)}
        arr = {r: t for r, t in arr.items() if t is not None}
        pts = [(t, r) for r, t in arr.items() if 3 <= r <= L - 2]
        vel = float("nan")
        if len(pts) >= 4:
            ts = np.array([p[0] for p in pts])
            rs = np.array([p[1] for p in pts], dtype=float)
            design = np.column_stack([rs, np.cbrt(rs), np.ones_like(rs)])
            coef = np.linalg.lstsq(design, ts, rcond=None)[0]
            vel = float(1.0 / coef[0]) if coef[0] > 0 else float("nan")
        expect += [[th, r, arr[r], vel, vb] for r in sorted(arr)]
    expect = np.array(expect, dtype=float)
    rep.require(got.shape == expect.shape, "lightcone: front row count")
    if got.shape == expect.shape and len(got):
        rep.close("lightcone: threshold,r,arrival_t", got[:, :3],
                  expect[:, :3])
        rep.close("lightcone: fitted_velocity", got[:, 3], expect[:, 3],
                  rtol=1e-6)
        rep.close("lightcone: velocity_bound", got[:, 4], expect[:, 4])
        rep.require(np.all(~(got[:, 3] > got[:, 4])),
                    "lightcone: fitted velocity exceeds velocity_bound")


def _boundary(terms, X):
    out = set()
    for Z, norm in terms:
        if norm != 0 and Z & X and Z - X:
            out |= Z & X
    return out


def check_genbound(cfg, outdir, rep: Report):
    if "points" in cfg:
        pts = np.asarray(cfg["points"], dtype=float)
        d = np.sum(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    else:
        d = np.asarray(cfg["metric"], dtype=float)
    n = len(d)
    terms = [(frozenset(int(i) for i in t["sites"]), float(t["norm"]))
             for t in cfg["terms"]]
    p = float(cfg["decay"]["exponent"])
    a = float(cfg["decay"].get("a", 0.0))
    X = frozenset(int(i) for i in cfg["X"])
    Y = frozenset(int(i) for i in cfg["Y"])
    nA, nB = float(cfg.get("normA", 1.0)), float(cfg.get("normB", 1.0))
    dxy = min(d[x, y] for x in X for y in Y)
    # summed term norm over every pair of sites the term contains
    S = np.zeros((n, n))
    for Z, norm in terms:
        idx = np.array(sorted(Z))
        S[np.ix_(idx, idx)] += norm

    def phi_norm(Fa):
        mask = S > 0
        return float(np.max(S[mask] / Fa[mask])) if np.any(mask) else 0.0

    Fa = np.exp(-a * d) * (1.0 + d) ** (-p)
    Ca = float(np.max((Fa @ Fa) / Fa))
    phia = phi_norm(Fa)
    bX, bY = _boundary(terms, X), _boundary(terms, Y)
    D = min(sum(Fa[x, y] for x in bX for y in Y),
            sum(Fa[x, y] for x in X for y in bY))
    normF0 = float(np.max(np.sum((1.0 + d) ** (-p), axis=1)))
    nu = cfg.get("nu")
    _, rows = read_csv(os.path.join(outdir, "genbound.csv"))
    want = []
    for form in cfg.get("forms", ["theorem"]):
        for t in cfg["times"]:
            t = abs(float(t))
            if form == "theorem":
                ga = math.exp(2.0 * phia * Ca * t) - (1.0 if dxy > 0 else 0.0)
                want.append(2.0 * nA * nB / Ca * ga * D)
            elif form == "corollary":
                want.append(2.0 * nA * nB * normF0 / Ca * min(len(bX), len(bY))
                            * math.exp(-a * (dxy - 2.0 * phia * Ca / a * t)))
            elif form == "lrexp" and nu == 1:
                phip = phi_norm(np.exp(-a * d) * (1.0 + d) ** -2.0)
                cbig = 4.0 * (2.0 * ZETA_2 - 1.0)
                want.append(0.25 * nA * nB * min(len(bX), len(bY))
                            * math.exp(-(a * dxy - 2.0 * phip * cbig * t)))
            else:
                rep.require(False, f"genbound: no brute form for {form}")
                return
    rep.require([r[0] for r in rows] == [f for f in cfg.get("forms",
                                                            ["theorem"])
                                         for _ in cfg["times"]],
                "genbound: form column")
    got = np.array([[float(r[1]), float(r[2])] for r in rows])
    times = [float(t) for t in cfg["times"]] * len(cfg.get("forms",
                                                           ["theorem"]))
    rep.close("genbound: t,bound", got, np.column_stack([times, want]))


def _anharm_constants(c: Couplings, nu: int, mu: float, eps: float,
                      pert: dict | None, torus_L: int | None):
    """(kappa, C, C_nu, v) re-derived from the closed forms."""
    kind = (pert or {}).get("type", "zero")
    kappa = {"zero": 0.0,
             "gaussian": abs(float((pert or {}).get("alpha", 0.0))),
             "cosine": abs(float((pert or {}).get("kappa", 0.0)))
             * float((pert or {}).get("beta", 0.0)) ** 2}[kind]
    me = mu + eps
    s = max(0.0, (nu + 1.0) / eps - 1.0)
    sup = (1.0 + s) ** (nu + 1) * math.exp(-eps * s)
    cmax = _cmax(c)
    C = (2.0 + cmax * math.exp(me / 2.0) + 1.0 / cmax) * sup
    if torus_L is None:
        if nu != 1:
            raise ValueError("Z^nu lattice sum re-derived for nu = 1 only")
        power = 2.0 * ZETA_2 - 1.0
    else:
        lat = TorusLattice(nu, torus_L)
        r = _torus_dist(torus_L, lat.sites, np.zeros(nu, dtype=int))
        power = float(np.sum((1.0 + r) ** (-nu - 1.0)))
    Cnu = 2.0 ** (nu + 1) * power
    v = _velocity(c, me) + C * Cnu * kappa / me
    return kappa, C, Cnu, v


def check_anharm(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    mu, eps = float(cfg["mu"]), float(cfg["epsilon"])
    z_limit = bool(cfg.get("z_limit", False))
    kappa, C, Cnu, v = _anharm_constants(c, lat.nu, mu, eps,
                                         cfg.get("perturbation"),
                                         None if z_limit else lat.L)
    _, crow = read_csv(os.path.join(outdir, "anharm_constants.csv"))
    rep.close("anharm: kappa,C,C_nu,v", np.array(crow, dtype=float),
              [[kappa, C, Cnu, v]], rtol=1e-8)
    fv = _weyl_values(lat, cfg["f"])
    gv = _weyl_values(lat, cfg["g"])
    d = _pair_distances(lat, fv, gv)
    norms = np.max(np.abs(fv)) * np.max(np.abs(gv))
    me = mu + eps
    forms = cfg.get("forms", ["theorem", "corollary"])
    size = min(len(_support(lat, fv)), len(_support(lat, gv)))
    want = []
    for form in forms:
        for t in cfg["times"]:
            t = abs(float(t))
            if form == "theorem":
                pair = np.sum(np.exp(-mu * d) / (1.0 + d) ** (lat.nu + 1))
                want.append(C * norms * math.exp(me * v * t) * pair)
            else:
                Ct = C * (2.0 * ZETA_2 - 1.0)
                want.append(Ct * norms * size * math.exp(
                    -mu * (d.min() - (1.0 + eps / mu) * v * t)))
    _, rows = read_csv(os.path.join(outdir, "anharm.csv"))
    rep.require([r[0] for r in rows] == [f for f in forms
                                         for _ in cfg["times"]],
                "anharm: form column")
    got = np.array([[float(r[1]), float(r[2])] for r in rows])
    times = [float(t) for t in cfg["times"]] * len(forms)
    rep.close("anharm: t,bound", got, np.column_stack([times, want]),
              rtol=1e-8)


def reference_correlations(L: int, omega: float, lam: float) -> np.ndarray:
    """Truncated <W(d_0) W(d_r)> correlations for r = 1..L on the 1-d
    torus, from a dense covariance matrix built by direct Fourier sums."""
    n = 2 * L
    x = np.arange(-L + 1, L + 1)
    k = x * np.pi / L
    gam = np.sqrt(omega ** 2 + 4.0 * lam * np.sin(k / 2.0) ** 2)
    disp = x[:, None] - x[None, :]
    Q = np.cos(np.multiply.outer(disp, k)) @ (0.5 / gam) / n
    origin = L - 1  # index of site 0

    def expect(h):
        return math.exp(-0.5 * float(h @ Q @ h))

    out = []
    for r in range(1, L + 1):
        f = np.zeros(n)
        f[origin] = 1.0
        g = np.zeros(n)
        g[origin + r] = 1.0
        out.append(expect(f + g) - expect(f) * expect(g))
    return np.array(out)


def check_clustering(cfg, outdir, rep: Report):
    lat, c = _lattice(cfg), _couplings(cfg)
    mu, eps = float(cfg["mu"]), float(cfg["epsilon"])
    corr = reference_correlations(lat.L, c.omega, c.lam[0])
    _, rows = read_csv(os.path.join(outdir, "clustering.csv"))
    got = np.array(rows, dtype=float)
    ds = np.arange(1, lat.L + 1)
    rep.require(got.shape == (lat.L, 3), "clustering: row count")
    if got.shape != (lat.L, 3):
        return
    rep.close("clustering: d", got[:, 0], ds)
    rep.close("clustering: correlation vs dense quadratic form", got[:, 1],
              corr, rtol=1e-9, atol=1e-14)
    gap = 2.0 * c.omega
    _, _, _, v = _anharm_constants(c, lat.nu, mu, eps,
                                   cfg.get("perturbation"), None)
    xi = (2.0 * (mu + eps) * v + gap) / (mu * gap)
    near = ds <= max(ds[len(ds) // 2], 1)
    c_fit = float(np.max(np.abs(corr[near]) * np.exp(ds[near] / xi)))
    rep.close("clustering: envelope", got[:, 2], c_fit * np.exp(-ds / xi),
              rtol=1e-8)
    _, frow = read_csv(os.path.join(outdir, "clustering_fit.csv"))
    fit = np.array(frow, dtype=float)[0]
    mags = np.abs(got[:, 1])
    usable = mags > 1e-300
    slope = np.polyfit(ds[usable], np.log(mags[usable]), 1)[0]
    fitted = -1.0 / slope if slope < 0 else float("inf")
    far = ds >= xi
    dominated = bool(np.all(mags[far] <= fit[2] * np.exp(-ds[far] / xi)
                            * (1.0 + 1e-9))) if np.any(far) else True
    rep.close("clustering: fitted_xi", fit[0], fitted, rtol=1e-6)
    rep.close("clustering: xi_theorem,c_fit", fit[1:3], [xi, c_fit],
              rtol=1e-8)
    rep.require(fit[3] == int(dominated) and fit[4] == int(np.any(
        got[:, 1] <= 0)), "clustering: dominated/nonpositive flags")


def check_focksim(cfg, outdir, rep: Report):
    _, rows = read_csv(os.path.join(outdir, "focksim.csv"))
    got = np.array(rows, dtype=float)
    times = np.array([float(t) for t in cfg["times"]])
    rep.require(got.shape == (len(times), 3), "focksim: row count")
    if got.shape != (len(times), 3):
        return
    norms = got[:, 1]
    rep.close("focksim: t", got[:, 0], times)
    rep.require(np.all((norms >= 0) & (norms <= 2.0)),
                "focksim: norms outside [0, 2]")
    nz = times != 0
    _, frow = read_csv(os.path.join(outdir, "focksim_fit.csv"))
    if np.count_nonzero(nz) >= 2:
        slope = np.sum(times[nz] * norms[nz]) / np.sum(times[nz] ** 2)
        rel = (np.linalg.norm(norms[nz] - slope * times[nz])
               / max(np.linalg.norm(norms[nz]), 1e-300))
        rep.close("focksim: fitted_slope,fit_residual_rel",
                  np.array(frow, dtype=float)[0], [slope, rel], rtol=1e-8)
    gate = cfg.get("gate")
    if gate is not None:
        change = np.max(np.abs(norms - got[:, 2]))
        rep.require(change < float(gate.get("tol", 1e-4)),
                    f"focksim: gate change {change:.3e} in the CSV")
    pert = cfg.get("perturbation")
    n = int(cfg["n_sites"])
    if ((pert is None or pert.get("type") == "zero")
            and cfg.get("geometry", "ring") == "ring" and n % 2 == 0):
        # site i of the ring is entry i of the torus enumeration, L = n/2
        lat = TorusLattice(1, n // 2)
        c = _couplings(cfg)
        f = WeylFunction(lat, np.array([a + 1j * b for a, b in cfg["f"]]))
        g = WeylFunction(lat, np.array([a + 1j * b for a, b in cfg["g"]]))
        exact = [commutator_norm_exact(f, g, t, couplings=c) for t in times]
        rep.close("focksim: norms vs commutator_norm_exact", norms, exact,
                  rtol=0.0, atol=FOCK_ORACLE_ATOL)


def check_verify(outdir, stdout: str, rep: Report):
    _, rows = read_csv(os.path.join(outdir, "verify.csv"))
    rep.require(rows and all(r[1] == "1" for r in rows),
                "verify: a check failed in verify.csv")
    lines = [ln.split() for ln in stdout.splitlines() if ln.strip()]
    rep.require(len(lines) == len(rows)
                and all(ln[1] == "PASS" for ln in lines),
                "verify: printed battery does not PASS every check")


CHECKS = {"kernels": check_kernels, "evolve": check_evolve,
          "commutator": check_commutator, "lightcone": check_lightcone,
          "genbound": check_genbound, "anharm": check_anharm,
          "clustering": check_clustering, "focksim": check_focksim}


def check_scenario(entry: dict, outdir: str, rc: int, stdout: str) -> list[str]:
    """Failure messages for one scenario run (empty when it is correct)."""
    rep = Report()
    rep.require(rc == 0, f"exit code {rc}")
    try:
        if entry["kind"] == "verify":
            check_verify(outdir, stdout, rep)
        else:
            with open(entry["config"]) as fh:
                cfg = json.load(fh)
            CHECKS[entry["kind"]](cfg, outdir, rep)
    except (OSError, ValueError, IndexError, KeyError) as e:
        rep.require(False, f"{type(e).__name__}: {e}")
    return [f"{entry['id']}: {m}" for m in rep.failures]
