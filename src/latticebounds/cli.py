"""Scenario-driven command line front end.

Subcommands run one pipeline each (kernels, evolve, commutator, lightcone,
genbound, anharm, focksim, clustering) or the verification battery
(verify).  Scenarios are JSON files with a schema_version field and strict
key checking; outputs are CSV tables (12 significant digits) and static
SVG plots.  Exit codes: 0 success, 1 validation error, 2 numerical
non-convergence.

Heavy numerical imports happen inside the handlers so that --threads can
pin the BLAS thread count before anything loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    """Config rejected before any computation ran."""


class ConvergenceError(Exception):
    """A numerical convergence gate failed."""


# ---------------------------------------------------------------- config

def _check_keys(obj: dict, allowed: set[str], context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(
            f"{context}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise ScenarioError(f"{context}: missing required key '{key}'")
    return obj[key]


def load_scenario(path: str, model: str, allowed: set[str]) -> dict:
    if not os.path.exists(path):
        raise ScenarioError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    _check_keys(cfg, allowed | {"schema_version", "model", "seed"}, path)
    if _need(cfg, "schema_version", path) != SCHEMA_VERSION:
        raise ScenarioError(
            f"{path}: schema_version must be {SCHEMA_VERSION}")
    if _need(cfg, "model", path) != model:
        raise ScenarioError(
            f"{path}: model is '{cfg['model']}', this subcommand runs "
            f"'{model}' scenarios")
    return cfg


def _build_lattice(cfg: dict, context: str):
    from .torus import TorusLattice
    _check_keys(cfg, {"nu", "L"}, context + ".lattice")
    nu = _need(cfg, "nu", context)
    L = _need(cfg, "L", context)
    try:
        return TorusLattice(int(nu), int(L))
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{context}: bad lattice ({e})") from e


def _build_couplings(cfg: dict, nu: int, context: str):
    from .torus import Couplings
    _check_keys(cfg, {"omega", "lambda"}, context + ".couplings")
    lam = _need(cfg, "lambda", context)
    if not isinstance(lam, list) or len(lam) != nu:
        raise ScenarioError(
            f"{context}: lambda must be a list of {nu} couplings")
    try:
        return Couplings(float(_need(cfg, "omega", context)),
                         tuple(float(v) for v in lam))
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{context}: bad couplings ({e})") from e


def _build_weyl(lat, entries, context: str):
    from .weyl import WeylFunction
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{context}: expected a nonempty list of entries")
    pairs = []
    for e in entries:
        _check_keys(e, {"site", "re", "im"}, context)
        site = _need(e, "site", context)
        try:
            pairs.append((tuple(int(c) for c in site),
                          float(e.get("re", 0.0))
                          + 1j * float(e.get("im", 0.0))))
        except (ValueError, TypeError) as err:
            raise ScenarioError(f"{context}: bad entry {e}") from err
    try:
        return WeylFunction.from_sites(lat, pairs)
    except (ValueError, IndexError) as err:
        raise ScenarioError(
            f"{context}: site outside the declared lattice ({err})") from err


def _time_grid(cfg: dict, context: str):
    import numpy as np
    times = _need(cfg, "times", context)
    if not isinstance(times, list) or not times:
        raise ScenarioError(f"{context}: times must be a nonempty list")
    t = np.asarray([float(v) for v in times])
    if len(t) > 1 and not np.all(np.diff(t) > 0):
        raise ScenarioError(f"{context}: time grid must be strictly increasing")
    return t


def _build_perturbation(cfg: dict | None, context: str):
    from .anharmonic import PerturbationSpec
    if cfg is None:
        return PerturbationSpec.zero()
    _check_keys(cfg, {"type", "alpha", "kappa", "beta", "tag"}, context)
    kind = _need(cfg, "type", context)
    tag = cfg.get("tag", "site")
    try:
        if kind == "zero":
            return PerturbationSpec.zero()
        if kind == "gaussian":
            return PerturbationSpec.gaussian(
                float(_need(cfg, "alpha", context)), tag=tag)
        if kind == "cosine":
            return PerturbationSpec.cosine(
                float(_need(cfg, "kappa", context)),
                float(_need(cfg, "beta", context)), tag=tag)
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{context}: bad perturbation ({e})") from e
    raise ScenarioError(
        f"{context}: perturbation type must be zero, gaussian, or cosine")


# ---------------------------------------------------------------- output

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: str, header: list[str], rows: list) -> None:
    if not rows:
        raise ScenarioError(f"refusing to write empty table to {path}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_PALETTE = ["#1f6f8b", "#c1403d", "#3d8c40", "#8a5ec2", "#c58a1f",
            "#3d3d3d", "#1fa0a0", "#a03d7c"]


def write_svg(path: str, series: list[dict], xlabel: str, ylabel: str,
              logy: bool = True, floor: float = 1e-18) -> None:
    """Static log-scale plot: exactly one polyline per series.

    Each series is a dict with keys name, x, y (and may be tagged as an
    envelope in its name); ordering and formatting are deterministic.
    """
    import math
    if not series:
        raise ScenarioError(f"refusing to write empty plot to {path}")
    W, H, ml, mr, mt, mb = 800, 500, 70, 160, 30, 50
    xs_all = [x for s in series for x in s["x"]]
    ys_all = [max(abs(y), floor) for s in series for y in s["y"]]
    x0, x1 = min(xs_all), max(xs_all)
    if logy:
        y0 = math.floor(math.log10(min(ys_all)))
        y1 = math.ceil(math.log10(max(ys_all)))
    else:
        y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        v = math.log10(max(abs(y), floor)) if logy else y
        return H - mb - (v - y0) / (y1 - y0) * (H - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{H}" viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" '
             'stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" '
             'stroke="black"/>',
             f'<text x="{(W - mr + ml) / 2:.1f}" y="{H - 10}" '
             f'text-anchor="middle" font-size="14">{xlabel}</text>',
             f'<text x="18" y="{(H - mb + mt) / 2:.1f}" font-size="14" '
             f'transform="rotate(-90 18 {(H - mb + mt) / 2:.1f})" '
             f'text-anchor="middle">{ylabel}</text>']
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(s["x"], s["y"]))
        dash = ' stroke-dasharray="6,4"' if "envelope" in s["name"] else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{W - mr + 8}" y="{mt + 16 * (i + 1)}" '
                     f'font-size="12" fill="{color}">{s["name"]}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ------------------------------------------------------------- commands

def cmd_kernels(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .kernels import EnvelopeParams, compute_H, envelope
    lat = _build_lattice(_need(cfg, "lattice", "kernels"), "kernels")
    c = _build_couplings(_need(cfg, "couplings", "kernels"), lat.nu,
                         "kernels")
    t_grid = _time_grid(cfg, "kernels")
    ms = cfg.get("m", [0, 1, -1])
    if not isinstance(ms, list) or any(m not in (-1, 0, 1) for m in ms):
        raise ScenarioError("kernels: m must be a list drawn from {-1,0,1}")
    mu = cfg.get("mu")
    dist = lat.distances_from(np.zeros(lat.nu, dtype=int))
    rmax = int(np.max(dist))
    rows = []
    series = []
    for m in ms:
        for t in t_grid:
            field = compute_H(lat, c, m, float(t))
            prof = [float(np.max(np.abs(field.values[dist == r])))
                    for r in range(rmax + 1)]
            for r, v in enumerate(prof):
                row = [m, float(t), r, v]
                if mu is not None:
                    row.append(envelope(EnvelopeParams(float(mu), c), m,
                                        float(t), r))
                rows.append(row)
            series.append({"name": f"|H^({m})| t={t:g}",
                           "x": list(range(rmax + 1)), "y": prof})
        if mu is not None:
            series.append({"name": f"envelope m={m} t={t_grid[-1]:g}",
                           "x": list(range(rmax + 1)),
                           "y": [envelope(EnvelopeParams(float(mu), c), m,
                                          float(t_grid[-1]), r)
                                 for r in range(rmax + 1)]})
    header = ["m", "t", "r", "max_abs_value"]
    if mu is not None:
        header.append("envelope")
    write_csv(os.path.join(outdir, "kernels.csv"), header, rows)
    write_svg(os.path.join(outdir, "kernels.svg"), series, "distance r",
              "max |H^(m)(t,x)| at distance r")
    return EXIT_OK


def cmd_evolve(cfg: dict, outdir: str) -> int:
    from .weyl import evolve
    lat = _build_lattice(_need(cfg, "lattice", "evolve"), "evolve")
    c = _build_couplings(_need(cfg, "couplings", "evolve"), lat.nu, "evolve")
    zero_omega = bool(cfg.get("zero_omega", False))
    if zero_omega != (c.omega == 0.0):
        raise ScenarioError("evolve: zero_omega must be set exactly when "
                            "omega = 0")
    f = _build_weyl(lat, _need(cfg, "f", "evolve"), "evolve.f")
    t_grid = _time_grid(cfg, "evolve")
    rows = []
    for t in t_grid:
        ft = evolve(f, float(t), couplings=c, zero_omega=zero_omega)
        for i, x in enumerate(lat.sites):
            rows.append([float(t), " ".join(str(int(v)) for v in x),
                         float(ft.values[i].real), float(ft.values[i].imag)])
    write_csv(os.path.join(outdir, "evolve.csv"),
              ["t", "site", "re_f", "im_f"], rows)
    return EXIT_OK


def cmd_commutator(cfg: dict, outdir: str) -> int:
    from .weyl import (HarmonicBoundParams, commutator_norm_exact,
                       harmonic_bound_rhs, support_distance)
    lat = _build_lattice(_need(cfg, "lattice", "commutator"), "commutator")
    c = _build_couplings(_need(cfg, "couplings", "commutator"), lat.nu,
                         "commutator")
    f = _build_weyl(lat, _need(cfg, "f", "commutator"), "commutator.f")
    g = _build_weyl(lat, _need(cfg, "g", "commutator"), "commutator.g")
    t_grid = _time_grid(cfg, "commutator")
    mu = float(_need(cfg, "mu", "commutator"))
    a = cfg.get("a")
    try:
        p = HarmonicBoundParams(mu, c, None if a is None else float(a))
    except ValueError as e:
        raise ScenarioError(f"commutator: {e}") from e
    r = support_distance(f, g)
    rows = []
    exact_s, thm_s, cor_s = [], [], []
    for t in t_grid:
        exact = commutator_norm_exact(f, g, float(t), couplings=c)
        thm = harmonic_bound_rhs(f, g, float(t), p, form="theorem")
        cor = (harmonic_bound_rhs(f, g, float(t), p, form="corollary")
               if a is not None else float("nan"))
        rows.append([float(t), r, exact, thm, cor])
        exact_s.append(exact)
        thm_s.append(thm)
        cor_s.append(cor)
    write_csv(os.path.join(outdir, "commutator.csv"),
              ["t", "r", "exact_norm", "bound_theorem", "bound_corollary"],
              rows)
    series = [{"name": "exact_norm", "x": list(map(float, t_grid)),
               "y": exact_s},
              {"name": "envelope theorem", "x": list(map(float, t_grid)),
               "y": thm_s}]
    if a is not None:
        series.append({"name": "envelope corollary",
                       "x": list(map(float, t_grid)), "y": cor_s})
    write_svg(os.path.join(outdir, "commutator.svg"), series, "t",
              "commutator norm")
    return EXIT_OK


def cmd_lightcone(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .kernels import compute_H
    from .lightcone import extract_front, mu_star, optimal_velocity
    lat = _build_lattice(_need(cfg, "lattice", "lightcone"), "lightcone")
    if lat.nu != 1:
        raise ScenarioError("lightcone: the front sweep is one-dimensional")
    c = _build_couplings(_need(cfg, "couplings", "lightcone"), lat.nu,
                         "lightcone")
    t_grid = _time_grid(cfg, "lightcone")
    thresholds = cfg.get("thresholds", [1e-3])
    if not isinstance(thresholds, list) or not thresholds:
        raise ScenarioError("lightcone: thresholds must be a nonempty list")
    rvals = list(range(1, lat.L + 1))
    idx = [lat.index((r,)) for r in rvals]
    # for delta arguments the commutator norm is 2|sin(Hm1(t,r)/2)|:
    # one kernel evaluation per time covers every distance
    table = np.array([2.0 * np.abs(np.sin(
        compute_H(lat, c, -1, float(t)).values[idx] / 2.0)) for t in t_grid])
    rows = [[float(t), r, float(v)]
            for t, row in zip(t_grid, table) for r, v in zip(rvals, row)]
    write_csv(os.path.join(outdir, "lightcone.csv"), ["t", "r", "norm"], rows)
    vb = optimal_velocity(c)
    fronts = [(float(th), extract_front(t_grid, rvals, table, float(th),
                                        r_max=lat.L - 2))
              for th in thresholds]
    frows = [[th, r, front.arrivals[r], front.fitted_velocity, vb]
             for th, front in fronts for r in sorted(front.arrivals)]
    write_csv(os.path.join(outdir, "front.csv"),
              ["threshold", "r", "arrival_t", "fitted_velocity",
               "velocity_bound"], frows)
    # r_max caps only the velocity fit; the arrivals cover every r
    series = [{"name": f"arrival theta={th:g}",
               "x": [front.arrivals.get(r, float("nan")) for r in rvals],
               "y": rvals} for th, front in fronts]
    write_svg(os.path.join(outdir, "front.svg"), series, "arrival time",
              "distance r", logy=False)
    print(f"mu0 = {mu_star():.12g}, velocity bound = {vb:.12g}")
    return EXIT_OK


def cmd_genbound(cfg: dict, outdir: str) -> int:
    from .genbounds import (DecayFunction, InteractionGraph, l1_metric,
                            theorem_phi_bound)
    ctx = "genbound"
    if "points" in cfg:
        metric = l1_metric(_need(cfg, "points", ctx))
    else:
        metric = _need(cfg, "metric", ctx)
    terms_cfg = _need(cfg, "terms", ctx)
    try:
        terms = [(set(_need(tc, "sites", ctx)), float(_need(tc, "norm", ctx)))
                 for tc in terms_cfg]
        for tc in terms_cfg:
            _check_keys(tc, {"sites", "norm"}, ctx + ".terms")
        G = InteractionGraph(metric, terms)
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{ctx}: {e}") from e
    fcfg = _need(cfg, "decay", ctx)
    _check_keys(fcfg, {"exponent", "a"}, ctx + ".decay")
    F = DecayFunction(
        lambda r, p=float(_need(fcfg, "exponent", ctx)): (1.0 + r) ** (-p),
        float(fcfg.get("a", 0.0)))
    X = _need(cfg, "X", ctx)
    Y = _need(cfg, "Y", ctx)
    normA = float(cfg.get("normA", 1.0))
    normB = float(cfg.get("normB", 1.0))
    forms = cfg.get("forms", ["theorem"])
    t_grid = _time_grid(cfg, ctx)
    nu = cfg.get("nu")
    rows = []
    for form in forms:
        for t in t_grid:
            try:
                val = theorem_phi_bound(G, F, X, Y, normA, normB, float(t),
                                        form=form,
                                        nu=None if nu is None else int(nu))
            except ValueError as e:
                raise ScenarioError(f"{ctx}: {e}") from e
            rows.append([form, float(t), val])
    write_csv(os.path.join(outdir, "genbound.csv"), ["form", "t", "bound"],
              rows)
    return EXIT_OK


def cmd_anharm(cfg: dict, outdir: str) -> int:
    from .anharmonic import (AnharmonicBoundParams, anharm_bound_rhs,
                             anharm_constants, kappa_V)
    ctx = "anharm"
    lat = _build_lattice(_need(cfg, "lattice", ctx), ctx)
    c = _build_couplings(_need(cfg, "couplings", ctx), lat.nu, ctx)
    pert = _build_perturbation(cfg.get("perturbation"), ctx + ".perturbation")
    try:
        b = AnharmonicBoundParams(float(_need(cfg, "mu", ctx)),
                                  float(_need(cfg, "epsilon", ctx)),
                                  c, lat.nu)
    except ValueError as e:
        # the mu >= 1, epsilon > 0 hypotheses of the perturbed bound
        raise ScenarioError(f"{ctx}: {e}") from e
    f = _build_weyl(lat, _need(cfg, "f", ctx), ctx + ".f")
    g = _build_weyl(lat, _need(cfg, "g", ctx), ctx + ".g")
    t_grid = _time_grid(cfg, ctx)
    z_limit = bool(cfg.get("z_limit", False))
    forms = cfg.get("forms", ["theorem", "corollary"])
    try:
        C, Cnu, v = anharm_constants(b, pert, lattice=lat, z_limit=z_limit)
        kap = kappa_V(pert)
    except RuntimeError as e:
        raise ConvergenceError(str(e)) from e
    write_csv(os.path.join(outdir, "anharm_constants.csv"),
              ["kappa", "C", "C_nu", "v"], [[kap, C, Cnu, v]])
    rows = []
    for form in forms:
        for t in t_grid:
            try:
                val = anharm_bound_rhs(f, g, float(t), b, pert, form=form,
                                       z_limit=z_limit)
            except ValueError as e:
                raise ScenarioError(f"{ctx}: {e}") from e
            rows.append([form, float(t), val])
    write_csv(os.path.join(outdir, "anharm.csv"), ["form", "t", "bound"],
              rows)
    return EXIT_OK


def cmd_focksim(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .torus import Couplings
    from .focksim import build_system, commutator_front, truncation_gate
    ctx = "focksim"
    ccfg = _need(cfg, "couplings", ctx)
    _check_keys(ccfg, {"omega", "lambda"}, ctx + ".couplings")
    lam = _need(ccfg, "lambda", ctx)
    if not isinstance(lam, list) or len(lam) != 1:
        raise ScenarioError(f"{ctx}: lambda must be a 1-element list")
    try:
        c = Couplings(float(_need(ccfg, "omega", ctx)), (float(lam[0]),))
        sys_ = build_system(int(_need(cfg, "n_sites", ctx)),
                            int(_need(cfg, "trunc", ctx)), c,
                            geometry=cfg.get("geometry", "ring"),
                            perturbation=_build_perturbation(
                                cfg.get("perturbation"),
                                ctx + ".perturbation"))
    except ValueError as e:
        raise ScenarioError(f"{ctx}: {e}") from e

    def amp_list(key):
        spec = _need(cfg, key, ctx)
        if not isinstance(spec, list) or len(spec) != sys_.n_sites:
            raise ScenarioError(
                f"{ctx}: {key} must list one [re, im] pair per site")
        return np.array([float(p[0]) + 1j * float(p[1]) for p in spec])

    f = amp_list("f")
    g = amp_list("g")
    t_grid = _time_grid(cfg, ctx)
    n_low = int(cfg.get("n_low", 8))
    try:
        front = commutator_front(sys_, f, g, t_grid, n_low=n_low)
    except ValueError as e:
        raise ScenarioError(f"{ctx}: {e}") from e
    gate_cfg = cfg.get("gate")
    refined = np.full(len(t_grid), float("nan"))
    if gate_cfg is not None:
        _check_keys(gate_cfg, {"dn", "tol"}, ctx + ".gate")
        refined, change, ok = truncation_gate(
            sys_, f, g, t_grid, front.norms, dn=int(gate_cfg.get("dn", 4)),
            tol=float(gate_cfg.get("tol", 1e-4)), n_low=n_low)
        if not ok:
            raise ConvergenceError(
                f"truncation gate failed: max change {change:.3e} at "
                f"n -> n + {gate_cfg.get('dn', 4)}")
    rows = [[float(t), float(n), float(r)]
            for t, n, r in zip(t_grid, front.norms, refined)]
    write_csv(os.path.join(outdir, "focksim.csv"),
              ["t", "norm", "norm_refined"], rows)
    write_csv(os.path.join(outdir, "focksim_fit.csv"),
              ["fitted_slope", "fit_residual_rel"],
              [[front.fitted_slope, front.fit_residual_rel]])
    return EXIT_OK


def cmd_clustering(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .clustering import clustering_fit, ground_covariance
    ctx = "clustering"
    lat = _build_lattice(_need(cfg, "lattice", ctx), ctx)
    c = _build_couplings(_need(cfg, "couplings", ctx), lat.nu, ctx)
    try:
        cov = ground_covariance(lat, c)
        fit = clustering_fit(cov, float(_need(cfg, "mu", ctx)),
                             float(_need(cfg, "epsilon", ctx)),
                             _build_perturbation(cfg.get("perturbation"),
                                                 ctx + ".perturbation"))
    except (ZeroDivisionError, ValueError) as e:
        raise ScenarioError(f"{ctx}: {e}") from e
    rows = [[int(d), float(v), float(fit.c_fit * np.exp(-d / fit.xi_theorem))]
            for d, v in zip(fit.distances, fit.covariances)]
    write_csv(os.path.join(outdir, "clustering.csv"),
              ["d", "correlation", "envelope"], rows)
    write_csv(os.path.join(outdir, "clustering_fit.csv"),
              ["fitted_xi", "xi_theorem", "c_fit", "dominated",
               "nonpositive_seen"],
              [[fit.fitted_xi, fit.xi_theorem, fit.c_fit,
                int(fit.dominated), int(fit.nonpositive_seen)]])
    series = [{"name": "|correlation|", "x": [int(d) for d in fit.distances],
               "y": [abs(float(v)) for v in fit.covariances]},
              {"name": "envelope", "x": [int(d) for d in fit.distances],
               "y": [float(fit.c_fit * np.exp(-d / fit.xi_theorem))
                     for d in fit.distances]}]
    write_svg(os.path.join(outdir, "clustering.svg"), series, "distance d",
              "|correlation|")
    if not fit.dominated:
        raise ConvergenceError("clustering envelope violated")
    return EXIT_OK


def cmd_verify(cfg: dict, outdir: str, seed: int | None) -> int:
    import numpy as np
    checks: list[tuple[str, bool, float]] = []  # (name, passed, margin)
    rng = np.random.default_rng(0 if seed is None else seed)

    from .torus import Couplings, TorusLattice
    from .kernels import (EnvelopeParams, compute_H, compute_H_direct,
                          envelope)
    from .weyl import (WeylFunction, HarmonicBoundParams,
                       commutator_norm_exact, evolve, evolve_mode_space,
                       harmonic_bound_rhs)
    from .lightcone import mu_star
    from .genbounds import (DecayFunction, InteractionGraph, decay_constants,
                            l1_metric)
    from .anharmonic import PerturbationSpec, kappa_V
    from .clustering import ground_covariance, weyl_expectation
    from . import focksim as fsim

    lat = TorusLattice(1, 8)
    c = Couplings(1.0, (1.0,))

    # kernel envelope domination on a coarse grid
    e = EnvelopeParams(1.0, c)
    dist = lat.distances_from(np.zeros(1, dtype=int))
    worst = -np.inf
    for m in (-1, 0, 1):
        for t in (0.0, 0.5, 1.0):
            vals = np.abs(compute_H(lat, c, m, t).values)
            worst = max(worst, float(np.max(vals - envelope(e, m, t, dist))))
    checks.append(("kernel_envelopes", worst <= 0.0, -worst))

    # fast vs direct kernels
    err = 0.0
    for m in (-1, 0, 1):
        t = float(rng.uniform(0, 5))
        err = max(err, float(np.max(np.abs(
            compute_H(lat, c, m, t).values
            - compute_H_direct(lat, c, m, t).values))))
    checks.append(("kernel_oracle", err < 1e-10, 1e-10 - err))

    # evolution invariants and mode-space oracle
    fv = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
    f = WeylFunction(lat, fv)
    t = 0.7
    d1 = float(np.max(np.abs(evolve(f, t, couplings=c).values
                             - evolve_mode_space(f, t, c).values)))
    checks.append(("mode_space_oracle", d1 < 1e-10, 1e-10 - d1))
    f0 = float(np.max(np.abs(evolve(f, 0.0, couplings=c).values - fv)))
    checks.append(("identity_at_t0", f0 < 1e-12, 1e-12 - f0))

    # harmonic bound domination on random disjoint pairs
    p = HarmonicBoundParams(1.0, c)
    ok, margin = True, np.inf
    for _ in range(50):
        x, y = rng.choice(lat.n_sites, size=2, replace=False)
        fa = WeylFunction.from_sites(lat, [(lat.sites[x], 1.0 + 0.5j)])
        ga = WeylFunction.from_sites(lat, [(lat.sites[y], -0.7j)])
        tt = float(rng.uniform(0, 2))
        lhs = commutator_norm_exact(fa, ga, tt, couplings=c)
        rhs = harmonic_bound_rhs(fa, ga, tt, p)
        ok = ok and lhs <= rhs
        margin = min(margin, rhs - lhs)
    checks.append(("harmonic_bound", ok, float(margin)))

    mu0 = mu_star()
    checks.append(("mu0_bracket", 0.5 < mu0 < 1.0, min(mu0 - 0.5, 1.0 - mu0)))

    # general-bound constants vs a brute recomputation
    # six distinct points of [-4, 4]^2: the metric needs d > 0 off the
    # diagonal
    cells = rng.choice(81, size=6, replace=False)
    pts = np.stack([cells // 9 - 4, cells % 9 - 4], axis=1)
    G = InteractionGraph(l1_metric(pts), [({0, 1}, 1.0), ({2, 3}, 0.5)])
    F = DecayFunction(lambda r: (1.0 + r) ** -3, 0.2)
    normF, ca = decay_constants(G, F)
    brute = max(sum(F.f(G.d[x, y]) for y in range(G.n)) for x in range(G.n))
    checks.append(("decay_constants", abs(normF - brute) < 1e-12
                   and ca > 0, 1e-12 - abs(normF - brute)))

    kap = kappa_V(PerturbationSpec.gaussian(0.25))
    checks.append(("kappa_gaussian", abs(kap - 0.25) < 1e-8,
                   1e-8 - abs(kap - 0.25)))

    # Fock oracle vs the exact formula on a 2-site ring
    lat2 = TorusLattice(1, 1)
    sysf = fsim.build_system(2, 16, c)
    i0, i1 = lat2.index((0,)), lat2.index((1,))
    fv2 = np.zeros(2, complex)
    gv2 = np.zeros(2, complex)
    fv2[i0] = 0.6
    gv2[i1] = 0.9j
    exact = commutator_norm_exact(WeylFunction(lat2, fv2),
                                  WeylFunction(lat2, gv2), 0.3, couplings=c)
    brute2 = sysf.commutator_norm(np.array([fv2[i0], fv2[i1]]),
                                  np.array([gv2[i0], gv2[i1]]), 0.3,
                                  n_low=4)
    checks.append(("fock_oracle", abs(exact - brute2) < 1e-2,
                   1e-2 - abs(exact - brute2)))

    # Gaussian ground state vs Fock ground state
    cov = ground_covariance(lat2, c)
    sys30 = fsim.build_system(2, 30, c)
    _, psi0 = sys30.ground_state()
    h = np.zeros(2, complex)
    h[i0] = 0.5 + 0.2j
    W = sys30.weyl_matrix(np.array([h[i0], h[i1]]))
    gexp = weyl_expectation(cov, WeylFunction(lat2, h))
    bexp = float(np.vdot(psi0, W @ psi0).real)
    checks.append(("gaussian_ground_state", abs(gexp - bexp) < 1e-6,
                   1e-6 - abs(gexp - bexp)))

    rows = [[name, int(passed), float(m)] for name, passed, m in checks]
    write_csv(os.path.join(outdir, "verify.csv"),
              ["check", "passed", "margin"], rows)
    width = max(len(name) for name, _, _ in checks)
    for name, passed, m in checks:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  "
              f"margin={m:.3e}")
    if not all(passed for _, passed, _ in checks):
        raise ConvergenceError("verification battery failed")
    return EXIT_OK


# ---------------------------------------------------------------- main

_ALLOWED = {
    "kernels": {"lattice", "couplings", "times", "m", "mu"},
    "evolve": {"lattice", "couplings", "times", "f", "zero_omega"},
    "commutator": {"lattice", "couplings", "times", "f", "g", "mu", "a"},
    "lightcone": {"lattice", "couplings", "times", "thresholds"},
    "genbound": {"points", "metric", "terms", "decay", "X", "Y", "normA",
                 "normB", "forms", "times", "nu"},
    "anharm": {"lattice", "couplings", "mu", "epsilon", "perturbation",
               "f", "g", "times", "forms", "z_limit"},
    "focksim": {"n_sites", "trunc", "couplings", "geometry", "perturbation",
                "f", "g", "times", "n_low", "gate"},
    "clustering": {"lattice", "couplings", "mu", "epsilon", "perturbation"},
    "verify": set(),
}

_HANDLERS = {
    "kernels": cmd_kernels,
    "evolve": cmd_evolve,
    "commutator": cmd_commutator,
    "lightcone": cmd_lightcone,
    "genbound": cmd_genbound,
    "anharm": cmd_anharm,
    "focksim": cmd_focksim,
    "clustering": cmd_clustering,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticebounds",
        description="Propagation bounds and exact dynamics for harmonic "
                    "and anharmonic lattices")
    parser.add_argument("command", choices=sorted(_ALLOWED))
    parser.add_argument("--config", help="scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "verify":
            cfg = {}
            if args.config is not None:
                cfg = load_scenario(args.config, "verify",
                                    _ALLOWED["verify"])
            return cmd_verify(cfg, args.out, args.seed)
        if args.config is None:
            raise ScenarioError(f"{args.command} requires --config")
        cfg = load_scenario(args.config, args.command,
                            _ALLOWED[args.command])
        if args.seed is not None:
            cfg["seed"] = args.seed
        return _HANDLERS[args.command](cfg, args.out)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
