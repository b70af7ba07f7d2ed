"""Scenario-driven command line front end.

Subcommands run one pipeline each (kernels, evolve, commutator, lightcone,
genbound, anharm, focksim, clustering) or the verification battery
(verify).  `load_scenario` reads a JSON scenario against its model's
schema in SCHEMAS, the one typed reader: exact types (a float field takes
a finite number, an int field never a bool or a float), required and
unknown keys at every level, defaults filled in.  A config's lattice may
have at most MAX_SITES sites, and so may the tables that grow as the
square of a config: genbound's n x n metric, the |X| x |Y| support
pairs of commutator and anharm, and focksim's trunc^2 x trunc^2 bond
potential.  Outputs are static SVG plots and CSV tables
(`write_csv`): floats as %.12g, integers and labels as text, and nan in
the columns the README lists where a value does not apply.

Only `main` maps failures to exit codes, each with one stderr line: 1
(`error:`) for a usage error in the arguments, ScenarioError, ValueError
(among them a genbound decay weight e^(-a r) F(r) that underflows to 0,
and a bound, velocity or constant that does not fit in a float),
ZeroDivisionError and OSError (an unusable --out); 2
(`numerical failure:`) for ConvergenceError, RuntimeError (ARPACK) and
numpy.linalg.LinAlgError.  Numerical imports wait until --threads has set
the BLAS thread count.
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
MAX_SITES = 2 ** 20  # budget for a config's lattice and its square tables


class ScenarioError(Exception):
    """Config rejected before any computation ran."""


class ConvergenceError(Exception):
    """A numerical convergence gate failed."""


# ---------------------------------------------------------------- schema
# A type is a function (value, where) -> typed value that raises
# ScenarioError; `where` is the key path named in the message.

def _float(v, where: str) -> float:
    # bool subclasses int, so the exact type is compared
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise ScenarioError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _int(v, where: str) -> int:
    if type(v) is not int or abs(v) >= 2 ** 63:
        raise ScenarioError(f"{where} must be a 64-bit integer, got {v!r}")
    return v


def _complex(v, where: str) -> complex:
    if type(v) is not list or len(v) != 2:
        raise ScenarioError(f"{where} must be an [re, im] pair, got {v!r}")
    return _float(v[0], where + "[0]") + 1j * _float(v[1], where + "[1]")


def _times(v, where: str) -> list[float]:
    t = _list(_float)(v, where)
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ScenarioError(f"{where} must be strictly increasing")
    return t


def _choice(*options):
    def read(v, where: str):
        if not any(type(v) is type(o) and v == o for o in options):
            raise ScenarioError(
                f"{where} must be one of {list(options)}, got {v!r}")
        return v
    return read


def _list(item):
    """A nonempty list of items."""
    def read(v, where: str) -> list:
        if type(v) is not list or not v:
            raise ScenarioError(f"{where} must be a nonempty list, got {v!r}")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return read


def _obj(fields: dict):
    """An object with exactly the keys of fields: key -> type for a
    required key, key -> (type, default) for an optional one."""
    def read(v, where: str) -> dict:
        if type(v) is not dict:
            raise ScenarioError(f"{where or 'scenario'} must be an object")
        unknown = sorted(set(v) - set(fields))
        if unknown:
            raise ScenarioError(f"{where or 'scenario'}: unknown keys "
                                f"{unknown}; allowed: {sorted(fields)}")
        out = {}
        for key, spec in fields.items():
            kind, default = spec if type(spec) is tuple else (spec, ...)
            path = f"{where}.{key}".lstrip(".")
            if key not in v and default is ...:
                raise ScenarioError(f"missing required key {path}")
            out[key] = kind(v[key], path) if key in v else default
        return out
    return read


def _variants(key: str, variants: dict):
    """An object whose `key` names the variant (a fields dict) it follows."""
    readers = {name: _obj({key: _choice(name), **fields})
               for name, fields in variants.items()}

    def read(v, where: str) -> dict:
        name = v.get(key) if type(v) is dict else None
        if type(name) is not str or name not in readers:
            raise ScenarioError(
                f"{where}.{key} must be one of {sorted(readers)}")
        return readers[name](v, where)
    return read


_LATTICE = _obj({"nu": _int, "L": _int})
_COUPLINGS = _obj({"omega": _float, "lambda": _list(_float)})
_WEYL = _list(_obj({"site": _list(_int), "re": (_float, 0.0),
                    "im": (_float, 0.0)}))
_TAG = (_choice("site", "site_p", "bond"), "site")
_BOOL = _choice(True, False)
_PERTURBATION = (_variants("type", {
    "zero": {},
    "gaussian": {"alpha": _float, "tag": _TAG},
    "cosine": {"kappa": _float, "beta": _float, "tag": _TAG}}), None)
_FORMS = ["theorem", "corollary"]

SCHEMAS = {model: _obj({"schema_version": _choice(SCHEMA_VERSION),
                        "model": _choice(model), **fields})
           for model, fields in {
    "kernels": {"lattice": _LATTICE, "couplings": _COUPLINGS,
                "times": _times, "m": (_list(_choice(-1, 0, 1)), [0, 1, -1]),
                "mu": (_float, None)},
    "evolve": {"lattice": _LATTICE, "couplings": _COUPLINGS,
               "times": _times, "f": _WEYL},
    "commutator": {"lattice": _LATTICE, "couplings": _COUPLINGS,
                   "times": _times, "f": _WEYL, "g": _WEYL, "mu": _float,
                   "a": (_float, None)},
    "lightcone": {"lattice": _LATTICE, "couplings": _COUPLINGS,
                  "times": _times, "thresholds": (_list(_float), [1e-3])},
    "genbound": {"points": (_list(_list(_float)), None),
                 "metric": (_list(_list(_float)), None),
                 "terms": _list(_obj({"sites": _list(_int),
                                      "norm": _float})),
                 "decay": _obj({"exponent": _float, "a": (_float, 0.0)}),
                 "X": _list(_int), "Y": _list(_int),
                 "normA": (_float, 1.0), "normB": (_float, 1.0),
                 "forms": (_list(_choice(*_FORMS, "lrexp")), ["theorem"]),
                 "times": _times, "nu": (_int, None)},
    "anharm": {"lattice": _LATTICE, "couplings": _COUPLINGS, "mu": _float,
               "epsilon": _float, "perturbation": _PERTURBATION,
               "f": _WEYL, "g": _WEYL, "times": _times,
               "forms": (_list(_choice(*_FORMS)), _FORMS),
               "z_limit": (_BOOL, False)},
    "focksim": {"n_sites": _int, "trunc": _int, "couplings": _COUPLINGS,
                "geometry": (_choice("ring", "chain"), "ring"),
                "perturbation": _PERTURBATION,
                "f": _list(_complex), "g": _list(_complex), "times": _times,
                "n_low": (_int, 8),
                "gate": (_obj({"dn": (_int, 4), "tol": (_float, 1e-4)}),
                         None)},
    "clustering": {"lattice": _LATTICE, "couplings": _COUPLINGS,
                   "mu": _float, "epsilon": _float,
                   "perturbation": _PERTURBATION},
}.items()}


def load_scenario(path: str, model: str) -> dict:
    """The scenario at path, type-checked against SCHEMAS[model]."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}") from e
    if type(cfg) is dict and cfg.get("model", model) != model:
        raise ScenarioError(f"{path}: model is {cfg['model']!r}, this "
                            f"subcommand runs '{model}' scenarios")
    return SCHEMAS[model](cfg, "")


# ------------------------------------------------------ library objects
# checks that need more than one value or a built object

def _build_lattice(cfg: dict):
    from .torus import TorusLattice
    nu, L = cfg["nu"], cfg["L"]
    # 2L >= 2: capping nu at the bit length of MAX_SITES keeps the verdict
    if nu >= 1 and L >= 1 and \
            (2 * L) ** min(nu, MAX_SITES.bit_length()) > MAX_SITES:
        raise ScenarioError(f"lattice: (2L)^nu = {2 * L}^{nu} sites exceeds "
                            f"the budget of {MAX_SITES}")
    return TorusLattice(nu, L)


def _build_couplings(cfg: dict, nu: int):
    from .torus import Couplings
    if len(cfg["lambda"]) != nu:
        raise ScenarioError(f"couplings.lambda must list {nu} couplings")
    return Couplings(cfg["omega"], tuple(cfg["lambda"]))


def _build_weyl(lat, entries: list):
    from .weyl import WeylFunction
    return WeylFunction.from_sites(
        lat, [(e["site"], e["re"] + 1j * e["im"]) for e in entries])


def _check_pair_budget(f, g):
    pairs = len(f.support) * len(g.support)
    if pairs > MAX_SITES:
        raise ScenarioError(f"|X| |Y| = {pairs} support pairs exceeds the "
                            f"budget of {MAX_SITES}")


def _build_perturbation(cfg: dict | None):
    from .anharmonic import PerturbationSpec
    if cfg is None or cfg["type"] == "zero":
        return PerturbationSpec.zero()
    if cfg["type"] == "gaussian":
        return PerturbationSpec.gaussian(cfg["alpha"], tag=cfg["tag"])
    return PerturbationSpec.cosine(cfg["kappa"], cfg["beta"], tag=cfg["tag"])


# ---------------------------------------------------------------- output

def write_csv(path: str, columns: dict) -> None:
    """Stream {header: column} as CSV rows; columns are 1-D, one type each."""
    import numpy as np
    cols = [np.asarray(c) for c in columns.values()]
    fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s"
                   for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % row for row in zip(*(c.tolist() for c in cols),
                                               strict=True))


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
    # non-finite points (an unreached r) are not drawn
    xs_all = [x for s in series for x in s["x"] if math.isfinite(x)] or [0.0]
    ys_all = [max(abs(y), floor) for s in series for y in s["y"]
              if math.isfinite(y)] or [floor]
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
                       for x, y in zip(s["x"], s["y"])
                       if math.isfinite(x) and math.isfinite(y))
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
    from .kernels import EnvelopeParams, _time_blocks, compute_H, envelope
    lat = _build_lattice(cfg["lattice"])
    c = _build_couplings(cfg["couplings"], lat.nu)
    ms, times = cfg["m"], cfg["times"]
    env = None if cfg["mu"] is None else EnvelopeParams(cfg["mu"], c)
    dist = lat.abs_l1()
    rvals = list(range(int(np.max(dist)) + 1))
    order = np.argsort(dist, kind="stable")  # sites grouped by distance
    starts = np.searchsorted(dist[order], rvals)
    # max |H^(m)| at each distance, reduced one block of times at a time
    prof = np.array([_time_blocks(lat, times, lambda tb: np.maximum.reduceat(
        np.abs(compute_H(lat, c, m, tb).values)[:, order], starts, axis=1))
        for m in ms])
    envs, series = [], []
    for i, m in enumerate(ms):
        series += [{"name": f"|H^({m})| t={t:g}", "x": rvals, "y": y}
                   for t, y in zip(times, prof[i].tolist())]
        if env is not None:  # drawn at the last time
            envs.append(envelope(env, m, times, rvals))
            series.append({"name": f"envelope m={m} t={times[-1]:g}",
                           "x": rvals, "y": envs[-1][-1].tolist()})
    m_col, t_col, r_col = np.meshgrid(ms, times, rvals, indexing="ij")
    columns = {"m": m_col.ravel(), "t": t_col.ravel(), "r": r_col.ravel(),
               "max_abs_value": prof.ravel()}
    if env is not None:
        columns["envelope"] = np.ravel(envs)
    write_csv(os.path.join(outdir, "kernels.csv"), columns)
    write_svg(os.path.join(outdir, "kernels.svg"), series, "distance r",
              "max |H^(m)(t,x)| at distance r")
    return EXIT_OK


def cmd_evolve(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .weyl import _evolved
    lat = _build_lattice(cfg["lattice"])
    c = _build_couplings(cfg["couplings"], lat.nu)
    f = _build_weyl(lat, cfg["f"])
    times = cfg["times"]
    values = _evolved(f, times, c, c.omega == 0.0)
    labels = [" ".join(map(str, x)) for x in lat.sites.tolist()]
    write_csv(os.path.join(outdir, "evolve.csv"),
              {"t": np.repeat(times, lat.n_sites), "site": labels * len(times),
               "re_f": values.real.ravel(), "im_f": values.imag.ravel()})
    return EXIT_OK


def cmd_commutator(cfg: dict, outdir: str) -> int:
    from .weyl import (HarmonicBoundParams, commutator_norm_exact,
                       harmonic_bound_rhs, support_distance)
    lat = _build_lattice(cfg["lattice"])
    c = _build_couplings(cfg["couplings"], lat.nu)
    f = _build_weyl(lat, cfg["f"])
    g = _build_weyl(lat, cfg["g"])
    _check_pair_budget(f, g)
    times, a = cfg["times"], cfg["a"]
    p = HarmonicBoundParams(cfg["mu"], c, a)
    r = support_distance(f, g)
    exact = commutator_norm_exact(f, g, times, couplings=c,
                                  zero_omega=c.omega == 0.0)
    thm = harmonic_bound_rhs(f, g, times, p, form="theorem")
    cor = (harmonic_bound_rhs(f, g, times, p, form="corollary")
           if a is not None else [float("nan")] * len(times))
    write_csv(os.path.join(outdir, "commutator.csv"),
              {"t": times, "r": [r] * len(times), "exact_norm": exact,
               "bound_theorem": thm, "bound_corollary": cor})
    series = [{"name": "exact_norm", "x": times, "y": exact},
              {"name": "envelope theorem", "x": times, "y": thm}]
    if a is not None:
        series.append({"name": "envelope corollary", "x": times, "y": cor})
    # exact norms are drawn down to 1/100 of the smallest theorem bound:
    # far below it they say nothing about the bound, and near 1e-16 they
    # are round-off whose log-axis position changes with summation order
    low = min([b for b in thm if b > 0.0], default=0.0)
    write_svg(os.path.join(outdir, "commutator.svg"), series, "t",
              "commutator norm", floor=max(1e-2 * low, 1e-18))
    return EXIT_OK


def cmd_lightcone(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .kernels import compute_H, velocity
    from .lightcone import extract_front, mu_star
    lat = _build_lattice(cfg["lattice"])
    if lat.nu != 1:
        raise ScenarioError("the front sweep is one-dimensional")
    c = _build_couplings(cfg["couplings"], lat.nu)
    times = cfg["times"]
    rvals = list(range(1, lat.L + 1))  # the last L sites, in order
    # for delta arguments the commutator norm is 2|sin(Hm1(t,r)/2)|:
    # one kernel evaluation over the time grid covers every distance
    hm1 = compute_H(lat, c, -1, times).values[:, -lat.L:]
    table = 2.0 * np.abs(np.sin(hm1 / 2.0))
    write_csv(os.path.join(outdir, "lightcone.csv"),
              {"t": np.repeat(times, len(rvals)),
               "r": np.tile(rvals, len(times)), "norm": table.ravel()})
    mu0 = mu_star()
    vb = velocity(c, mu0)
    fronts = [extract_front(times, rvals, table, th, r_max=lat.L - 2)
              for th in cfg["thresholds"]]
    n = [len(fr.arrivals) for fr in fronts]  # keyed in the order of rvals
    write_csv(os.path.join(outdir, "front.csv"), {
        "threshold": np.repeat(cfg["thresholds"], n),
        "r": [r for fr in fronts for r in fr.arrivals],
        "arrival_t": [t for fr in fronts for t in fr.arrivals.values()],
        "fitted_velocity": np.repeat([fr.fitted_velocity for fr in fronts], n),
        "velocity_bound": np.full(sum(n), vb)})
    # r_max caps only the velocity fit; the arrivals cover every r
    series = [{"name": f"arrival theta={fr.threshold:g}",
               "x": [fr.arrivals.get(r, float("nan")) for r in rvals],
               "y": rvals} for fr in fronts]
    write_svg(os.path.join(outdir, "front.svg"), series, "arrival time",
              "distance r", logy=False)
    print(f"mu0 = {mu0:.12g}, velocity bound = {vb:.12g}")
    return EXIT_OK


def cmd_genbound(cfg: dict, outdir: str) -> int:
    from .genbounds import InteractionGraph, power_law, theorem_phi_bound
    if (cfg["points"] is None) == (cfg["metric"] is None):
        raise ScenarioError("give exactly one of points and metric")
    n = len(cfg["points"] or cfg["metric"])
    if n * n > MAX_SITES:
        raise ScenarioError(f"{n} sites: the {n} x {n} metric table exceeds "
                            f"the budget of {MAX_SITES}")
    terms = [(set(tc["sites"]), tc["norm"]) for tc in cfg["terms"]]
    G = (InteractionGraph(cfg["metric"], terms) if cfg["points"] is None
         else InteractionGraph.from_points(cfg["points"], terms))
    F = power_law(cfg["decay"]["exponent"]).with_a(cfg["decay"]["a"])
    forms, times = cfg["forms"], cfg["times"]
    write_csv(os.path.join(outdir, "genbound.csv"), {
        "form": [form for form in forms for _ in times],
        "t": times * len(forms),
        "bound": [b for form in forms for b in theorem_phi_bound(
            G, F, cfg["X"], cfg["Y"], cfg["normA"], cfg["normB"], times,
            form=form, nu=cfg["nu"])]})
    return EXIT_OK


def cmd_anharm(cfg: dict, outdir: str) -> int:
    from .anharmonic import (AnharmonicBoundParams, anharm_bound_rhs,
                             anharm_constants, kappa_V)
    lat = _build_lattice(cfg["lattice"])
    c = _build_couplings(cfg["couplings"], lat.nu)
    pert = _build_perturbation(cfg["perturbation"])
    b = AnharmonicBoundParams(cfg["mu"], cfg["epsilon"], c)
    f = _build_weyl(lat, cfg["f"])
    g = _build_weyl(lat, cfg["g"])
    _check_pair_budget(f, g)
    z_limit = cfg["z_limit"]
    C, Cnu, v = anharm_constants(b, pert, None if z_limit else lat)
    write_csv(os.path.join(outdir, "anharm_constants.csv"),
              {"kappa": [kappa_V(pert)], "C": [C], "C_nu": [Cnu], "v": [v]})
    forms, times = cfg["forms"], cfg["times"]
    write_csv(os.path.join(outdir, "anharm.csv"), {
        "form": [form for form in forms for _ in times],
        "t": times * len(forms),
        "bound": [v for form in forms for v in anharm_bound_rhs(
            f, g, times, b, pert, form=form, z_limit=z_limit)]})
    return EXIT_OK


def cmd_focksim(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .focksim import (FockSystem, check_gate, commutator_front,
                          truncation_gate)
    times, n_low, gate = cfg["times"], cfg["n_low"], cfg["gate"]
    if gate is not None:
        check_gate(gate["dn"], gate["tol"])
    pert = _build_perturbation(cfg["perturbation"])
    # a bond potential is a dense trunc^2 x trunc^2 table, and the gate's
    # (dn >= 1) is the larger one
    n = cfg["trunc"] + (gate["dn"] if gate is not None else 0)
    if pert.potential is not None and pert.tag == "bond" and \
            n ** 4 > MAX_SITES:
        raise ScenarioError(f"trunc {n}: the bond potential's {n * n} x "
                            f"{n * n} table exceeds the budget of "
                            f"{MAX_SITES}")
    sys_ = FockSystem(cfg["n_sites"], cfg["trunc"],
                      _build_couplings(cfg["couplings"], 1),
                      geometry=cfg["geometry"], perturbation=pert)
    if len(cfg["f"]) != sys_.n_sites or len(cfg["g"]) != sys_.n_sites:
        raise ScenarioError("f and g must list one [re, im] pair per site")
    f, g = np.array(cfg["f"]), np.array(cfg["g"])
    front = commutator_front(sys_, f, g, times, n_low=n_low)
    refined = np.full(len(times), float("nan"))
    if gate is not None:
        refined, change, ok = truncation_gate(
            sys_, f, g, times, front.norms, dn=gate["dn"], tol=gate["tol"],
            n_low=n_low)
        if not ok:
            raise ConvergenceError(
                f"truncation gate failed: max change {change:.3e} at "
                f"n -> n + {gate['dn']}")
    write_csv(os.path.join(outdir, "focksim.csv"),
              {"t": times, "norm": front.norms, "norm_refined": refined})
    write_csv(os.path.join(outdir, "focksim_fit.csv"),
              {"fitted_slope": [front.fitted_slope],
               "fit_residual_rel": [front.fit_residual_rel]})
    return EXIT_OK


def cmd_clustering(cfg: dict, outdir: str) -> int:
    import numpy as np
    from .clustering import clustering_fit, ground_covariance
    lat = _build_lattice(cfg["lattice"])
    c = _build_couplings(cfg["couplings"], lat.nu)
    cov = ground_covariance(lat, c)
    fit = clustering_fit(cov, cfg["mu"], cfg["epsilon"],
                         _build_perturbation(cfg["perturbation"]))
    ds = fit.distances
    env = fit.c_fit * np.exp(-ds / fit.xi_theorem)
    write_csv(os.path.join(outdir, "clustering.csv"),
              {"d": ds, "correlation": fit.covariances, "envelope": env})
    write_csv(os.path.join(outdir, "clustering_fit.csv"),
              {"fitted_xi": [fit.fitted_xi], "xi_theorem": [fit.xi_theorem],
               "c_fit": [fit.c_fit], "dominated": [int(fit.dominated)],
               "nonpositive_seen": [int(fit.nonpositive_seen)]})
    series = [{"name": "|correlation|", "x": ds, "y": np.abs(fit.covariances)},
              {"name": "envelope", "x": ds, "y": env}]
    write_svg(os.path.join(outdir, "clustering.svg"), series, "distance d",
              "|correlation|")
    if not fit.dominated:
        raise ConvergenceError("clustering envelope violated")
    return EXIT_OK


def cmd_verify(outdir: str, seed: int | None) -> int:
    import numpy as np
    checks: list[tuple[str, float, float]] = []  # (name, err, tol)
    rng = np.random.default_rng(0 if seed is None else seed)

    from .torus import Couplings, TorusLattice
    from .kernels import (EnvelopeParams, compute_H, compute_H_direct,
                          envelope)
    from .weyl import (WeylFunction, HarmonicBoundParams,
                       commutator_norm_exact, evolve, evolve_mode_space,
                       harmonic_bound_rhs)
    from .lightcone import mu_star
    from .genbounds import InteractionGraph, decay_constants, power_law
    from .anharmonic import PerturbationSpec, kappa_V
    from .clustering import ground_covariance, weyl_expectation
    from . import focksim as fsim

    lat = TorusLattice(1, 8)
    c = Couplings(1.0, (1.0,))

    # kernel envelope domination on a coarse grid
    e = EnvelopeParams(1.0, c)
    dist = lat.distances_from(np.zeros(1, dtype=int))
    ts = [0.0, 0.5, 1.0]
    worst = max(float(np.max(np.abs(compute_H(lat, c, m, ts).values)
                             - envelope(e, m, ts, dist))) for m in (-1, 0, 1))
    checks.append(("kernel_envelopes", worst, 0.0))

    # fast vs direct kernels
    err = 0.0
    for m in (-1, 0, 1):
        t = float(rng.uniform(0, 5))
        err = max(err, float(np.max(np.abs(
            compute_H(lat, c, m, t).values
            - compute_H_direct(lat, c, m, t).values))))
    checks.append(("kernel_oracle", err, 1e-10))

    # evolution invariants and mode-space oracle
    fv = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
    f = WeylFunction(lat, fv)
    t = 0.7
    d1 = float(np.max(np.abs(evolve(f, t, couplings=c).values
                             - evolve_mode_space(f, t, c).values)))
    checks.append(("mode_space_oracle", d1, 1e-10))
    f0 = float(np.max(np.abs(evolve(f, 0.0, couplings=c).values - fv)))
    checks.append(("identity_at_t0", f0, 1e-12))

    # harmonic bound domination on random disjoint pairs
    p = HarmonicBoundParams(1.0, c)
    excess = []  # exact norm minus bound
    for _ in range(50):
        x, y = rng.choice(lat.n_sites, size=2, replace=False)
        fa = WeylFunction.from_sites(lat, [(lat.sites[x], 1.0 + 0.5j)])
        ga = WeylFunction.from_sites(lat, [(lat.sites[y], -0.7j)])
        tt = float(rng.uniform(0, 2))
        lhs = commutator_norm_exact(fa, ga, tt, couplings=c)
        rhs = harmonic_bound_rhs(fa, ga, tt, p)
        excess.append(lhs - rhs)
    checks.append(("harmonic_bound", float(np.max(excess)), 0.0))

    # 0.5 < mu0 < 1.0
    checks.append(("mu0_bracket", abs(mu_star() - 0.75), 0.25))

    # general-bound constants vs a brute recomputation
    # six distinct points of [-4, 4]^2: the metric needs d > 0 off the
    # diagonal
    cells = rng.choice(81, size=6, replace=False)
    pts = np.stack([cells // 9 - 4, cells % 9 - 4], axis=1)
    G = InteractionGraph.from_points(pts, [({0, 1}, 1.0), ({2, 3}, 0.5)])
    F = power_law(3).with_a(0.2)
    normF, ca = decay_constants(G, F)
    brute = max(sum(F.f(G.d[x, y]) for y in range(G.n)) for x in range(G.n))
    checks.append(("decay_constants",
                   abs(normF - brute) if ca > 0 else np.inf, 1e-12))

    # kappa = integral 0.25 w^2 e^(-w^2/2) / sqrt(2 pi) dw: the integrand
    # is smooth with Gaussian tails, so a uniform-grid sum converges fast
    w = np.arange(-128, 129) / 8.0  # step 1/8 on [-16, 16]
    density = 0.25 * w * w * np.exp(-w * w / 2.0) / np.sqrt(2.0 * np.pi)
    kap = kappa_V(PerturbationSpec.gaussian(0.25))
    checks.append(("kappa_gaussian", abs(kap - np.sum(density) / 8.0), 1e-8))

    # Fock oracle vs the exact formula on a 2-site ring, whose sites are
    # those of the L = 1 torus, (0,) and (1,), in order
    lat2 = TorusLattice(1, 1)
    fv2 = np.array([0.6, 0.0], complex)
    gv2 = np.array([0.0, 0.9j])
    exact = commutator_norm_exact(WeylFunction(lat2, fv2),
                                  WeylFunction(lat2, gv2), 0.3, couplings=c)
    brute2 = fsim.FockSystem(2, 16, c).commutator_norm(fv2, gv2, 0.3,
                                                       n_low=4)
    checks.append(("fock_oracle", abs(exact - brute2), 1e-2))

    # Gaussian ground state vs Fock ground state
    cov = ground_covariance(lat2, c)
    sys30 = fsim.FockSystem(2, 30, c)
    _, psi0 = sys30.ground_state()
    h = np.array([0.5 + 0.2j, 0.0])
    gexp = weyl_expectation(cov, WeylFunction(lat2, h))
    bexp = float(np.vdot(psi0, sys30.apply_weyl(sys30.weyl_local_factors(h),
                                                psi0)).real)
    checks.append(("gaussian_ground_state", abs(gexp - bexp), 1e-6))

    # err < tol passes; a zero tol bounds a signed excess, which passes at 0
    names, errs, tols = zip(*checks)
    passed = [int(e <= 0.0 if t == 0.0 else e < t) for e, t in zip(errs, tols)]
    write_csv(os.path.join(outdir, "verify.csv"),
              {"check": names, "passed": passed, "err": errs, "tol": tols})
    width = max(map(len, names))
    for name, ok, err, tol in zip(names, passed, errs, tols):
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  "
              f"err={err:.3e} tol={tol:.3e}")
    if not all(passed):
        raise ConvergenceError("verification battery failed")
    return EXIT_OK


# ---------------------------------------------------------------- main

def _usage_error(message: str):
    raise ScenarioError(message)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticebounds",
        description="Propagation bounds and exact dynamics for harmonic "
                    "and anharmonic lattices")
    parser.add_argument("command", choices=sorted([*SCHEMAS, "verify"]))
    parser.add_argument("--config", help="scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the random draws of verify")
    parser.add_argument("--threads", type=int, default=None)
    parser.error = _usage_error  # exit 1 with one line, not argparse's 2
    try:
        args = parser.parse_args(argv)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    from numpy.linalg import LinAlgError

    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "verify":
            if args.config is not None:
                raise ScenarioError("verify takes no --config")
            return cmd_verify(args.out, args.seed)
        if args.seed is not None:
            raise ScenarioError("--seed is for verify only")
        if args.config is None:
            raise ScenarioError("--config is required")
        # through the module globals, where a tracer can swap the handler
        return globals()[f"cmd_{args.command}"](
            load_scenario(args.config, args.command), args.out)
    # LinAlgError subclasses ValueError, so it is matched first
    except (ConvergenceError, RuntimeError, LinAlgError) as e:
        print(f"numerical failure: {args.command}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ScenarioError, ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
