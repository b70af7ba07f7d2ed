"""Span tracing of the library's public functions, installed from outside.

Every traced function is replaced, in every `latticebounds` namespace that
holds the same object (module globals and module-level dicts such as the
CLI's handler table), by a wrapper that records a span: name, start, end,
parent span and scenario id.  Methods are wrapped on their class and a
class name stands for its construction (`__init__`).  Spans stay in memory
until the caller collects them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (module, attribute path) pairs; the metric prefix is "<module>.<path>"
TARGETS = (
    [("cli", f"cmd_{k}") for k in ("kernels", "evolve", "commutator",
                                   "lightcone", "genbound", "anharm",
                                   "focksim", "clustering", "verify")]
    + [("cli", "load_scenario"), ("cli", "write_csv"), ("cli", "write_svg"),
       ("torus", "TorusLattice"), ("torus", "TorusLattice.index"),
       ("torus", "TorusLattice.distance"),
       ("torus", "TorusLattice.distances_from"),
       ("kernels", "compute_H"), ("kernels", "compute_h"),
       ("weyl", "WeylFunction"), ("weyl", "evolve"),
       ("weyl", "commutator_norm_exact"), ("weyl", "harmonic_bound_rhs"),
       ("weyl", "support_distance"),
       ("lightcone", "extract_front"), ("lightcone", "mu_star"),
       ("genbounds", "InteractionGraph"), ("genbounds", "decay_constants"),
       ("genbounds", "interaction_norm"), ("genbounds", "theorem_phi_bound"),
       ("genbounds", "power_law_zeta"),
       ("anharmonic", "kappa_V"), ("anharmonic", "anharm_constants"),
       ("anharmonic", "anharm_bound_rhs"),
       ("clustering", "ground_covariance"),
       ("clustering", "weyl_expectation"),
       ("clustering", "weyl_correlation"), ("clustering", "clustering_fit"),
       ("focksim", "FockSystem"), ("focksim", "FockSystem.hamiltonian"),
       ("focksim", "FockSystem.eigensystem"),
       ("focksim", "FockSystem.low_energy_basis"),
       ("focksim", "FockSystem.apply_h"), ("focksim", "FockSystem.propagate"),
       ("focksim", "FockSystem.commutator_norm"),
       ("focksim", "commutator_front"), ("focksim", "truncation_gate"),
       ("focksim", "eigsh"), ("focksim", "expm_multiply")])

FFT = "fft"
CMD_PREFIX = "cli.cmd_"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for mod, path in TARGETS:
        name = f"{mod}.{path}"
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name.startswith(CMD_PREFIX):
            out.append((name + ".s", "s"))
    out += [("cli.write_csv.bytes", "bytes"), ("cli.write_svg.bytes", "bytes"),
            ("cli.exit_nonzero.calls", "count"),
            (FFT + ".calls", "count"), (FFT + ".points", "count"),
            (FFT + ".self_s", "s"),
            ("focksim.FockSystem.apply_h.cols", "count"),
            ("focksim.FockSystem.commutator_norm.unique_ratio", "ratio"),
            ("trace.overhead_s", "s")]
    return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    spans is a list of (name, start, end, parent index, scenario); child
    intervals are clipped to the parent and merged before subtraction.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def closure_residual(spans, selfs) -> float:
    """Largest |sum of self times under a root span - root duration| over
    all root spans; zero when every child lies inside its parent."""
    root_of = []
    for _, _, _, parent, _ in spans:
        root_of.append(len(root_of) if parent < 0 else root_of[parent])
    total: dict[int, float] = {}
    for i, s in enumerate(selfs):
        total[root_of[i]] = total.get(root_of[i], 0.0) + s
    return max((abs(total[r] - (spans[r][2] - spans[r][1])) for r in total),
               default=0.0)


class Tracer:
    """Installs the wrappers, collects spans and the extra counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scenario: str | None = None
        self.counters: Counter = Counter()
        self.norm_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0,
                          stack[-1] if stack else -1, self.scenario])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, obj, new):
        """Swap obj for new in every latticebounds namespace holding it."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("latticebounds") or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is obj:
                    self._replace(mod, key, new)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is obj:
                            self._undo.append((val, k, v))
                            val[k] = new

    # -- extra counters ------------------------------------------------

    def _bytes_after(self, key):
        def after(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.counters[key] += os.path.getsize(path)
        return after

    def _apply_h_after(self, args, kwargs, result):
        v = args[1]
        self.counters["focksim.FockSystem.apply_h.cols"] += (
            1 if v.ndim == 1 else v.shape[1])

    def _norm_after(self, args, kwargs, result):
        import numpy as np
        sys_, f, g, t = args[:4]
        n_low = args[4] if len(args) > 4 else kwargs.get("n_low", 20)
        pert = sys_.perturbation
        self.norm_keys.add((sys_.n_sites, sys_.trunc, sys_.couplings,
                            sys_.geometry, pert.name, pert.tag,
                            np.asarray(f, complex).tobytes(),
                            np.asarray(g, complex).tobytes(), float(t),
                            int(n_low)))

    # -- install / remove ------------------------------------------------

    def install(self):
        import importlib
        import numpy as np
        after = {"cli.write_csv": self._bytes_after("cli.write_csv.bytes"),
                 "cli.write_svg": self._bytes_after("cli.write_svg.bytes"),
                 "focksim.FockSystem.apply_h": self._apply_h_after,
                 "focksim.FockSystem.commutator_norm": self._norm_after}
        for mod, path in TARGETS:
            module = importlib.import_module(f"latticebounds.{mod}")
            name = f"{mod}.{path}"
            head, _, meth = path.partition(".")
            obj = getattr(module, head)
            if meth:
                self._replace(obj, meth, self._wrap(name, getattr(obj, meth),
                                                    after.get(name)))
            elif isinstance(obj, type):
                self._replace(obj, "__init__",
                              self._wrap(name, obj.__init__))
            else:
                self._replace_everywhere(obj, self._wrap(name, obj,
                                                         after.get(name)))
        for fname in ("fftn", "ifftn"):
            self._replace(np.fft, fname, self._fft_wrapper(getattr(np.fft,
                                                                   fname)))

    def _fft_wrapper(self, fn):
        traced = self._wrap(FFT, fn)

        @functools.wraps(fn)
        def dispatch(a, *args, **kwargs):
            # count only calls made from library code
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("latticebounds"):
                return fn(a, *args, **kwargs)
            self.counters[FFT + ".points"] += int(getattr(a, "size", 0))
            return traced(a, *args, **kwargs)
        return dispatch

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.norm_keys.clear()

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, exit_nonzero: int) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since reset."""
        selfs = self_times(self.spans)
        out = {name: 0.0 for name, _ in metric_names()}
        for (name, start, end, _, _), s in zip(self.spans, selfs):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += s
            if name.startswith(CMD_PREFIX):
                out[name + ".s"] += end - start
        for key, val in self.counters.items():
            out[key] = float(val)
        out["cli.exit_nonzero.calls"] = float(exit_nonzero)
        calls = out["focksim.FockSystem.commutator_norm.calls"]
        out["focksim.FockSystem.commutator_norm.unique_ratio"] = (
            len(self.norm_keys) / calls if calls else 0.0)
        return out
