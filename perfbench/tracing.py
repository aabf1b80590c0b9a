"""Spans around kamlab's public functions, installed and removed at run time.

The wrappers go into every module namespace that binds the wrapped object
(`measure_scan`, `cli` and `torus_solver` import functions by name, so
patching only the defining module would miss those calls) and onto the
classes for methods.  Each call made while an operation is being timed
records a span: name, layer, start, end, parent and pass id.  Field
evaluations on `CompiledSeries` run tens of thousands of times per pass, so
they are not spans: each adds to a count and a total time on the span that
made it.

A layer's self time is its spans' time minus the time their child spans and
field evaluations cover; field evaluation time belongs to `fourier_taylor`.
Whatever part of a timed operation no span covers is the benchmark's own
(`bench`), so the layers' self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("freq_arith", "fourier_taylor", "normal_form", "torus_solver",
          "measure_scan", "cli")

# span fields
NAME, LAYER, START, END, PARENT, PASS, PT_N, PT_T, BT_N, BT_PTS, BT_T, INFO = range(12)

_FUNCTIONS = {
    "freq_arith": ("psi", "psi_table", "delta", "check_delta_invariant", "mu_nu",
                   "diophantine_check", "make_test_frequency"),
    "fourier_taylor": ("quadratic_from_matrices", "averaged_quadratic_matrix",
                       "check_kolmogorov", "integrate_flow"),
    "normal_form": ("solve_homological", "lie_transform", "one_step_normal_form",
                    "verify_homological", "verify_estimates", "prepare_time_scaled"),
    "torus_solver": ("certify_target", "solve_torus", "invariance_defect",
                     "lagrangian_defect", "verify_by_integration", "pull_back"),
    "measure_scan": ("ball_samples", "scan_epsilon", "run_plan", "fit_scaling",
                     "gevrey_forecast"),
}

_METHODS = {
    "freq_arith": {"FrequencyVector": ("__init__", "from_record", "to_record"),
                   "_DivisorTable": ("ensure",)},
    "fourier_taylor": {
        "CompiledSeries": ("__init__",),
        "FourierTaylorSeries": ("product", "poisson", "_binary", "scale", "prune",
                                "dtheta", "dI", "average", "oscillating",
                                "truncate_harmonics", "high_harmonics",
                                "action_slice", "coefficient_norm",
                                "reality_error", "from_record", "to_record"),
        "HamiltonianSpec": ("rescale_actions", "rescale_time", "perturbation",
                            "linear_series", "combined_series", "evaluate",
                            "from_record", "to_record")},
    "normal_form": {"NormalFormResult": ("flow_generator", "to_record")},
    "torus_solver": {"TorusEmbedding": ("embed", "grid_points", "to_record",
                                        "from_record")},
    "measure_scan": {"ScanPlan": ("from_record", "to_record"),
                     "MeasureReport": ("to_record", "from_record")},
}

_POINT_EVALS = ("value", "grad_theta", "grad_I", "canonical_field", "hess_II")
_BATCH_EVALS = ("batch_value", "batch_grad_theta", "batch_grad_I", "batch_hess_II")

# what a span keeps from its call, for the per-layer counters
_INFO = {
    "normal_form.one_step_normal_form": lambda a, kw, out: out.lie_order,
    "torus_solver.solve_torus": lambda a, kw, out: out.diagnostics["iterations"],
    "torus_solver.verify_by_integration":
        lambda a, kw, out: out["n_points"] * out["t_final"],
    "measure_scan.scan_epsilon": lambda a, kw, out: (out.samples, out.converged),
}

_SKIP = {
    # a table that is already deep enough does no work; no span
    "freq_arith._DivisorTable.ensure": lambda a, kw: a[1] <= a[0].q_built,
}


class Tracer:
    """Records spans while `active`; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.pass_id = -1
        self.active = False
        self._patches: list = []
        self._in_eval = False

    def _new(self, name, layer, parent):
        return [name, layer, 0.0, 0.0, parent, self.pass_id, 0, 0.0, 0, 0, 0.0, None]

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        span = self._new(name, layer, self.stack[-1] if self.stack else None)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        info = _INFO.get(name)
        skip = _SKIP.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (skip is not None and skip(args, kwargs)):
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out
        return traced

    def _wrap_eval(self, fn, batch: bool):
        tracer = self

        @functools.wraps(fn)
        def evaluated(comp, theta, I):
            if not tracer.active or tracer._in_eval or not tracer.stack:
                return fn(comp, theta, I)
            tracer._in_eval = True
            t0 = perf_counter()
            try:
                return fn(comp, theta, I)
            finally:
                dt = perf_counter() - t0
                tracer._in_eval = False
                owner = tracer.spans[tracer.stack[-1]]
                if batch:
                    owner[BT_N] += 1
                    owner[BT_PTS] += theta.shape[0]
                    owner[BT_T] += dt
                else:
                    owner[PT_N] += 1
                    owner[PT_T] += dt
        return evaluated

    # -- patching --------------------------------------------------------------

    def install(self, kamlab) -> None:
        modules = [kamlab] + [sys.modules[f"kamlab.{m}"] for m in LAYERS
                              if f"kamlab.{m}" in sys.modules]
        for layer, names in _FUNCTIONS.items():
            mod = sys.modules[f"kamlab.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(orig, f"{layer}.{fname}", layer)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        for layer, classes in _METHODS.items():
            mod = sys.modules[f"kamlab.{layer}"]
            for cname, mnames in classes.items():
                cls = getattr(mod, cname)
                for mname in mnames:
                    self._patch_method(cls, mname,
                                       f"{layer}.{cname}.{mname}", layer)
        comp = kamlab.fourier_taylor.CompiledSeries
        for mname in _POINT_EVALS + _BATCH_EVALS:
            raw = comp.__dict__[mname]
            self._patches.append((comp, mname, raw))
            setattr(comp, mname, self._wrap_eval(raw, mname in _BATCH_EVALS))

    def _patch_method(self, cls, mname: str, name: str, layer: str) -> None:
        raw = cls.__dict__[mname]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, layer))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name, layer))
        else:
            new = self._wrap(raw, name, layer)
        self._patches.append((cls, mname, raw))
        setattr(cls, mname, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span, in the order the spans opened."""
        keys = ("name", "layer", "start", "end", "parent", "pass", "point_evals",
                "point_eval_s", "batch_evals", "batch_points", "batch_eval_s")
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(zip(keys, span[:INFO]))
                if span[INFO] is not None:
                    row["info"] = span[INFO]
                fh.write(json.dumps(row) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_profile(spans: list, pass_id: int, wall: float) -> dict:
    """Per-layer metrics of one traced pass from its spans."""
    mine = [(i, s) for i, s in enumerate(spans) if s[PASS] == pass_id]
    child_time: dict = {}
    for i, s in mine:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    self_time = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    evals = {"pt_n": 0, "pt_t": 0.0, "bt_n": 0, "bt_pts": 0, "bt_t": 0.0}
    by_name: dict = {}
    for i, s in mine:
        dur = s[END] - s[START]
        own = dur - child_time.get(i, 0.0) - s[PT_T] - s[BT_T]
        self_time[s[LAYER]] += own
        if s[PARENT] is None:
            top += dur
        evals["pt_n"] += s[PT_N]
        evals["pt_t"] += s[PT_T]
        evals["bt_n"] += s[BT_N]
        evals["bt_pts"] += s[BT_PTS]
        evals["bt_t"] += s[BT_T]
        by_name.setdefault(s[NAME], []).append((i, s, dur, own))
    self_time["fourier_taylor"] += evals["pt_t"] + evals["bt_t"]

    def total(name, field=2):
        return sum((entry[field] for entry in by_name.get(name, ())), 0.0)

    def count(name):
        return len(by_name.get(name, ()))

    def infos(name):
        return [entry[1][INFO] for entry in by_name.get(name, ())
                if entry[1][INFO] is not None]

    m: dict = {f"{layer}.self_s": self_time[layer] for layer in LAYERS}
    m["bench.self_s"] = wall - top

    # freq_arith
    arith_public = [f"freq_arith.{f}" for f in _FUNCTIONS["freq_arith"]]
    m["freq_arith.calls"] = sum(count(n) for n in arith_public)
    delta_names = ("freq_arith.delta", "freq_arith.mu_nu")
    m["freq_arith.delta_s"] = sum(
        dur for n in delta_names for (_, s, dur, _) in by_name.get(n, ())
        if s[PARENT] is None or spans[s[PARENT]][NAME] not in delta_names)

    # fourier_taylor
    m["fourier_taylor.compiles"] = count("fourier_taylor.CompiledSeries.__init__")
    m["fourier_taylor.compile_s"] = total("fourier_taylor.CompiledSeries.__init__")
    m["fourier_taylor.point_evals"] = evals["pt_n"]
    m["fourier_taylor.point_eval_us"] = (
        1e6 * evals["pt_t"] / evals["pt_n"] if evals["pt_n"] else 0.0)
    m["fourier_taylor.batch_evals"] = evals["bt_n"]
    m["fourier_taylor.batch_eval_ns_per_point"] = (
        1e9 * evals["bt_t"] / evals["bt_pts"] if evals["bt_pts"] else 0.0)
    m["fourier_taylor.flow_s"] = total("fourier_taylor.integrate_flow", 3)
    m["fourier_taylor.algebra_s"] = sum(
        own for name, entries in by_name.items()
        if name.startswith("fourier_taylor.")
        and name not in ("fourier_taylor.CompiledSeries.__init__",
                         "fourier_taylor.integrate_flow")
        for (_, _, _, own) in entries)

    # normal_form
    m["normal_form.step_s"] = total("normal_form.one_step_normal_form")
    m["normal_form.steps"] = count("normal_form.one_step_normal_form")
    orders = infos("normal_form.one_step_normal_form")
    m["normal_form.lie_order"] = sum(orders) / len(orders) if orders else 0.0
    m["normal_form.verify_s"] = total("normal_form.verify_estimates")

    # torus_solver
    m["torus_solver.certify_s"] = total("torus_solver.certify_target")
    m["torus_solver.certifies"] = count("torus_solver.certify_target")
    m["torus_solver.solve_s"] = total("torus_solver.solve_torus")
    m["torus_solver.solves"] = count("torus_solver.solve_torus")
    m["torus_solver.newton_sweeps"] = sum(infos("torus_solver.solve_torus"))
    m["torus_solver.verify_s"] = verify_s = total("torus_solver.verify_by_integration")
    periods = sum(infos("torus_solver.verify_by_integration"))
    m["torus_solver.verify_periods_per_s"] = periods / verify_s if verify_s else 0.0
    m["torus_solver.pullback_s"] = total("torus_solver.pull_back")

    # measure_scan
    slices = by_name.get("measure_scan.scan_epsilon", ())
    m["measure_scan.slice_s"] = _median([dur for (_, _, dur, _) in slices])
    samples = sum(s[INFO][0] for (_, s, _, _) in slices if s[INFO])
    converged = sum(s[INFO][1] for (_, s, _, _) in slices if s[INFO])
    slice_ids = {i for (i, _, _, _) in slices}
    attempts = sum(1 for (_, s, _, _) in by_name.get("torus_solver.solve_torus", ())
                   if s[PARENT] in slice_ids)
    m["measure_scan.samples"] = samples
    m["measure_scan.converged"] = converged
    m["measure_scan.converged_ratio"] = converged / samples if samples else 0.0
    m["measure_scan.newton_yield"] = converged / attempts if attempts else 0.0

    # cli: one span per command invocation, opened by the workload
    for cmd in ("freq", "nf", "torus", "scan", "probe", "error"):
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    return m
