"""The four workloads: inputs built from the seed, one pass of operations,
and the check each operation's output must pass.

A pass rebuilds every input from its record, as a real run of a user does,
so divisor tables and compiled evaluators cached on the objects are paid
for in every pass.  Only the kamlab calls are timed; checks run between
them, untimed, against reference.py.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference as ref
from checks import require

# the gate family: golden omega, A0 plus a (1,0)-modulation B, and 0.05 I1^3
A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B = np.array([[0.3, 0.1], [0.1, 0.2]])
SCAN_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def family(K, eps: float, golden):
    quad = K.quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = K.FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    return K.HamiltonianSpec(omega=golden.components, quad=quad, rest=rest,
                             epsilon=eps, state="physical")


def record_floats(strings) -> np.ndarray:
    return np.array([float(s) for s in strings], dtype=np.float64)


def record_fraction(rec: dict) -> Fraction:
    """The exact rational tag of a frequency record."""
    def as_int(s: str) -> int:
        return int(s, 16) if s.startswith(("0x", "-0x")) else int(s)
    ex = rec["exact_rational"]
    return Fraction(as_int(ex["num"]), as_int(ex["den"]))


def need(*values):
    """Inputs produced by earlier operations of the pass; a missing one fails
    the operation that needs it."""
    if any(v is None for v in values):
        raise RuntimeError("an earlier operation of this pass failed")
    return values[0] if len(values) == 1 else values


class Pass:
    """One round of operations.  Times the kamlab calls, runs each check
    untimed, and counts what was attempted and what failed."""

    def __init__(self, index: int, tracer=None):
        self.index = index
        self.tracer = tracer
        self.seconds = 0.0
        self.attempted = 0
        self.failures: list = []
        self.timings: dict = {}
        self.stats: dict = {}

    def op(self, name: str, call, check=None):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:    # a failing operation is counted, the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        self.seconds += dt
        self.timings[name] = self.timings.get(name, 0.0) + dt
        if error is None and check is not None:
            try:
                check(out)
            except Exception as exc:    # CheckFailed, or output missing a field
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append((name, error))
            return None
        return out

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around a whole CLI command."""
        if self.tracer is None:
            yield
            return
        span = self.tracer.open(name, layer)
        try:
            yield
        finally:
            self.tracer.close(span)


class Workload:
    name = ""
    known_faults: frozenset = frozenset()

    def __init__(self, kamlab, seed: int, run_dir: Path):
        self.K = kamlab
        self.seed = seed
        self.run_dir = run_dir
        self.records: dict = {}

    def build_records(self) -> dict:
        """The inputs, as records (set-up; uses kamlab only to serialize)."""
        raise NotImplementedError

    def prepare(self, records: dict) -> None:
        """Reference values for the checks; untimed, once per run."""
        self.records = records

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def summary(self, passes: list) -> dict:
        """Workload-level figures from untraced passes: name -> (value, unit)."""
        return {}


# ---------------------------------------------------------------------------
# arith-depth
# ---------------------------------------------------------------------------

class ArithDepth(Workload):
    name = "arith-depth"
    EPS = tuple(float(e) for e in np.geomspace(1e-1, 3e-7, 12))
    GAMMA, TAU = 0.2, 1.5
    Q_N2, Q_N3, Q_ENUM, Q_CF = 2000, 200, 2000, 10 ** 6

    def build_records(self):
        K = self.K
        rng = np.random.default_rng(self.seed)
        a = rng.uniform(0.1, 0.9)
        b, c = rng.uniform(0.1, 0.9, size=2)
        return {
            "golden": K.make_test_frequency("golden").to_record(),
            "n2": K.FrequencyVector([1.0, a]).to_record(),
            "n3": K.FrequencyVector([1.0, b, c]).to_record(),
            "liouville_constant": K.make_test_frequency("liouville_constant").to_record(),
            "liouville": K.make_test_frequency("liouville").to_record(),
        }

    def prepare(self, records):
        super().prepare(records)
        self.w_golden = record_floats(records["golden"]["components"])
        self.curve_golden = ref.min_divisor_curve_n2(self.w_golden, 4096)
        self.curve_n2 = ref.min_divisor_curve_n2(
            record_floats(records["n2"]["components"]), self.Q_N2)
        self.curve_n3 = ref.min_divisor_curve_ball(
            record_floats(records["n3"]["components"]), self.Q_N3)
        self.alpha_lc = record_fraction(records["liouville_constant"])
        self.dioph = {q: ref.dioph_min_exact_n2(self.alpha_lc, self.TAU, q)[0]
                      for q in (self.Q_ENUM, self.Q_CF)}
        self.alpha_liou = record_fraction(records["liouville"])
        self.liou_eps = [e["eps"] for e in
                         records["liouville"]["construction"]["scale_sequence"]
                         if "eps" in e]

    def run_pass(self, p):
        K, recs = self.K, self.records
        golden = p.op("golden.from_record",
                      lambda: K.FrequencyVector.from_record(recs["golden"]),
                      lambda v: require(np.array_equal(v.components, self.w_golden),
                                        "golden components changed"))
        for eps in self.EPS:
            p.op(f"mu_nu(golden, {eps:.3g})", lambda e=eps: K.mu_nu(need(golden), e),
                 lambda prof, e=eps: checks.delta_matches(prof.Delta, prof.mu, 1.0 / e,
                                                          self.curve_golden))
        for key, Q, curve in (("n2", self.Q_N2, self.curve_n2),
                              ("n3", self.Q_N3, self.curve_n3)):
            def table(rec=recs[key], Q=Q):
                return K.psi_table(K.FrequencyVector.from_record(rec), Q)

            def check(rows, Q=Q, curve=curve):
                require(len(rows) == Q, f"{len(rows)} rows for Q={Q}")
                checks.psi_bitwise([r.psi for r in rows], [r.min_divisor for r in rows],
                                   curve)
            p.op(f"psi_table({key}, {Q})", table, check)
        lc = p.op("liouville_constant.from_record",
                  lambda: K.FrequencyVector.from_record(recs["liouville_constant"]),
                  lambda v: require(v.exact.alpha == self.alpha_lc, "exact tag changed"))
        for method, q in (("enumerate", self.Q_ENUM), ("cf", self.Q_CF)):
            def check(report, m=method, q=q):
                require(report.method == m, f"method {report.method}, asked for {m}")
                checks.dioph_matches(report, self.alpha_lc, self.dioph[q],
                                     self.GAMMA, self.TAU)
            p.op(f"diophantine_check({method}, {q})",
                 lambda m=method, q=q: K.diophantine_check(need(lc), self.GAMMA, self.TAU,
                                                           q, method=m),
                 check)
        liou = p.op("liouville.from_record",
                    lambda: K.FrequencyVector.from_record(recs["liouville"]),
                    lambda v: require(v.exact.alpha == self.alpha_liou, "exact tag changed"))
        for eps in self.liou_eps:
            p.op(f"mu_nu(liouville, {eps:.3g})", lambda e=eps: K.mu_nu(need(liou), e),
                 lambda prof, e=eps: checks.exact_delta_matches(
                     prof.Delta, prof.mu, self.alpha_liou, Fraction(1) / Fraction(e)))


# ---------------------------------------------------------------------------
# scan-golden
# ---------------------------------------------------------------------------

class ScanGolden(Workload):
    name = "scan-golden"
    DENSITY, GRID = 96, 16

    def build_records(self):
        K = self.K
        golden = K.make_test_frequency("golden")
        plan = K.ScanPlan(base=family(K, 1.0, golden), freq=golden, epsilons=SCAN_EPS,
                          density=self.DENSITY, grid=self.GRID)
        return {"plan": plan.to_record()}

    def prepare(self, records):
        super().prepare(records)
        plan = records["plan"]
        self.w = record_floats(plan["freq"]["components"])
        curve = ref.min_divisor_curve_n2(self.w, 4096)
        self.deltas = {e: ref.delta_from_curve(curve, plan["c"] / e) for e in SCAN_EPS}
        self.points = ref.halton_ball(2, plan["density"])
        self.first = None

    def _check_reports(self, reports):
        recs = [r.to_record() for r in reports]
        require([r["epsilon"] for r in recs] == list(SCAN_EPS), "slices out of order")
        for r in recs:
            checks.scan_slice(r, self.points, self.deltas[r["epsilon"]])
        if self.first is None:
            self.first = recs
        require(recs == self.first, "slice records differ from the first pass")

    def run_pass(self, p):
        K = self.K
        plan = p.op("ScanPlan.from_record",
                    lambda: K.ScanPlan.from_record(self.records["plan"]),
                    lambda pl: require(np.array_equal(pl.freq.components, self.w)
                                       and pl.density == self.DENSITY,
                                       "plan does not round-trip"))
        reports = p.op("run_plan", lambda: K.run_plan(need(plan)), self._check_reports)
        p.op("fit_scaling", lambda: K.fit_scaling(need(reports)),
             lambda fit: checks.scan_fit(fit.exponent, [r.mu for r in reports],
                                         [r.complement_fraction for r in reports]))
        if reports is not None:
            p.stats["samples"] = sum(r.samples for r in reports)

    def summary(self, passes):
        rates = [p.stats["samples"] / p.timings["run_plan"]
                 for p in passes if "samples" in p.stats]
        return {"scan_samples_per_s": (statistics.median(rates) if rates else 0.0,
                                       "samples/s")}


# ---------------------------------------------------------------------------
# torus-verify
# ---------------------------------------------------------------------------

class TorusVerify(Workload):
    name = "torus-verify"
    EPS, GRID, TOL = 1e-3, 64, 1e-11
    T_FINAL, POINTS = 100.0, 8
    TO_VERIFIED = ("prepare_time_scaled", "one_step_normal_form", "certify_target",
                   "solve_torus", "verify_by_integration")

    def build_records(self):
        K = self.K
        rng = np.random.default_rng(self.seed)
        golden = K.make_test_frequency("golden")
        # within 0.02 of the README action (0.3, -0.2), so |I| < 0.4: farther
        # out the DOP853 step count, and with it the pass time, varies by up
        # to 1.8x between seeds
        r, angle = 0.02 * math.sqrt(rng.uniform()), 2.0 * math.pi * rng.uniform()
        return {"spec": family(K, self.EPS, golden).to_record(),
                "freq": golden.to_record(),
                "I_target": [0.3 + r * math.cos(angle), -0.2 + r * math.sin(angle)],
                "probe_seed": int(rng.integers(2 ** 31))}

    def prepare(self, records):
        super().prepare(records)
        self.w = record_floats(records["freq"]["components"])
        curve = ref.min_divisor_curve_n2(self.w, 256)
        self.D = ref.delta_from_curve(curve, 1.0 / self.EPS)
        rng = np.random.default_rng(records["probe_seed"])
        self.probe_theta = rng.uniform(0.0, 1.0, size=(16, 2))
        self.probe_I = rng.uniform(-0.5, 0.5, size=(16, 2))

    def _check_nf(self, nf):
        require(nf.K == self.D and nf.mu == 1.0 / self.D,
                f"truncation K={nf.K}, brute-force Delta={self.D}")
        gen = ref.RecordSeries(nf.flow_generator().to_record())
        h_in = ref.RecordSeries(nf.spec_in.combined_series().to_record())
        h_out = ref.RecordSeries(nf.spec_out.combined_series().to_record())
        th, ac = ref.rk4_flow(gen, self.probe_theta, self.probe_I, 1.0, 16)
        # both sides are in the fast frame; eps converts to physical energy
        checks.within("H_in o Phi - H_out (physical units)",
                      self.EPS * h_in.value(th, ac),
                      self.EPS * h_out.value(self.probe_theta, self.probe_I), 1e-9)

    def _check_target(self, target, nf):
        avg = ref.RecordSeries(nf.spec_out.perturbation(include_extra=True).to_record())
        keep = np.all(avg.K == 0, axis=1)
        avg.K, avg.M, avg.c = avg.K[keep], avg.M[keep], avg.c[keep]
        shift, _ = avg.field(np.zeros((1, 2)), target.I0[None, :])
        checks.within("frequency-map shift", target.shift, shift[0],
                      1e-12 * max(1.0, float(np.max(np.abs(shift)))))
        require(np.array_equal(target.Omega, nf.spec_out.frequency_vector() + target.shift),
                "Omega is not base + shift")
        require(target.margin >= 1.0, f"certificate margin {target.margin}")

    def _check_torus(self, emb, nf):
        checks.newton_history(emb.diagnostics["newton_defects"], self.TOL)
        rec = emb.to_record()
        h_slow = ref.RecordSeries(nf.spec_out.combined_series(scale=self.EPS).to_record())
        phi0 = np.stack([(np.arange(self.POINTS) + 0.5) / self.POINTS,
                         (np.arange(self.POINTS) * 3 % self.POINTS + 0.25) / self.POINTS],
                        axis=1)
        th0, ac0 = ref.embed_from_record(rec, phi0)
        t = 1.0
        th, ac = ref.rk4_flow(h_slow, th0, ac0, t, 200)
        th_rot, ac_rot = ref.embed_from_record(rec, phi0 + t * emb.target.omega_slow)
        checks.within("trajectory angles vs rigid rotation", th, th_rot, 1e-8, on_torus=True)
        checks.within("trajectory actions vs rigid rotation", ac, ac_rot, 1e-8)

    def run_pass(self, p):
        K, recs = self.K, self.records

        def scaled():
            spec = K.HamiltonianSpec.from_record(recs["spec"])
            freq = K.FrequencyVector.from_record(recs["freq"])
            return K.prepare_time_scaled(spec), freq
        h3, freq = p.op("prepare_time_scaled", scaled,
                        lambda out: require(out[0].state == "time_scaled"
                                            and np.array_equal(out[0].omega, self.w)
                                            and out[0].omega_prefactor == 1.0 / self.EPS,
                                            "time-scaled spec is off")) or (None, None)
        nf = p.op("one_step_normal_form",
                  lambda: K.one_step_normal_form(*need(h3, freq)), self._check_nf)
        p.op("verify_estimates",
             lambda: K.verify_estimates(need(nf), seed=recs["probe_seed"]),
             lambda est: require(est["composition_error"] < 1e-9,
                                 f"composition error {est['composition_error']:.3e}"))
        I_target = np.array(recs["I_target"])
        target = p.op("certify_target",
                      lambda: K.certify_target(need(nf).spec_out, I_target),
                      lambda tg: self._check_target(tg, nf))
        emb = p.op("solve_torus",
                   lambda: K.solve_torus(need(nf).spec_out, need(target).I0, grid=self.GRID,
                                         tol=self.TOL, target=target),
                   lambda e: self._check_torus(e, nf))
        p.op("verify_by_integration",
             lambda: K.verify_by_integration(need(nf).spec_out, need(emb),
                                             t_final=self.T_FINAL, n_points=self.POINTS,
                                             method="dop853"),
             lambda rep: require(rep["max_deviation"] < 1e-6,
                                 f"max deviation {rep['max_deviation']:.3e}"))
        p.op("pull_back",
             lambda: K.pull_back(need(emb), physical_radius=1.0, nf=nf),
             lambda pb: require(pb.frame == "physical"
                                and pb.diagnostics["pullback_sup_action"] < 0.9,
                                "pulled-back torus left the physical domain"))

    def summary(self, passes):
        times = [sum(p.timings[n] for n in self.TO_VERIFIED) for p in passes
                 if not any(name in self.TO_VERIFIED for name, _ in p.failures)]
        return {"torus_to_verified_s": (statistics.median(times) if times else 0.0, "s")}


# ---------------------------------------------------------------------------
# cli-artifacts
# ---------------------------------------------------------------------------

class CliArtifacts(Workload):
    name = "cli-artifacts"
    # malformed inputs kamlab does not yet turn into an error record
    known_faults = frozenset({"nf --spec without quad", "freq --qmax 0"})

    def build_records(self):
        K = self.K
        golden = K.make_test_frequency("golden")
        spec = family(K, 1e-3, golden).to_record()
        plan = K.ScanPlan(base=family(K, 1.0, golden), freq=golden, epsilons=SCAN_EPS,
                          density=48, gevrey_alpha=1.0)
        return {"omega": {"name": "golden"}, "spec": spec, "plan": plan.to_record(),
                "spec_no_quad": {k: v for k, v in spec.items() if k != "quad"}}

    def prepare(self, records):
        super().prepare(records)
        from click.testing import CliRunner
        self.runner = CliRunner()
        inputs = self.run_dir / "inputs"
        inputs.mkdir(parents=True)
        self.files = {}
        for key, rec in records.items():
            self.files[key] = str(inputs / f"{key}.json")
            Path(self.files[key]).write_text(json.dumps(rec))
        self.curve = ref.min_divisor_curve_n2(record_floats(records["spec"]["omega"]), 4096)
        self.first: dict = {}
        f = self.files
        self.commands = [
            ("freq", ["freq", "--omega", f["omega"], "--qmax", "60", "--eps", "1e-2",
                      "--eps", "1e-3", "--alpha", "1.0"],
             {"psi_table.csv", "profile_table.csv"}, self._check_freq),
            ("nf", ["nf", "--spec", f["spec"]],
             {"normal_form.json", "estimates.json"}, self._check_nf),
            ("torus", ["torus", "--spec", f["spec"], "--i0", "0.3,-0.2", "--grid", "32",
                       "--t-final", "50"],
             {"torus.json", "torus_surface.csv", "verification.json"}, self._check_torus),
            ("scan", ["scan", "--plan", f["plan"]],
             {"scan_reports.csv", "scan_fit.json", "gevrey_forecast.csv"}, self._check_scan),
            ("probe", ["probe", "--spec", f["spec"], "--t", "20", "--h", "0.01",
                       "--points", "2"],
             {"probe_trajectories.csv", "probe_summary.json"}, self._check_probe),
        ]
        self.malformed = [
            ("nf --spec without quad", ["nf", "--spec", f["spec_no_quad"]]),
            ("freq --qmax 0", ["freq", "--omega", f["omega"], "--qmax", "0"]),
        ]

    @staticmethod
    def _files(out: Path) -> dict:
        if not out.is_dir():
            return {}
        return {q.name: q.read_bytes() for q in sorted(out.iterdir()) if q.is_file()}

    def _invoke(self, p, span, args, out: Path):
        with p.span(span, "cli"):
            res = self.runner.invoke(self.K.cli.main, args + ["--out", str(out)])
        return res.exit_code, out

    def _check_command(self, p, cmd, expected, specific, result):
        code, out = result
        files = self._files(out)
        checks.command_artifacts(cmd, code, files, expected)
        specific(files)
        self.first.setdefault(cmd, files)
        checks.identical(cmd, files, self.first[cmd])
        p.stats["artifacts"] = p.stats.get("artifacts", 0) + len(files)
        p.stats["artifact_bytes"] = (p.stats.get("artifact_bytes", 0)
                                     + sum(len(b) for b in files.values()))

    def _check_freq(self, files):
        checks.psi_csv(files["psi_table.csv"], self.curve)
        rows = [r.split(",") for r in files["profile_table.csv"].decode().splitlines()[2:]]
        for eps, D, mu, _nu in rows:
            checks.delta_matches(int(D), float(mu), 1.0 / float(eps), self.curve)

    def _check_nf(self, files):
        nf = json.loads(files["normal_form.json"])
        D = ref.delta_from_curve(self.curve, 1.0 / 1e-3)
        require(nf["K"] == D and nf["mu"] == 1.0 / D, f"K={nf['K']}, brute force {D}")
        est = json.loads(files["estimates.json"])
        require(est["composition_error"] < 1e-9,
                f"composition error {est['composition_error']:.3e}")

    def _check_torus(self, files):
        torus = json.loads(files["torus.json"])
        checks.newton_history(torus["diagnostics"]["newton_defects"], 1e-11)
        ver = json.loads(files["verification.json"])
        require(ver["max_deviation"] < 1e-6, f"max deviation {ver['max_deviation']:.3e}")

    def _check_scan(self, files):
        rows = [r.split(",") for r in files["scan_reports.csv"].decode().splitlines()[2:]]
        require(len(rows) == len(SCAN_EPS), f"{len(rows)} scan rows")
        for eps, mu, _g, _t, samples, selected, converged, cf, _w in rows:
            D = ref.delta_from_curve(self.curve, 1.0 / float(eps))
            require(float(mu) == 1.0 / D, f"eps={eps}: mu {mu} is not 1/{D}")
            s, sel, conv = int(samples), int(selected), int(converged)
            require(0 <= conv <= sel <= s and float(cf) == (s - conv) / s,
                    f"eps={eps}: counts {s}/{sel}/{conv} with fraction {cf}")
        forecast = [r.split(",") for r in
                    files["gevrey_forecast.csv"].decode().splitlines()[2:]]
        require(all(float(nu) <= float(mu) ** 2 for _e, mu, nu, _s, _p in forecast),
                "Gevrey forecast breaks nu <= mu^2")

    def _check_probe(self, files):
        summary = json.loads(files["probe_summary.json"])["trajectories"]
        require(len(summary) == 2, f"{len(summary)} probe trajectories")
        drift = max(t["energy_drift"] for t in summary)
        require(drift < 1e-8, f"midpoint energy drift {drift:.3e}")

    def run_pass(self, p):
        out = self.run_dir / f"pass{p.index}"
        for cmd, args, expected, specific in self.commands:
            p.op(cmd, lambda a=args, c=cmd: self._invoke(p, f"cli.{c}", a, out / c),
                 lambda res, c=cmd, e=expected, s=specific:
                     self._check_command(p, c, e, s, res))
        for i, (name, args) in enumerate(self.malformed):
            p.op(name, lambda a=args, i=i: self._invoke(p, "cli.error", a, out / f"bad{i}"),
                 lambda res, n=name: checks.error_record_only(n, res[0],
                                                              self._files(res[1])))
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ScanGolden, TorusVerify, ArithDepth, CliArtifacts)}
