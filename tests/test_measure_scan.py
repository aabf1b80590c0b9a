"""Measure scan: sampling determinism, selection accounting, scaling fits."""

import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from kamlab import freq_arith as fa
from kamlab import measure_scan as ms
from kamlab import torus_solver as ts
from kamlab.errors import (
    ConstructionFailed,
    GateFailed,
    InsufficientSpan,
    SmallDivisorBreakdown,
)
from kamlab.fourier_taylor import (
    CompiledSeries,
    FourierTaylorSeries,
    HamiltonianSpec,
    quadratic_from_matrices,
)
from kamlab.normal_form import one_step_normal_form, prepare_time_scaled

A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B = np.array([[0.3, 0.1], [0.1, 0.2]])


def family_base():
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    return HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quad, rest=rest, epsilon=1.0, state="physical")


def family_plan(**over):
    kwargs = dict(base=family_base(), freq=fa.make_test_frequency("golden"),
                  epsilons=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6), density=128)
    kwargs.update(over)
    return ms.ScanPlan(**kwargs)


@pytest.fixture(scope="module")
def sweep():
    plan = family_plan()
    return plan, ms.run_plan(plan)


def test_ball_samples_deterministic_and_inside():
    pts = ms.ball_samples(2, 200)
    assert pts.shape == (200, 2)
    assert np.max(np.linalg.norm(pts, axis=1)) < 1.0
    assert np.array_equal(pts, ms.ball_samples(2, 200))
    # a prefix of a longer draw is the same sequence
    assert np.array_equal(pts[:50], ms.ball_samples(2, 50))
    with pytest.raises(ValueError):
        ms.ball_samples(2, 0)


def _halton_ball(n, count):
    """The points as scipy's unscrambled Halton engine draws them, 256 at a
    time, kept inside the unit ball: the construction ball_samples replaced."""
    from scipy.stats import qmc
    engine = qmc.Halton(d=n, scramble=False)
    kept, total = [], 0
    while total < count:
        block = 2.0 * engine.random(256) - 1.0
        kept.append(block[np.linalg.norm(block, axis=1) < 1.0])
        total += kept[-1].shape[0]
    return np.concatenate(kept, axis=0)[:count]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 96, 5000])
def test_ball_samples_equal_scipy_halton(n, count):
    got, want = ms.ball_samples(n, count), _halton_ball(n, count)
    assert got.shape == want.shape == (count, n)
    assert got.tobytes() == want.tobytes()


def test_import_leaves_scipy_stats_and_integrate_unloaded(tmp_path):
    # kamlab uses no scipy module: importing it loads none, and with scipy
    # unimportable the torus command, its DOP853 verification included, and
    # a recorded dop853 flow still run
    spec = HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quadratic_from_matrices(2, A0, [((1, 0), B, None)]),
                           rest=FourierTaylorSeries.monomial(2, (3, 0), 0.05),
                           epsilon=1e-3, state="physical")
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_record()))
    imported = ("import sys, kamlab, kamlab.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    blocked = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from click.testing import CliRunner\n"
        "from kamlab import FourierTaylorSeries, cli, integrate_flow\n"
        "res = CliRunner().invoke(cli.main, ['torus', '--spec', 'spec.json', '--i0', "
        "'0.3,-0.2', '--grid', '16', '--t-final', '10', '--out', 'torus'])\n"
        "assert res.exit_code == 0, res.output\n"
        "flow = integrate_flow(FourierTaylorSeries.monomial(2, (2, 0), 0.5), "
        "np.zeros((2, 2)), np.ones((2, 2)), 1.0, 0.1, method='dop853', record_every=5)\n"
        "assert flow.times.tolist() == [0.0, 0.5, 1.0]\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(ms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for code, loaded in ((imported, "[]"), (blocked, "['scipy']")):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             timeout=120, capture_output=True, text=True,
                             cwd=tmp_path).stdout
        assert out.strip() == loaded
    assert sorted(p.name for p in (tmp_path / "torus").iterdir()) == [
        "torus.json", "torus_surface.csv", "verification.json"]


def _capture(monkeypatch, name):
    """Record the positional arguments and the result of every call of
    measure_scan.<name>."""
    calls = []
    fn = getattr(ms, name)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    monkeypatch.setattr(ms, name, recorded)
    return calls


def test_stacked_scan_equals_single_solves_on_every_slice(monkeypatch):
    calls = _capture(monkeypatch, "_solve_stack")
    plan = family_plan(density=32)
    reports = ms.run_plan(plan)
    assert len(calls) == len(reports)
    for ((spec, targets, actions, *_), outcomes), report in zip(calls, reports):
        assert len(outcomes) == report.selected > 0
        for target, I, out in zip(targets, actions, outcomes):
            emb = ts.solve_torus(spec, I, grid=plan.grid, tol=plan.tol,
                                 max_iter=plan.max_iter, target=target)
            assert out.error is None
            assert out.history == emb.diagnostics["newton_defects"]
            for got, want in ((out.u_hat, emb.u_hat), (out.v_hat, emb.v_hat),
                              (out.I0, emb.I0)):
                assert got.tobytes() == want.tobytes()
        assert report.detail["newton_sweeps"] == sum(len(o.history) for o in outcomes)


def test_blocked_slices_equal_one_block(monkeypatch):
    # gate-6 slices certified and solved 7 samples at a time: every report,
    # and every solved torus, as one block of the whole slice gives them
    plan = family_plan(density=192)
    calls = _capture(monkeypatch, "_solve_stack")
    whole = ms.run_plan(plan)
    tori = [o for _, outcomes in calls for o in outcomes]
    assert len(calls) == len(whole)
    calls.clear()
    monkeypatch.setattr(ms, "GRID_POINT_BUDGET", 7 * plan.grid ** plan.n)
    blocked = ms.run_plan(plan)
    assert len(calls) > 5 * len(blocked)
    assert [r.to_record() for r in blocked] == [r.to_record() for r in whole]
    got = [o for _, outcomes in calls for o in outcomes]
    assert len(got) == len(tori) == sum(r.selected for r in whole)
    for a, b in zip(got, tori):
        assert a.history == b.history and repr(a.error) == repr(b.error)
        for x, y in ((a.u_hat, b.u_hat), (a.v_hat, b.v_hat), (a.I0, b.I0)):
            assert x.tobytes() == y.tobytes()


def test_blocks_keep_a_dense_slice_within_the_row_budget(monkeypatch):
    # a stacked certification table holds 1056 divisors per sample to
    # q_max = 32 (grid 16); with room for 100 samples, the slice's 176 inside
    # samples are refused as one block and run as blocks of 64
    plan = family_plan(density=256)
    want = ms.scan_epsilon(plan, 1e-3)
    monkeypatch.setattr(fa, "ROW_BUDGET", 100 * 1056)
    monkeypatch.setattr(ms, "GRID_POINT_BUDGET", 10 ** 9)
    with pytest.raises(ConstructionFailed, match="row budget"):
        ms.scan_epsilon(plan, 1e-3)
    monkeypatch.setattr(ms, "GRID_POINT_BUDGET", 64 * plan.grid ** plan.n)
    got = ms.scan_epsilon(plan, 1e-3)
    assert got.selected > 100
    assert got.to_record() == want.to_record()


def test_batched_certification_equals_certify_target(monkeypatch):
    # the scan-golden slices: every gamma, margin and witness as the one
    # certificate per sample and a fresh divisor table per sample give them
    calls = _capture(monkeypatch, "_certify_stack")
    ms.run_plan(family_plan(density=96))
    rejected = []
    for (spec, actions, gamma, tau, grid), got in calls:
        q_max = 4 * (grid // 2)
        auto = [ts.certify_target(spec, I, tau=tau, grid=grid) for I in actions]
        floors, witnesses = fa._DivisorTable(
            np.stack([t.omega_slow for t in auto], axis=1)).floor(q_max, tau)
        rejected.append(0)
        for I, out, t, floor_s, k_s in zip(actions, got, auto, floors, witnesses):
            floor, k = fa._DivisorTable(t.omega_slow).floor(q_max, tau)
            assert (floor_s, k_s.tolist()) == (floor, k.tolist())
            assert t.gamma == 0.99 * floor
            try:
                want = ts.certify_target(spec, I, gamma=gamma, tau=tau, grid=grid)
            except SmallDivisorBreakdown as exc:
                assert isinstance(out, SmallDivisorBreakdown) and str(out) == str(exc)
                assert f"k={tuple(k.tolist())}: min |k.w| |k|^tau = {floor:.6e}" in str(out)
                rejected[-1] += 1
                continue
            assert (out.gamma, out.tau, out.q_max) == (want.gamma, want.tau, want.q_max)
            assert out.margin == want.margin == floor / gamma
            for name in ("I0", "Omega", "shift", "omega_slow"):
                assert getattr(out, name).tobytes() == getattr(want, name).tobytes()
    assert rejected == [5, 0, 0, 0, 0]


def test_newton_sweeps_frozen(sweep):
    # the sums of the per-sample sweep counts ("iterations") a scan solving
    # one torus at a time reported for these slices
    _, reports = sweep
    assert [r.detail["newton_sweeps"] for r in reports] == [184, 216, 204, 226, 240]


def test_sweep_counts_frozen(sweep):
    _, reports = sweep
    got = [(r.selected, r.converged, r.detail["margin_rejected"],
            r.detail["dioph_rejected"]) for r in reports]
    assert got == [(53, 53, 69, 6), (86, 86, 42, 0), (102, 102, 26, 0),
                   (113, 113, 15, 0), (120, 120, 8, 0)]
    assert reports[0].complement_fraction == 75 / 128
    assert reports[-1].complement_fraction == 8 / 128


def test_slice_compiles_independent_of_density(monkeypatch):
    # the perturbation and its angle average are compiled once per epsilon,
    # not once per sample
    built = []
    init = CompiledSeries.__init__

    def counting(self, series):
        built.append(len(series))
        init(self, series)

    monkeypatch.setattr(CompiledSeries, "__init__", counting)
    counts = []
    for density in (16, 64):
        built.clear()
        report = ms.scan_epsilon(family_plan(density=density), 1e-3)
        assert report.converged > 0
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_counting_identity_in_detail(sweep):
    _, reports = sweep
    for r in reports:
        d = r.detail
        assert r.samples == (d["margin_rejected"] + d["dioph_rejected"]
                             + d["newton_failed"] + r.converged)
        assert r.samples - r.selected == d["margin_rejected"] + d["dioph_rejected"]
        assert r.selected - r.converged == d["newton_failed"]
        assert r.complement_fraction == (r.samples - r.converged) / r.samples


def test_gamma_rule_enforced_not_fitted(sweep):
    plan, reports = sweep
    for r in reports:
        assert r.gamma_used == plan.gamma_coeff * math.sqrt(r.mu)
        assert r.tau_used == plan.tau


def test_complement_fraction_monotone_in_epsilon(sweep):
    _, reports = sweep
    cfs = [r.complement_fraction for r in reports]
    assert all(a > b for a, b in zip(cfs, cfs[1:]))


def test_scan_is_bit_reproducible(sweep):
    plan, reports = sweep
    again = ms.scan_epsilon(plan, 1e-3)
    ref = reports[1]
    for name in ("epsilon", "mu", "gamma_used", "tau_used", "samples",
                 "selected", "converged", "complement_fraction", "wall_time"):
        assert getattr(again, name) == getattr(ref, name)
    assert again.detail == ref.detail
    assert ref.wall_time == 0.0


def test_fit_scaling_on_family_sweep(sweep):
    _, reports = sweep
    fit = ms.fit_scaling(reports)
    assert fit.points == 5
    assert fit.exponent == pytest.approx(0.4730944136772692, rel=1e-10)
    assert 0.4 <= fit.exponent <= 0.6
    assert 0.0 < fit.c_low <= fit.c_high < math.inf
    assert fit.c_high / fit.c_low < 2.0


def test_integrable_converges_everywhere_selected():
    integ = HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                            quad=quadratic_from_matrices(2, A0, []),
                            rest=FourierTaylorSeries.zero(2),
                            epsilon=1.0, state="physical")
    plan = family_plan(base=integ, epsilons=(1e-3,), density=96)
    rep = ms.scan_epsilon(plan, 1e-3)
    assert rep.converged == rep.selected == 65
    assert rep.detail["newton_failed"] == 0
    # complement is purely the selection rejections
    assert rep.complement_fraction == (rep.samples - rep.selected) / rep.samples


def test_gamma_floor_rejects_every_certification():
    plan = family_plan(epsilons=(1e-3,), density=64, gamma_floor=0.9)
    rep = ms.scan_epsilon(plan, 1e-3)
    assert rep.gamma_used == 0.9
    assert rep.selected == 0 and rep.converged == 0
    assert rep.complement_fraction == 1.0
    # nothing uncertified ever reached the solver
    assert rep.detail["newton_failed"] == 0
    assert rep.detail["dioph_rejected"] == rep.samples - rep.detail["margin_rejected"]


def test_gates_reject_large_epsilon():
    plan = family_plan()
    with pytest.raises(GateFailed, match="mu"):
        ms.scan_epsilon(plan, 0.5)
    tight = family_plan(sqrt_mu_gate=0.2)
    with pytest.raises(GateFailed, match="sqrt"):
        ms.scan_epsilon(tight, 1e-2)


def test_plan_validation():
    with pytest.raises(ValueError, match="tau"):
        family_plan(tau=1.0)
    with pytest.raises(ValueError, match="physical"):
        from kamlab.normal_form import prepare_time_scaled
        family_plan(base=prepare_time_scaled(family_base()))
    with pytest.raises(ValueError, match="grid"):
        family_plan(grid=15)
    with pytest.raises(ValueError, match="density"):
        family_plan(density=0)
    with pytest.raises(ValueError, match="positive"):
        family_plan(epsilons=(1e-3, -1.0))
    with pytest.raises(ValueError, match="positive"):
        family_plan(margin_coeff=0.0)


def test_plan_refuses_a_freq_that_is_not_its_base_omega():
    # accepted, the plan failed in the first slice's normal form, after that
    # slice's divisor arithmetic had run
    with pytest.raises(ValueError, match="field 'base' has omega .* field 'freq'"):
        family_plan(freq=fa.make_test_frequency("diophantine"))
    rec = family_plan().to_record()
    rec["freq"] = fa.make_test_frequency("diophantine").to_record()
    with pytest.raises(ValueError, match="field 'freq'"):
        ms.ScanPlan.from_record(rec)


def test_report_validation():
    kwargs = dict(epsilon=1e-3, mu=0.03, gamma_used=0.08, tau_used=1.5,
                  samples=100, selected=80, converged=70,
                  complement_fraction=0.3)
    ms.MeasureReport(**kwargs)
    with pytest.raises(ValueError, match="counts"):
        ms.MeasureReport(**{**kwargs, "converged": 90})
    with pytest.raises(ValueError, match="inconsistent"):
        ms.MeasureReport(**{**kwargs, "complement_fraction": 0.25})
    with pytest.raises(ValueError, match="identity"):
        ms.MeasureReport(**kwargs, detail={"margin_rejected": 10,
                                           "dioph_rejected": 10,
                                           "newton_failed": 5})


def test_records_round_trip(sweep):
    plan, reports = sweep
    plan2 = ms.ScanPlan.from_record(plan.to_record())
    assert plan2.epsilons == plan.epsilons
    assert plan2.density == plan.density
    assert np.array_equal(plan2.base.omega, plan.base.omega)
    assert plan2.base.quad.terms() == plan.base.quad.terms()
    rep = reports[0]
    rep2 = ms.MeasureReport.from_record(rep.to_record())
    for name in ("epsilon", "mu", "gamma_used", "samples", "selected",
                 "converged", "complement_fraction", "wall_time", "nu"):
        assert getattr(rep2, name) == getattr(rep, name)
    assert rep2.detail == rep.detail
    with pytest.raises(ValueError):
        ms.MeasureReport.from_record({"record": "other"})
    with pytest.raises(ValueError):
        ms.ScanPlan.from_record({"record": "other"})

    # each record reads back to itself and holds the class's fields, in their
    # order, under their own names; a report's nu comes last, and only when set
    plan = family_plan(epsilons=(2e-3, 5e-4), density=64, gamma_coeff=0.4,
                       gamma_floor=1e-7, tau=1.75, margin_coeff=0.5, mu_gate=0.25,
                       sqrt_mu_gate=0.45, grid=8, tol=1e-9, max_iter=20, c=1.5,
                       gevrey_alpha=1.0, gevrey_c_bar=2.0, record_timings=True)
    assert all(getattr(plan, f.name) != f.default for f in fields(plan)
               if f.default is not MISSING)
    report = ms.MeasureReport(
        epsilon=1e-3, mu=0.03, gamma_used=0.08, tau_used=1.5, samples=100,
        selected=80, converged=70, complement_fraction=0.3, wall_time=0.25, nu=1e-9,
        detail={"margin_rejected": 10, "dioph_rejected": 10, "newton_failed": 10,
                "newton_sweeps": 400})
    target = ts.TargetFrequency(
        I0=np.array([0.3, -0.2]), Omega=np.array([1.0 / 3.0, -0.1]),
        shift=np.array([2.0 ** -40, 0.7]), omega_slow=np.array([1e-3 / 3.0, -1e-4]),
        gamma=0.01, tau=1.5, q_max=64, margin=1.25)
    fit = ms.FitResult(exponent=0.5, c_low=0.25, c_high=0.375, points=5)

    def names(obj):
        return ["record"] + [f.name for f in fields(obj)]

    for obj, keys in ((plan, names(plan)), (report, names(report)[:-2] + ["detail", "nu"]),
                      (rep, names(rep)[:-2] + ["detail"]), (target, names(target)),
                      (fit, names(fit))):
        rec = obj.to_record()
        assert list(rec) == keys
        assert type(obj).from_record(rec).to_record() == rec
    assert rep.nu is None
    # a field with a default may be left out; one without is missed by name
    rec = plan.to_record()
    del rec["density"], rec["epsilons"]
    with pytest.raises(KeyError, match="epsilons"):
        ms.ScanPlan.from_record(rec)
    rec["epsilons"] = [1e-3]
    assert ms.ScanPlan.from_record(rec).density == 512

    # every other record the program writes reads back to itself through the
    # same strict reader: the spec and series nested in normal_form.json,
    # torus.json in both frames, with its stamp, and frequency records, an
    # exact one included
    golden = fa.make_test_frequency("golden")
    nf = one_step_normal_form(prepare_time_scaled(replace(family_base(), epsilon=1e-3)), golden)
    nf_rec = json.loads(json.dumps(nf.to_record()))
    emb = ts.solve_torus(nf.spec_out, np.array([0.3, -0.2]), grid=8)
    written = [(HamiltonianSpec, nf_rec["spec_out"]), (FourierTaylorSeries, nf_rec["generator"]),
               (HamiltonianSpec, plan.base.to_record()), (fa.FrequencyVector, golden.to_record()),
               (fa.FrequencyVector, fa.make_test_frequency("liouville").to_record())]
    for torus in (emb, ts.pull_back(emb, physical_radius=1.0, nf=nf)):
        written.append((ts.TorusEmbedding, {**json.loads(json.dumps(torus.to_record())),
                                            "_meta": {"tool": "kamlab", "config": "0" * 16}}))
    assert nf_rec["spec_out"]["extra"] and written[-1][1]["frame"] == "physical"
    for cls, rec in written:
        assert cls.from_record(rec).to_record() == {k: v for k, v in rec.items() if k != "_meta"}

    # a key that is no field is refused by name, not read past; it used to be
    # dropped by the spec, series, frequency and torus readers, so a spec with
    # domain_radus 0.1 loaded with domain radius 1.0
    typos = {"scan_plan": "densty", "measure_report": "densty", "target_frequency": "gama",
             "fit_result": "pionts", "hamiltonian_spec": "domain_radus",
             "fourier_taylor_series": "trems", "frequency_vector": "q_chekced",
             "torus_embedding": "gird"}
    read = [(type(obj), obj.to_record()) for obj in (plan, report, target, fit)] + written
    for cls, rec in read:
        typo = typos[rec["record"]]
        with pytest.raises(ValueError, match=f"{rec['record']} record has no field '{typo}'"):
            cls.from_record({**rec, typo: 1})
    # so is a typo in a record nested in another
    with pytest.raises(ValueError, match="hamiltonian_spec record has no field 'domain_radus'"):
        ms.ScanPlan.from_record({**plan.to_record(),
                                 "base": {**plan.base.to_record(), "domain_radus": 0.1}})
    # and so is an n that its fields do not give: a spec or frequency record
    # with n 7 used to load as n = 2
    for cls, rec in ((HamiltonianSpec, nf_rec["spec_out"]),
                     (fa.FrequencyVector, golden.to_record())):
        with pytest.raises(ValueError, match=f"{rec['record']} record has n 7, "
                                             "but its fields give n = 2"):
            cls.from_record({**rec, "n": 7})


def synthetic_reports(coeff=0.3, samples=1000, ks=(10, 20, 40, 80, 160)):
    out = []
    for k in ks:
        cf = k / samples
        mu = (cf / coeff) ** 2
        out.append(ms.MeasureReport(
            epsilon=mu, mu=mu, gamma_used=0.5 * math.sqrt(mu), tau_used=1.5,
            samples=samples, selected=samples, converged=samples - k,
            complement_fraction=cf))
    return out


def test_fit_scaling_recovers_exact_power_law():
    fit = ms.fit_scaling(synthetic_reports())
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.c_low == pytest.approx(0.3, rel=1e-12)
    assert fit.c_high == pytest.approx(0.3, rel=1e-12)
    assert fit.points == 5
    rec = fit.to_record()
    assert rec["record"] == "fit_result" and rec["points"] == 5


def test_fit_scaling_span_guards():
    reps = synthetic_reports()
    with pytest.raises(InsufficientSpan, match="4 reports"):
        ms.fit_scaling(reps[:3])
    with pytest.raises(InsufficientSpan, match="decades"):
        ms.fit_scaling(synthetic_reports(ks=(40, 50, 60, 80)))
    dead = synthetic_reports(ks=(10, 20, 40, 80))
    dead.append(ms.MeasureReport(
        epsilon=1e-9, mu=1e-9, gamma_used=1e-5, tau_used=1.5,
        samples=1000, selected=1000, converged=1000,
        complement_fraction=0.0))
    with pytest.raises(InsufficientSpan, match="vanished"):
        ms.fit_scaling(dead)


def test_fit_scaling_brackets_gevrey_reports_by_mu():
    # a Gevrey report's nu column leaves the fit as it is: the bracket is
    # complement / sqrt(mu), as for any report
    plain = [replace(r, mu=r.mu * (1.0 + 0.1 * i))
             for i, r in enumerate(synthetic_reports())]
    reps = [replace(r, nu=r.mu ** 3) for r in plain]
    fit = ms.fit_scaling(reps)
    ratios = [r.complement_fraction / math.sqrt(r.mu) for r in reps]
    assert (fit.c_low, fit.c_high) == (min(ratios), max(ratios))
    assert fit == ms.fit_scaling(plain)
    assert fit.c_high > fit.c_low


def test_gevrey_sweep_and_forecast():
    plan = family_plan(epsilons=(1e-2, 1e-3), density=32, gevrey_alpha=1.0)
    reports = ms.run_plan(plan)
    for rep in reports:
        assert rep.nu is not None
        assert rep.nu <= rep.mu ** 2
    rows = ms.gevrey_forecast(fa.make_test_frequency("golden"),
                              (1e-2, 1e-3, 1e-4), alpha=1.0)
    assert [row["eps"] for row in rows] == [1e-2, 1e-3, 1e-4]
    for row in rows:
        assert row["nu"] == math.exp(-row["mu"] ** -1.0)
        assert row["predicted_complement"] == math.sqrt(row["nu"])
        # regularity-class prediction sits far below the power-law column
        assert row["predicted_complement"] < row["sqrt_mu"] ** 2
    # exponential collapse along the sweep
    preds = [row["predicted_complement"] for row in rows]
    assert preds[0] / preds[1] > 1e5 and preds[1] / preds[2] > 1e10
