"""CLI: artifact contents, stamps, determinism, error records and cleanup."""

import itertools
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kamlab import cli
from kamlab import freq_arith as fa
from kamlab import measure_scan as ms
from kamlab import normal_form
from kamlab.fourier_taylor import (
    FourierTaylorSeries,
    HamiltonianSpec,
    quadratic_from_matrices,
)
from kamlab.normal_form import prepare_time_scaled
from kamlab.torus_solver import TorusEmbedding

A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B = np.array([[0.3, 0.1], [0.1, 0.2]])


def family_base(eps=1e-3):
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    return HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quad, rest=rest, epsilon=eps, state="physical")


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "golden.json").write_text(json.dumps({"name": "golden"}))
    (tmp_path / "spec.json").write_text(json.dumps(family_base().to_record()))
    plan = ms.ScanPlan(base=family_base(), freq=fa.make_test_frequency("golden"),
                       epsilons=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6), density=64)
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_record()))
    return tmp_path


def invoke(*args):
    result = CliRunner().invoke(cli.main, [str(a) for a in args])
    return result


def test_freq_psi_table(files):
    out = files / "freq"
    res = invoke("freq", "--omega", files / "golden.json", "--qmax", 50,
                 "--out", out)
    assert res.exit_code == 0
    lines = (out / "psi_table.csv").read_text().splitlines()
    assert lines[0].startswith("# kamlab 0.1.0 config=")
    assert lines[1] == "Q,psi,min_divisor,argmin_k"
    assert len(lines) == 52
    psis = [float(row.split(",")[1]) for row in lines[2:]]
    assert all(a <= b for a, b in zip(psis, psis[1:]))
    # full round-trip precision in the cells
    assert psis[0] == 1.6180339887498947


def test_freq_profile_table_and_rerun_identical(files):
    args = ("freq", "--omega", files / "golden.json", "--qmax", 10,
            "--eps", "1e-2", "--eps", "1e-3", "--alpha", "1.0")
    invoke(*args, "--out", files / "a")
    invoke(*args, "--out", files / "b")
    for name in ("psi_table.csv", "profile_table.csv"):
        assert (files / "a" / name).read_bytes() == (files / "b" / name).read_bytes()
    rows = (files / "a" / "profile_table.csv").read_text().splitlines()
    assert rows[1] == "eps,Delta,mu,nu"
    eps, delta, mu, nu = rows[3].split(",")
    assert (eps, delta) == ("0.001", "33")
    assert float(mu) == pytest.approx(1 / 33)
    assert float(nu) == pytest.approx(np.exp(-33.0), rel=1e-12)


def test_freq_bad_input_writes_error_record(files):
    (files / "not_json.json").write_text("golden\n")
    for name in ("missing.json", "not_json.json"):
        out = files / f"bad-{name}"
        res = invoke("freq", "--omega", files / name, "--out", out)
        assert res.exit_code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["kind"] == "ValueError"
        assert err["_meta"]["config"] == "unresolved"
        assert [p.name for p in out.iterdir()] == ["error.json"]


def test_freq_qmax_zero_writes_error_record(files):
    out = files / "qmax0"
    res = invoke("freq", "--omega", files / "golden.json", "--qmax", 0, "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["record"] == "error" and err["kind"] == "ValueError"
    assert "--qmax" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_reused_out_holds_only_the_last_run(files):
    # a success after a refusal removes the stale error.json; a refusal after
    # a success removes the stale artifacts; a success without --eps removes
    # the profile table an earlier run wrote
    out = files / "reused"
    omega = files / "golden.json"
    runs = [(["--qmax", 0], 2, ["error.json"]),
            (["--qmax", 10, "--eps", 1e-2], 0, ["profile_table.csv", "psi_table.csv"]),
            (["--qmax", 0], 2, ["error.json"]),
            (["--qmax", 10, "--eps", 1e-2], 0, ["profile_table.csv", "psi_table.csv"]),
            (["--qmax", 10], 0, ["psi_table.csv"])]
    for args, code, names in runs:
        res = invoke("freq", "--omega", omega, *args, "--out", out)
        assert res.exit_code == code, res.output
        assert sorted(p.name for p in out.iterdir()) == names, args
    fresh = files / "fresh"
    invoke("freq", "--omega", omega, "--qmax", 10, "--out", fresh)
    assert (out / "psi_table.csv").read_bytes() == (fresh / "psi_table.csv").read_bytes()


def test_cleanup_keeps_unstamped_files_and_inputs(files):
    # a stale file is removed only if kamlab stamped it and it is no input:
    # a refusal keeps the stamped spec it read, though it is named like an
    # artifact, and an unstamped table; a success keeps a foreign error.json
    out = files / "shared"
    out.mkdir()
    spec = json.loads((files / "spec.json").read_text())
    spec["_meta"] = {"tool": "kamlab 0.1.0", "config": "0" * 16}
    (out / "torus.json").write_text(json.dumps(spec))
    (out / "torus_surface.csv").write_text("phi_1,phi_2\n0.5,0.5\n")
    (out / "verification.json").write_text(json.dumps({"_meta": spec["_meta"]}))
    kept = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "verification.json"}
    res = invoke("torus", "--spec", out / "torus.json", "--i0", "bad", "--out", out)
    assert res.exit_code == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json", *sorted(kept)]
    assert all((out / name).read_bytes() == body for name, body in kept.items())

    (out / "error.json").write_text(json.dumps({"mine": True}))
    res = invoke("freq", "--omega", files / "golden.json", "--qmax", 10, "--out", out)
    assert res.exit_code == 0, res.output
    assert json.loads((out / "error.json").read_text()) == {"mine": True}
    assert (out / "psi_table.csv").exists() and (out / "torus.json").exists()


def test_sink_writes_only_declared_artifacts(tmp_path):
    sink = cli._Sink(tmp_path, "0" * 16, ("a.csv",), set())
    sink.write_csv("a.csv", ["x"], [(1,)])
    sink.write_json("error.json", {})
    with pytest.raises(ValueError, match="b.csv"):
        sink.write_csv("b.csv", ["x"], [(1,)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "error.json"]


def test_unwritable_out_ends_in_an_error_line(files):
    # an --out below a regular file cannot be made a directory, so not even
    # error.json can be written; the run still ends in exit 2, not a traceback
    afile = files / "afile"
    afile.write_text("kept\n")
    res = invoke("freq", "--omega", files / "golden.json", "--qmax", 5,
                 "--out", afile / "sub")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: NotADirectoryError" in res.output
    assert afile.read_text() == "kept\n"


def test_failed_artifact_write_discards_partial_output(files, monkeypatch):
    # psi_table.csv is written, then writing profile_table.csv fails
    write_text = Path.write_text

    def full_disk(path, text):
        if path.name.startswith("profile_table"):
            raise OSError(28, "No space left on device")
        return write_text(path, text)
    monkeypatch.setattr(Path, "write_text", full_disk)
    out = files / "full"
    res = invoke("freq", "--omega", files / "golden.json", "--qmax", 5,
                 "--eps", "1e-2", "--out", out)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    err = json.loads((out / "error.json").read_text())
    assert err["record"] == "error" and err["kind"] == "OSError"
    assert [p.name for p in out.iterdir()] == ["error.json"]


def _records(files) -> dict:
    """A valid record for each record-reading option."""
    return {"--spec": family_base().to_record(),
            "--omega": fa.make_test_frequency("golden").to_record(),
            "--plan": json.loads((files / "plan.json").read_text())}


# scalar spec fields of the wrong type or range; unrefused, each ends in a
# traceback, in written artifacts or (epsilon NaN) in a divisor enumeration
# without end
_BAD_SPEC_FIELDS = [("epsilon", "x"), ("domain_radius", "x"), ("omega_prefactor", "x"),
                    ("state", "x"), ("epsilon", 0.0), ("epsilon", math.nan)]

# an --eps option bypasses the record loader; unrefused, `freq --eps nan|inf`
# runs a divisor enumeration without end and `nf --eps 0` ends in a traceback
# `freq --eps 1e-300` asks for a truncation order past the enumeration cap;
# the golden table reaches the cap in well under a second
_BAD_EPS = [("freq", "--omega", eps, "BelowThreshold", "epsilon") for eps in ("nan", "inf")] \
    + [("freq", "--omega", "1e-300", "ConstructionFailed", "enumeration cap")] \
    + [("nf", "--spec", eps, "ValueError", "'epsilon'") for eps in ("0", "nan", "inf")]

# Gevrey options that are not finite and positive; unrefused, `--alpha nan`
# writes nu = nan and a negative c_bar overflows into a traceback that leaves
# psi_table.csv behind
_BAD_GEVREY = [("freq", "--omega", ("--eps", "1e-2", "--alpha", "nan"), "alpha=nan"),
               ("freq", "--omega", ("--eps", "1e-2", "--alpha", 1, "--cbar", "-1e6"),
                "c_bar=-1000000.0"),
               ("nf", "--spec", ("--alpha", 0), "alpha=0.0"),
               ("nf", "--spec", ("--alpha", 1, "--cbar", "inf"), "c_bar=inf")]

# integration options bypass the record loader too; unrefused, `probe --h 0`
# and `probe --t inf` end in a traceback, `torus --t-final 0` in a traceback
# that leaves torus.json behind, and `probe --h -0.01` and `probe --points 0`
# in meaningless tables.  `torus` refuses its horizon before the Newton solve,
# so the cases at the default grid 64 cost no solve (the test makes any call
# of solve_torus fail).  A horizon of 1e18 steps, 1e12 probe points of 100
# steps and a grid of 1e10 points are past the step, trajectory-step and
# grid budgets, and are refused before any array of that size is made
_BAD_FLOW = [("probe", ("--h", 0), "step=0.0"), ("probe", ("--t", "inf"), "t_final=inf"),
             ("probe", ("--h", -0.01), "step=-0.01"), ("probe", ("--points", 0), "--points"),
             ("probe", ("--t", "1e15", "--h", "1e-3"), "steps, beyond the budget"),
             ("probe", ("--points", 10 ** 12), "trajectory steps, beyond the budget"),
             ("torus", ("--i0", "0.3,-0.2", "--grid", 16, "--t-final", 0), "t_final=0.0"),
             ("torus", ("--i0", "0.3,-0.2", "--t-final", -1), "t_final=-1.0"),
             ("torus", ("--i0", "0.3,-0.2", "--t-final", "inf"), "t_final=inf"),
             ("torus", ("--i0", "0.3,-0.2", "--grid", 100000), "points, beyond the budget")]


@pytest.mark.parametrize("cmd, option, edit, args, kind, text", [
    ("nf", "--spec", lambda rec: rec.pop("quad"), (), "ValueError", "'quad'"),
    ("freq", "--omega", lambda rec: rec.pop("components"), (), "ValueError", "'components'"),
    ("freq", "--omega", lambda rec: rec.update(components=3), (), "ValueError",
     "'components'"),
    ("scan", "--plan", lambda rec: rec.pop("base"), (), "ValueError", "'base'"),
    ("scan", "--plan", lambda rec: rec["freq"].pop("components"), (), "ValueError",
     "'components'"),
    ("scan", "--plan", lambda rec: rec.update(epsilons=5), (), "ValueError", "'epsilons'"),
    # slope 1e-12: past Q=1024 only whole shells rule out rounding ties, and
    # those beyond the row budget are refused before any is enumerated
    ("freq", "--omega", lambda rec: rec.update(components=["1.0", "-0.999999999999"]),
     ("--eps", "1e-16"), "ConstructionFailed", "row budget"),
    # the named Liouville vector is n = 2 or 3; n = 4 is resonant
    ("freq", "--omega", lambda rec: (rec.clear(), rec.update(name="liouville", n=4)), (),
     "ConstructionFailed", "n = 2 or 3"),
    # a misspelled key, at the top of a record, in one nested in it or in the
    # named shorthand, used to be dropped for the default it stood for; a
    # frequency record of another kind was the one ConstructionFailed
    ("nf", "--spec", lambda rec: rec.update(domain_radus=0.1), (), "ValueError",
     "hamiltonian_spec record has no field 'domain_radus'"),
    ("scan", "--plan", lambda rec: rec["base"].update(domain_radus=0.1), (), "ValueError",
     "hamiltonian_spec record has no field 'domain_radus'"),
    ("freq", "--omega", lambda rec: rec.update(q_chekced=60), (), "ValueError",
     "frequency_vector record has no field 'q_chekced'"),
    ("freq", "--omega", lambda rec: (rec.clear(), rec.update(name="golden", nn=3)), (),
     "ValueError", "frequency_named record has no field 'nn'"),
    ("freq", "--omega", lambda rec: rec.update(record="frequency_vectr"), (), "ValueError",
     "not a frequency_vector record"),
] + [(cmd, "--spec", lambda rec: rec["omega"].__setitem__(0, "nan"), args, "ValueError",
       "'omega'") for cmd, args in (("nf", ()), ("torus", ("--i0", "0.3,-0.2")))]
  + [(cmd, "--spec", lambda rec, f=field, v=value: rec.update({f: v}), (), "ValueError",
      repr(field)) for cmd in ("nf", "probe") for field, value in _BAD_SPEC_FIELDS]
  + [(cmd, option, lambda rec: None, ("--eps", eps), kind, text)
     for cmd, option, eps, kind, text in _BAD_EPS]
  + [(cmd, option, lambda rec: None, args, "ConstructionFailed", text)
     for cmd, option, args, text in _BAD_GEVREY]
  + [("scan", "--plan", lambda rec: rec.update(gevrey_alpha=math.nan), (),
      "ConstructionFailed", "alpha=nan")]
  + [(cmd, "--spec", lambda rec: None, args, "ValueError", text)
     for cmd, args, text in _BAD_FLOW],
    ids=["nf-spec-without-quad", "freq-omega-without-components",
         "freq-omega-components-3", "scan-plan-without-base",
         "scan-plan-freq-without-components", "scan-plan-epsilons-5",
         "freq-near-tie-eps-1e-16", "freq-omega-liouville-n4", "nf-spec-domain-radus",
         "scan-plan-base-domain-radus", "freq-omega-q-chekced", "freq-omega-named-nn",
         "freq-omega-wrong-kind", "nf-spec-omega-nan",
         "torus-spec-omega-nan"]
    + [f"{cmd}-spec-{field}-{value}" for cmd in ("nf", "probe")
       for field, value in _BAD_SPEC_FIELDS]
    + [f"{cmd}-eps-{eps}" for cmd, _, eps, _, _ in _BAD_EPS]
    + [f"{cmd}-gevrey-{text}" for cmd, _, _, text in _BAD_GEVREY]
    + ["scan-plan-gevrey-alpha-nan"]
    + ["probe-h-0", "probe-t-inf", "probe-h-negative", "probe-points-0",
       "probe-t-1e15-h-1e-3", "probe-points-1e12", "torus-t-final-0",
       "torus-grid-64-t-final-negative", "torus-grid-64-t-final-inf", "torus-grid-100000"])
def test_malformed_record_writes_error_record(files, monkeypatch, cmd, option, edit, args,
                                              kind, text):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_torus ran on an input refused up front")

    monkeypatch.setattr(cli, "solve_torus", no_solve)
    rec = _records(files)[option]
    edit(rec)
    (files / "malformed.json").write_text(json.dumps(rec))
    out = files / "malformed"
    flow = ("--t", 1, "--h", 0.01, "--i0", "0.001,-0.0005") if cmd == "probe" else ()
    res = invoke(cmd, *flow, *args, option, files / "malformed.json", "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["record"] == "error" and err["kind"] == kind
    assert text in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


# a frequency record checked past the enumeration cap, or to a q_checked
# that is no whole number, read by freq and by nf --omega; a spec whose rest
# has an action exponent or a wavevector component past its bound, or whose
# domain radius overflows at that exponent, read by nf, probe or (as a plan's
# base) scan.  Unrefused, the deep record built a golden table to Q=300,000,
# the steep spec had its power table evaluated, the wide wavevector and the
# wide radius ended in an OverflowError traceback (nf on the wide wavevector
# leaving normal_form.json behind), q_checked null was read as 0, skipping
# the resonance check, and the other q_checked values were refused as a
# malformed field 'components'.  CI runs the same at 10^9
_Q_CHECKED = [1.5, "60", True, None, [30]]
_PAST_BOUND = (
    [(cmd, "q_checked", 300_000, "ConstructionFailed", "enumeration cap")
     for cmd in ("freq", "nf")]
    + [("probe", "term", [[0, 0], [65, 0], 1e-3, 0.0], "ValueError",
        "m=[65, 0]: entries must be whole numbers and action")]
    + [(cmd, "q_checked", value, "ValueError", f"q_checked must be a whole number >= 0, "
        f"got {value!r}") for cmd in ("freq", "nf") for value in _Q_CHECKED]
    + [(cmd, "term", [[1e308, 0], [3, 0], 1e-3, 0.0], "ValueError",
        "k=[1e+308, 0], m=[3, 0]: entries must be whole numbers and action exponents at "
        "most 64, wavevector components at most 1048576") for cmd in ("nf", "probe")]
    + [(cmd, "domain_radius", 1e308, "ValueError",
        "field 'domain_radius' must be finite and positive and below 65536.0, got 1e+308")
       for cmd in ("nf", "scan")])


@pytest.mark.parametrize(
    "cmd, field, value, kind, text", _PAST_BOUND,
    ids=["freq", "nf", "probe"]
    + [f"{cmd}-q_checked-{value}" for cmd in ("freq", "nf-omega") for value in _Q_CHECKED]
    + ["nf-wavevector-1e308", "probe-wavevector-1e308", "nf-domain_radius-1e308",
       "scan-base-domain_radius-1e308"])
def test_a_record_past_the_depth_or_exponent_bound_is_refused(files, cmd, field, value,
                                                              kind, text):
    spec = family_base().to_record()
    if field == "q_checked":
        bad = {**fa.make_test_frequency("golden").to_record(), "q_checked": value}
    elif field == "term":
        bad = spec
        bad["rest"]["terms"].append(value)
    else:
        bad = {**spec, "domain_radius": value}
    (files / "bad.json").write_text(json.dumps(bad))
    plan = json.loads((files / "plan.json").read_text())
    (files / "bad_plan.json").write_text(json.dumps({**plan, "base": bad}))
    args = {"freq": ("--omega", files / "bad.json"),
            "nf": ("--spec", files / "spec.json", "--omega", files / "bad.json")
            if field == "q_checked" else ("--spec", files / "bad.json"),
            "probe": ("--spec", files / "bad.json", "--t", 1, "--h", 0.01),
            "scan": ("--plan", files / "bad_plan.json")}[cmd]
    out = files / "refused"
    res = invoke(cmd, *args, "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == kind and text in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


# plan fields of the wrong type or range; unrefused, each ended in a
# traceback (max_iter 0 or less in an IndexError after the Newton sweeps),
# or, a density beyond SAMPLE_BUDGET, ran for as long as its samples took;
# a misspelled field was read past, and the scan ran at the default density
_BAD_PLAN_FIELDS = [("density", 1.5), ("density", True), ("max_iter", 0), ("max_iter", -3),
                    ("max_iter", 2.5), ("grid", "x"), ("tau", "x"), ("tol", "x"),
                    ("tol", 0.0), ("c", math.inf), ("mu_gate", "x"), ("sqrt_mu_gate", -1.0),
                    ("gamma_coeff", math.nan), ("margin_coeff", "x"),
                    ("gamma_floor", -1.0), ("gevrey_alpha", "x"), ("gevrey_c_bar", 0.0),
                    ("record_timings", 1), ("epsilons", [1e-3, math.inf]),
                    ("epsilons", ["x"]), ("epsilons", [[1e-3]]), ("density", 2 ** 14 + 1),
                    ("densty", 1024)]


@pytest.mark.parametrize("field, value", _BAD_PLAN_FIELDS,
                         ids=[f"{field}-{value}" for field, value in _BAD_PLAN_FIELDS])
def test_malformed_plan_field_writes_error_record(files, monkeypatch, field, value):
    def no_scan(*args, **kwargs):
        raise AssertionError("run_plan ran on a plan refused up front")

    monkeypatch.setattr(ms, "run_plan", no_scan)
    rec = json.loads((files / "plan.json").read_text())
    rec[field] = value
    (files / "malformed.json").write_text(json.dumps(rec))
    out = files / "malformed"
    res = invoke("scan", "--plan", files / "malformed.json", "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    gevrey = field.startswith("gevrey")
    assert err["kind"] == ("ConstructionFailed" if gevrey else "ValueError")
    assert (field.replace("gevrey_", "") if gevrey else field) in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("option, value", [(option, value) for option in ("--gamma", "--tau")
                                           for value in ("-1", "0", "nan")]
                         + [("--tol", value) for value in ("-1", "0", "nan", "inf")])
def test_torus_refuses_gamma_or_tau_not_finite_and_positive(files, option, value):
    out = files / "torus"
    res = invoke("torus", "--spec", files / "spec.json", "--i0", "0.3,-0.2",
                 option, value, "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "ValueError"
    assert f"{option[2:]} must be finite and positive" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


_DROP = object()

# each record kind through a command that reads it, and the artifacts the
# command may write: a spec through a one-step probe, a frequency through a
# depth-5 table and a plan of one slice at density 8 through its scan
_FUZZED = {"--spec": (("probe", "--t", 0.01, "--h", 0.01),
                      {"probe_trajectories.csv", "probe_summary.json"}),
           "--omega": (("freq", "--qmax", 5), {"psi_table.csv"}),
           "--plan": (("scan",), {"scan_reports.csv", "scan_fit.json", "gevrey_forecast.csv"})}


def _field_paths(rec: dict, prefix=()):
    for key, value in rec.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_refuses_a_dropped_or_retyped_field(files, data):
    # every record the CLI reads, with one field dropped or retyped, either
    # runs to the command's artifacts or ends in exit 2 with only error.json,
    # never a traceback; a missing field is named
    option = data.draw(st.sampled_from(sorted(_FUZZED)))
    rec = {**_records(files), "--plan": ms.ScanPlan(
        base=family_base(), freq=fa.make_test_frequency("golden"), epsilons=(1e-3,),
        density=8).to_record()}[option]
    path = data.draw(st.sampled_from(list(_field_paths(rec))))
    value = data.draw(st.sampled_from(
        [_DROP, None, True, 0, -1, 2.5, "x", [], {}, [1], ["x"], [[1]], 10 ** 400]))
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    (files / "fuzzed.json").write_text(json.dumps(rec))
    (cmd, *args), artifacts = _FUZZED[option]
    out = files / "fuzzed"
    res = invoke(cmd, *args, option, files / "fuzzed.json", "--out", out)
    written = {p.name: p.read_text() for p in out.iterdir()} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    if res.exit_code == 0:
        assert written and set(written) <= artifacts
        return
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert list(written) == ["error.json"]
    message = json.loads(written["error.json"])["message"]
    if "lacks the field" in message:
        assert repr(path[-1]) in message


@pytest.fixture()
def gate8(tmp_path):
    """The inputs of the gate-8 command lines, and variants of them."""
    golden = fa.make_test_frequency("golden")
    plan = ms.ScanPlan(base=family_base(1.0), freq=golden,
                       epsilons=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6), density=48,
                       gevrey_alpha=1.0)
    records = {"omega.json": {"name": "golden"}, "omega_record.json": golden.to_record(),
               "spec.json": family_base().to_record(),
               "spec_eps.json": family_base(2e-3).to_record(),
               "plan.json": plan.to_record(),
               "plan_dense.json": replace(plan, density=64).to_record()}
    for name, rec in records.items():
        (tmp_path / name).write_text(json.dumps(rec))
    (tmp_path / "spec_indented.json").write_text(json.dumps(records["spec.json"], indent=4))
    return tmp_path


def _invoke_in(root, out, *args):
    """Invoke with each *.json argument taken as a file in root."""
    return invoke(*[root / a if str(a).endswith(".json") else a for a in args],
                  "--out", root / out)


def _stamps(out) -> set:
    """The config hash of every artifact in out."""
    found = set()
    for path in out.iterdir():
        text = path.read_text()
        found.add(json.loads(text)["_meta"]["config"] if path.suffix == ".json"
                  else text.split("\n", 1)[0].split("config=")[1])
    return found


# the gate-8 command lines and `nf --omega`, with the stamp their artifacts
# carry: the hash of the command name and its options, each input file as
# its parsed JSON, --out left out
_FROZEN_STAMPS = [
    (("freq", "--omega", "omega.json", "--qmax", 60, "--eps", "1e-2", "--eps", "1e-3",
      "--alpha", "1.0"), "821fd82f93afea28"),
    (("nf", "--spec", "spec.json"), "eee27f700023e713"),
    (("torus", "--spec", "spec.json", "--i0", "0.3,-0.2", "--grid", 32, "--t-final", 50),
     "3a5d22d80cbceb90"),
    (("scan", "--plan", "plan.json"), "c346b87dfded4718"),
    (("probe", "--spec", "spec.json", "--t", 20, "--h", 0.01, "--points", 2),
     "9275ae76bdbb8dda"),
    (("nf", "--spec", "spec.json", "--omega", "omega_record.json"), "adc97d6ff26e5563"),
]


@pytest.mark.parametrize("args, stamp", _FROZEN_STAMPS,
                         ids=["freq", "nf", "torus", "scan", "probe", "nf-omega"])
def test_frozen_stamps_and_each_input_read_once(gate8, monkeypatch, args, stamp):
    reads = []

    def counted(path, *args, **kwargs):
        reads.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    res = _invoke_in(gate8, "out", *args)
    assert res.exit_code == 0
    assert sorted(reads) == sorted(str(gate8 / a) for a in args if str(a).endswith(".json"))
    assert _stamps(gate8 / "out") == {stamp}


# per command, two values of every option (None: the option left out); the
# first values make the gate-8 command line
_OPTIONS = {
    "freq": {"--omega": ("omega.json", "omega_record.json"), "--qmax": (60, 61),
             "--eps": (("1e-2", "1e-3"), ("1e-2",)), "--alpha": ("1.0", "2.0"),
             "--cbar": (None, "2.0")},
    "nf": {"--spec": ("spec.json", "spec_eps.json"), "--eps": (None, "1e-4"),
           "--c": (None, "2.0"), "--omega": (None, "omega_record.json"),
           "--alpha": (None, "1.0"), "--cbar": (None, "2.0")},
    "torus": {"--spec": ("spec.json", "spec_eps.json"), "--i0": ("0.3,-0.2", "0.3,-0.1"),
              "--gamma": (None, "0.01"), "--tau": (None, "2.0"), "--tol": (None, "1e-10"),
              "--grid": (32, 16), "--t-final": (50, 60)},
    "scan": {"--plan": ("plan.json", "plan_dense.json")},
    "probe": {"--spec": ("spec.json", "spec_eps.json"), "--t": (20, 10), "--h": (0.01, 0.02),
              "--i0": (None, "0.001,-0.0005"), "--points": (2, 3)},
}

# the first pipeline call of each command, made to fail so that a run costs
# only its loading and hashing; error.json carries the stamp
_FIRST_CALL = {"freq": (fa, "psi_table"), "nf": (cli, "one_step_normal_form"),
               "torus": (cli, "solve_torus"), "scan": (ms, "run_plan"),
               "probe": (cli, "integrate_flow")}


@pytest.mark.parametrize("cmd", sorted(_OPTIONS))
def test_every_option_and_no_formatting_changes_the_stamp(gate8, monkeypatch, cmd):
    def stop(*args, **kwargs):
        raise ValueError("stopped after hashing")

    monkeypatch.setattr(*_FIRST_CALL[cmd], stop)

    def stamp(choice, out, **files):
        args = [cmd]
        for option, values in _OPTIONS[cmd].items():
            value = files.get(option, values[choice.get(option, 0)])
            for v in value if isinstance(value, tuple) else (value,):
                args += [] if v is None else [option, v]
        res = _invoke_in(gate8, out, *args)
        assert res.exit_code == 2
        assert json.loads((gate8 / out / "error.json").read_text())["message"] == \
            "stopped after hashing"
        found, = _stamps(gate8 / out)
        return found

    base = stamp({}, "base")
    assert base == {args[0]: h for args, h in _FROZEN_STAMPS[:5]}[cmd]
    changed = [stamp({option: 1}, f"change{i}") for i, option in enumerate(_OPTIONS[cmd])]
    assert len(set(changed + [base])) == len(changed) + 1
    # the stamp hashes a record, not its file's bytes, nor where output goes
    spec_option = {"--spec": "spec_indented.json"} if "--spec" in _OPTIONS[cmd] else {}
    assert stamp({}, "again", **spec_option) == base


@pytest.mark.parametrize("cmd", sorted(_OPTIONS))
def test_a_foreign_exception_ends_in_error_json(gate8, monkeypatch, cmd):
    # a failure of a kind no handler named, such as the OverflowError of a
    # spec past a bound, used to escape: exit 1, a traceback and, when it
    # came after a write, the artifacts written so far
    def foreign(*args, **kwargs):
        raise RuntimeError("foreign failure")

    monkeypatch.setattr(*_FIRST_CALL[cmd], foreign)
    args = next(args for args, _ in _FROZEN_STAMPS if args[0] == cmd)
    res = _invoke_in(gate8, "out", *args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    err = json.loads((gate8 / "out" / "error.json").read_text())
    assert (err["kind"], err["message"]) == ("RuntimeError", "foreign failure")
    assert [p.name for p in (gate8 / "out").iterdir()] == ["error.json"]
    assert "error: RuntimeError: foreign failure" in res.output


def test_freq_resonant_omega_reports_kind(files):
    rec = {"record": "frequency_vector", "kind": "explicit", "n": 2,
           "components": ["1.0", "0.5"], "q_checked": 30,
           "resonance_tolerance": 1e-14}
    (files / "resonant_freq.json").write_text(json.dumps(rec))
    out = files / "resfreq"
    res = invoke("freq", "--omega", files / "resonant_freq.json", "--out", out)
    assert res.exit_code == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "ResonanceDetected"


def test_nf_artifacts(files):
    out = files / "nf"
    res = invoke("nf", "--spec", files / "spec.json", "--out", out)
    assert res.exit_code == 0
    nf_rec = json.loads((out / "normal_form.json").read_text())
    est = json.loads((out / "estimates.json").read_text())
    assert nf_rec["K"] == 33 and nf_rec["mu"] == pytest.approx(1 / 33)
    assert nf_rec["_meta"]["config"] == est["_meta"]["config"]
    assert est["composition_error"] < 1e-9
    assert est["record"] == "nf_estimates"


def test_nf_refuses_a_physical_spec_with_extra(files):
    # the rescalings to the time-scaled state would drop it
    rec = family_base().to_record()
    rec["extra"] = FourierTaylorSeries.cosine(2, (1, 1), (2, 0), 0.3).to_record()
    rec["extra_prefactor"] = 0.5
    (files / "extra.json").write_text(json.dumps(rec))
    out = files / "extra"
    res = invoke("nf", "--spec", files / "extra.json", "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "ValueError"
    assert "'extra' needs state 'time_scaled', got state 'physical'" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("cmd, eps", [("nf", 1e200), ("torus", 1e300)])
def test_an_epsilon_that_overflows_the_rescaling_is_refused(files, cmd, eps):
    # I -> eps I scales the degree-3 term by eps^2, past the largest float
    # from about eps = 1.3e154; nf takes it by --eps, torus from the record
    rec = family_base().to_record()
    if cmd == "torus":
        rec["epsilon"] = eps
    (files / "huge.json").write_text(json.dumps(rec))
    out = files / "huge"
    args = ["--eps", eps] if cmd == "nf" else ["--i0", "0.3,-0.2"]
    res = invoke(cmd, "--spec", files / "huge.json", *args, "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "ValueError"
    assert f"epsilon {eps!r} is too large" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def _only_error(out, kind: str, text: str):
    """out holds only an error.json of `kind` whose message holds `text`."""
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == kind and text in err["message"], err
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_nf_eps_overrides_only_a_physical_spec(files):
    # on a time-scaled spec the override replaced epsilon without undoing the
    # scaling: epsilon 0.01 beside omega_prefactor 1000.0 from eps 1e-3
    (files / "scaled.json").write_text(json.dumps(prepare_time_scaled(family_base()).to_record()))
    out = files / "nf-scaled"
    res = invoke("nf", "--spec", files / "scaled.json", "--eps", "1e-2", "--out", out)
    assert res.exit_code == 2
    _only_error(out, "ValueError", "this spec is in state 'time_scaled'")
    out = files / "nf-physical"
    assert invoke("nf", "--spec", files / "spec.json", "--eps", "1e-2",
                  "--out", out).exit_code == 0
    spec_out = json.loads((out / "normal_form.json").read_text())["spec_out"]
    assert (spec_out["epsilon"], spec_out["omega_prefactor"]) == (0.01, 100.0)


def test_torus_refuses_a_resonant_target(files):
    # omega (1, 1/16) at I0 = 0 resonates at k = (1, -16), past the base
    # guard's depth 16 and inside the grid-16 certification ball; it used to
    # certify gamma 0.0 with margin inf and solve
    rec = family_base().to_record()
    rec["omega"] = ["1.0", "0.0625"]
    (files / "resonant.json").write_text(json.dumps(rec))
    out = files / "resonant"
    res = invoke("torus", "--spec", files / "resonant.json", "--i0", "0,0", "--grid", 16,
                 "--out", out)
    assert res.exit_code == 2
    _only_error(out, "SmallDivisorBreakdown", "k=(1, -16)")


def test_scan_refuses_a_freq_that_is_not_the_base_omega(files, monkeypatch):
    # accepted, the plan failed in the first slice's normal form
    def no_scan(*args, **kwargs):
        raise AssertionError("run_plan ran on a plan refused up front")

    monkeypatch.setattr(ms, "run_plan", no_scan)
    rec = json.loads((files / "plan.json").read_text())
    rec["freq"] = fa.make_test_frequency("diophantine").to_record()
    (files / "mismatched.json").write_text(json.dumps(rec))
    out = files / "mismatched"
    res = invoke("scan", "--plan", files / "mismatched.json", "--out", out)
    assert res.exit_code == 2
    _only_error(out, "ValueError", "field 'freq'")


def _bodies(out) -> dict:
    """Each artifact in out less its stamp: a JSON record without _meta, or a
    CSV table without its header line."""
    return {path.name: ({k: v for k, v in json.loads(path.read_text()).items() if k != "_meta"}
                        if path.suffix == ".json" else path.read_text().split("\n", 1)[1])
            for path in out.iterdir()}


@pytest.mark.parametrize("cmd, args", [("nf", ()), ("torus", ("--i0", "0.3,-0.2", "--grid", 32,
                                                              "--t-final", 50))])
def test_time_scaled_spec_gives_the_physical_spec_artifacts(files, cmd, args):
    # a spec already time-scaled is taken as it is, not scaled again
    scaled = prepare_time_scaled(family_base())
    (files / "scaled.json").write_text(json.dumps(scaled.to_record()))
    bodies = []
    for spec in ("spec.json", "scaled.json"):
        out = files / f"{cmd}-{spec}"
        assert invoke(cmd, "--spec", files / spec, *args, "--out", out).exit_code == 0
        bodies.append(_bodies(out))
    assert bodies[0] == bodies[1]


def rich_base(kmax: int) -> HamiltonianSpec:
    """The golden family at eps 1e-2 with every harmonic 0 < |k|_1 <= kmax,
    one k of each pair +-k, weighted e^(-|k|_1): in A(theta) and in I1^3."""
    ks = [k for k in itertools.product(range(-kmax, kmax + 1), repeat=2)
          if 0 < abs(k[0]) + abs(k[1]) <= kmax and k > (0, 0)]
    quad = quadratic_from_matrices(2, A0, [(k, math.exp(-sum(map(abs, k))) * B, None)
                                           for k in ks])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    for k in ks:
        rest = rest + FourierTaylorSeries.cosine(2, k, (3, 0),
                                                 0.01 * math.exp(-sum(map(abs, k))))
    return HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quad, rest=rest, epsilon=1e-2, state="physical")


def test_nf_refuses_a_lie_series_past_the_pair_budget(files, monkeypatch):
    # the 20 terms at |k|_1 <= 1 take 205,312 term pairs to converge
    monkeypatch.setattr(normal_form, "LIE_PAIR_BUDGET", 10 ** 5)
    (files / "rich.json").write_text(json.dumps(rich_base(1).to_record()))
    out = files / "rich"
    res = invoke("nf", "--spec", files / "rich.json", "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "TailNotConverged" and "budget of 100000" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_torus_artifacts_and_roundtrip(files):
    out = files / "torus"
    res = invoke("torus", "--spec", files / "spec.json", "--i0", "0.3,-0.2",
                 "--grid", 32, "--t-final", 50, "--out", out)
    assert res.exit_code == 0
    emb = TorusEmbedding.from_record(json.loads((out / "torus.json").read_text()))
    assert emb.grid == 32 and emb.defect_norm < 1e-11
    lines = (out / "torus_surface.csv").read_text().splitlines()
    assert lines[1] == "phi_1,phi_2,theta_1,theta_2,I_1,I_2"
    assert len(lines) == 2 + 32 * 32
    ver = json.loads((out / "verification.json").read_text())
    assert ver["max_theta_error"] < 1e-6
    assert ver["method"] == "dop853" and ver["t_final"] == 50.0


def test_torus_resonant_spec_cleans_partials(files):
    spec = family_base()
    rec = spec.to_record()
    rec["omega"] = ["1.0", "0.5"]
    (files / "resonant.json").write_text(json.dumps(rec))
    out = files / "res"
    res = invoke("torus", "--spec", files / "resonant.json", "--i0", "0.3,-0.2",
                 "--out", out)
    assert res.exit_code == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "ResonanceDetected"
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_torus_bad_i0_arity(files):
    out = files / "arity"
    res = invoke("torus", "--spec", files / "spec.json", "--i0", "0.3",
                 "--out", out)
    assert res.exit_code == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "ValueError"


def test_scan_reports_fit_and_determinism(files):
    res = invoke("scan", "--plan", files / "plan.json", "--out", files / "s1")
    assert res.exit_code == 0
    lines = (files / "s1" / "scan_reports.csv").read_text().splitlines()
    assert lines[1] == ("eps,mu,gamma,tau,samples,selected,converged,"
                        "complement_fraction,wall_time")
    assert len(lines) == 2 + 5
    fit = json.loads((files / "s1" / "scan_fit.json").read_text())
    assert fit["record"] == "fit_result" and "exponent" in fit
    invoke("scan", "--plan", files / "plan.json", "--out", files / "s2")
    for name in ("scan_reports.csv", "scan_fit.json"):
        assert (files / "s1" / name).read_bytes() == (files / "s2" / name).read_bytes()


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="the scan pool needs Linux and two usable cores")
def test_scan_pool_changes_no_byte_and_no_stamp(gate8, monkeypatch):
    # the gate-8 scan in the pool, and in order as on one usable core
    args, stamp = _FROZEN_STAMPS[3]
    cores = len(os.sched_getaffinity(0))
    forked = []
    run_forked = ms._run_forked
    monkeypatch.setattr(ms, "_run_forked",
                        lambda plan, workers: forked.append(workers) or run_forked(plan, workers))

    def scan(out):
        assert _invoke_in(gate8, out, *args).exit_code == 0
        assert _stamps(gate8 / out) == {stamp}
        return {p.name: p.read_bytes() for p in (gate8 / out).iterdir()}

    pooled = scan("pooled")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    in_order = scan("in_order")
    assert forked == [min(cores, 5)]
    assert sorted(pooled) == ["gevrey_forecast.csv", "scan_fit.json", "scan_reports.csv"]
    assert in_order == pooled


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="the scan pool needs Linux and two usable cores")
def test_scan_with_a_dead_worker_writes_error_record(files, fresh_python):
    code = ("import os\n"
            "from kamlab import measure_scan as ms\n"
            "from kamlab.cli import main\n"
            "parent = os.getpid()\n"
            "def dying(plan, eps):\n"
            "    if os.getpid() == parent:\n"
            "        raise AssertionError('a slice ran in the parent')\n"
            "    os._exit(1)\n"
            "ms.scan_epsilon = dying\n"
            "main(['scan', '--plan', 'plan.json', '--out', 'dead'])\n")
    res = fresh_python(code, check=False)
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert res.stderr.startswith("error: WorkerDied: ")
    err = json.loads((files / "dead" / "error.json").read_text())
    assert err["kind"] == "WorkerDied"
    assert [p.name for p in (files / "dead").iterdir()] == ["error.json"]


def test_scan_short_plan_skips_fit(files):
    plan = ms.ScanPlan(base=family_base(), freq=fa.make_test_frequency("golden"),
                       epsilons=(1e-3, 1e-4), density=32)
    (files / "short.json").write_text(json.dumps(plan.to_record()))
    out = files / "short_out"
    res = invoke("scan", "--plan", files / "short.json", "--out", out)
    assert res.exit_code == 0
    fit = json.loads((out / "scan_fit.json").read_text())
    assert fit["record"] == "fit_skipped" and "4 reports" in fit["reason"]


def test_scan_gevrey_plan_writes_forecast(files):
    plan = ms.ScanPlan(base=family_base(), freq=fa.make_test_frequency("golden"),
                       epsilons=(1e-2, 1e-3), density=16, gevrey_alpha=1.0)
    (files / "gev.json").write_text(json.dumps(plan.to_record()))
    out = files / "gev_out"
    res = invoke("scan", "--plan", files / "gev.json", "--out", out)
    assert res.exit_code == 0
    lines = (out / "gevrey_forecast.csv").read_text().splitlines()
    assert lines[1] == "eps,mu,nu,sqrt_mu,predicted_complement"
    row = dict(zip(lines[1].split(","), map(float, lines[3].split(","))))
    assert row["nu"] <= row["mu"] ** 2
    assert row["predicted_complement"] == np.sqrt(row["nu"])


def test_probe_trajectories(files):
    out = files / "probe"
    res = invoke("probe", "--spec", files / "spec.json", "--t", 10,
                 "--h", 0.01, "--i0", "0.001,-0.0005", "--points", 2,
                 "--out", out)
    assert res.exit_code == 0
    lines = (out / "probe_trajectories.csv").read_text().splitlines()
    assert lines[1] == "traj,t,theta_1,theta_2,I_1,I_2,energy"
    assert len(lines) > 100
    summary = json.loads((out / "probe_summary.json").read_text())
    for tr in summary["trajectories"]:
        assert tr["energy_drift"] < 1e-9
        assert tr["max_action_deviation"] < 1e-5
        # rotation of the nearly integrable flow stays near the frequency map
        assert abs(tr["rotation_estimate"][0] - 1.0) < 5e-3


def test_probe_refuses_a_horizon_of_no_step(files):
    # 1e-10 / 1 rounds to 0 steps, within the whole-number test's slack
    out = files / "probe"
    res = invoke("probe", "--spec", files / "spec.json", "--t", 1e-10, "--h", 1,
                 "--out", out)
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "ValueError"
    assert "one at least" in err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_version_flag():
    res = invoke("--version")
    assert res.exit_code == 0
    assert "0.1.0" in res.output
