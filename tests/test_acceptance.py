"""Acceptance gates, one verdict line per gate.

Every test here prints a single `[acceptance k/8] name: PASS|FAIL (...)`
line on the real stdout, bypassing pytest capture, and then asserts on the
same condition.  The printed log is the ship/no-ship summary; a FAIL line
is always backed by a failing test with the measured numbers in the
message.  Budgets (wall-clock, tolerances, ratio windows) are asserted at
the values stated in each docstring, not at whatever the code happens to
produce.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kamlab import cli
from kamlab import freq_arith as fa
from kamlab import measure_scan as ms
from kamlab.fourier_taylor import (
    TIME_SCALED,
    FourierTaylorSeries,
    HamiltonianSpec,
    quadratic_from_matrices,
)
from kamlab.normal_form import one_step_normal_form, prepare_time_scaled
from kamlab.torus_solver import certify_target, solve_torus, verify_by_integration
from oracles import neumaier_abs_dot, series_field


@pytest.fixture
def verdict(capfd):
    """One ship-summary line per gate on the real stdout, then the assert."""
    def emit(idx: int, name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance {idx}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B = np.array([[0.3, 0.1], [0.1, 0.2]])


def _family(eps: float) -> HamiltonianSpec:
    """Single-harmonic analytic family used throughout the gates."""
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    return HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quad, rest=rest, epsilon=eps, state="physical")


def _batch_flow(terms, theta, act, t=1.0, steps=16):
    """Classical RK4 time-t flow of a generating Hamiltonian, given by its
    term dict.

    A deliberately separate route from the package's own integrators, its
    evaluator and the Lie-series algebra: plain vectorized RK4 over all
    points at once, on the term-by-term field of tests/oracles.py.  The
    generators flowed here are O(eps * Psi) small, so sixteen fourth-order
    steps leave truncation far below the 1e-9 gates.
    """
    def field(th, ac):
        d_I, d_th = series_field(terms, th, ac)
        return d_I, -d_th

    h = t / steps
    th, ac = theta.copy(), act.copy()
    for _ in range(steps):
        k1t, k1a = field(th, ac)
        k2t, k2a = field(th + 0.5 * h * k1t, ac + 0.5 * h * k1a)
        k3t, k3a = field(th + 0.5 * h * k2t, ac + 0.5 * h * k2a)
        k4t, k4a = field(th + h * k3t, ac + h * k3a)
        th = th + (h / 6) * (k1t + 2 * k2t + 2 * k3t + k4t)
        ac = ac + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
    return th, ac


def _brute_psi_curve(w: np.ndarray, Q: int) -> np.ndarray:
    """Per-Q divisor maxima over the full lattice ball, slab by slab.

    Enumerates both sign classes (the package table walks only the half
    lattice) with meshgrid slabs over the leading component, so the
    enumeration route shares no code with the package.  The compensated
    dot from tests/oracles.py keeps minima bit-comparable.
    """
    n = w.size
    shell_min = np.full(Q, np.inf)
    ax = np.arange(-Q, Q + 1, dtype=np.int64)
    for k1 in range(-Q, Q + 1):
        rem = Q - abs(k1)
        tail_ax = ax[np.abs(ax) <= rem]
        if n == 2:
            k_tail = tail_ax[:, None]
        else:
            g2, g3 = np.meshgrid(tail_ax, tail_ax, indexing="ij")
            keep = (np.abs(g2) + np.abs(g3)) <= rem
            k_tail = np.stack([g2[keep], g3[keep]], axis=1)
        K = np.concatenate(
            [np.full((k_tail.shape[0], 1), k1, dtype=np.int64), k_tail], axis=1)
        shells = np.abs(K).sum(axis=1)
        live = shells > 0
        div = neumaier_abs_dot(K[live], w)
        np.minimum.at(shell_min, shells[live] - 1, div)
    return 1.0 / np.minimum.accumulate(shell_min)


def test_gate_1_divisor_maxima_match_brute_force(verdict):
    """Divisor maxima for Q <= 200 equal full-ball brute force exactly,
    for the golden vector, the truncated factorial-series constant, and a
    seeded random non-resonant n=3 vector, all within 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    vectors = {
        "golden": fa.make_test_frequency("golden"),
        "factorial-series": fa.make_test_frequency("liouville_constant"),
        "random-n3": fa.FrequencyVector(
            np.concatenate([[1.0], rng.uniform(0.1, 0.9, size=2)]), q_check=30),
    }
    Q = 200
    mismatches = []
    for name, vec in vectors.items():
        table = fa.psi_table(vec, Q)
        curve = _brute_psi_curve(vec.components, Q)
        mismatches += [(name, rec.Q) for rec in table
                       if rec.psi != curve[rec.Q - 1]]
        assert len(table) == Q
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    verdict(1, "divisor maxima vs brute force", ok,
             f"3 vectors, Q<={Q}, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_gate_2_mu_scaling_exponents(verdict):
    """Golden mu(eps) fits slope 0.5 +/- 0.1 over eps in [1e-6, 1e-1]; the
    constructed slow-decay vector keeps mu above eps^0.05 along its scale
    sequence."""
    golden = fa.make_test_frequency("golden")
    eps_grid = np.geomspace(1e-1, 1e-6, 11)
    mus = np.array([fa.mu_nu(golden, e).mu for e in eps_grid])
    slope = float(np.polyfit(np.log(eps_grid), np.log(mus), 1)[0])

    liou = fa.make_test_frequency("liouville")
    seq = [e for e in liou.construction["scale_sequence"]
           if e.get("eps", 0.0) > 0.0]
    assert len(seq) >= 2
    pair_slopes = [
        (np.log(b["mu"]) - np.log(a["mu"])) / (np.log(b["eps"]) - np.log(a["eps"]))
        for a, b in zip(seq, seq[1:])]
    above_power = all(e["mu"] > e["eps"] ** 0.05 for e in seq)

    ok = (abs(slope - 0.5) <= 0.1
          and all(s < 0.05 for s in pair_slopes)
          and above_power)
    verdict(2, "mu scaling exponents", ok,
             f"golden slope={slope:.3f}, slow-decay pair slopes="
             f"{[f'{s:.4f}' for s in pair_slopes]}")


def test_gate_3_transform_distance_and_remainder_track_mu(verdict):
    """Over eps in {1e-2..1e-5}: the time-1 transform stays within O(mu) of
    the identity and the remainder stays within O(eps * mu), with no
    increasing trend and max/min < 1e2 across the sweep; each eps under
    60 s."""
    golden = fa.make_test_frequency("golden")
    g1 = np.linspace(0.0, 1.0, 8, endpoint=False)
    a, b = np.meshgrid(g1, g1, indexing="ij")
    th_grid = np.stack([a.ravel(), b.ravel()], axis=1)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    TH = np.repeat(th_grid, len(dirs), axis=0)
    AC = 0.5 * np.tile(dirs, (len(th_grid), 1))

    disp_ratio, rem_ratio, times = [], [], []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        t0 = time.perf_counter()
        nf = one_step_normal_form(prepare_time_scaled(_family(eps)), golden)
        th1, ac1 = _batch_flow(nf.flow_generator().terms(), TH, AC)
        disp = max(float(np.max(np.abs(th1 - TH))),
                   float(np.max(np.abs(ac1 - AC))))
        disp_ratio.append(disp / nf.mu)
        # remainder enters the output as mu * ftilde in the rescaled frame,
        # i.e. eps * mu * ftilde before rescaling, so this is remainder/(eps*mu)
        rem_ratio.append(nf.diagnostics["f_tilde_norm"])
        times.append(time.perf_counter() - t0)

    def tidy(arr):
        arr = np.asarray(arr)
        spread = float(arr.max() / arr.min())
        trend_ok = bool(np.all(arr[1:] <= 1.05 * arr[:-1]))
        return spread, trend_ok

    d_spread, d_trend = tidy(disp_ratio)
    r_spread, r_trend = tidy(rem_ratio)
    ok = (d_spread < 1e2 and r_spread < 1e2 and d_trend and r_trend
          and max(times) < 60.0)
    verdict(3, "transform distance and remainder", ok,
             f"|Phi-Id|/mu spread={d_spread:.1f}, rem/(eps*mu) spread="
             f"{r_spread:.1f}, nondecreasing trends: none, "
             f"slowest eps {max(times):.1f}s")


def test_gate_4_composition_identity_on_grid(verdict):
    """The series produced by the transform agrees with numerically flowing
    the input Hamiltonian, to 1e-9 sup over a 32x32 angle grid (physical
    units)."""
    eps = 1e-3
    nf = one_step_normal_form(prepare_time_scaled(_family(eps)), golden_vec())
    h_in = nf.spec_in.combined_series().compile()
    h_out = nf.spec_out.combined_series().compile()
    g = np.linspace(0.0, 1.0, 32, endpoint=False)
    a, b = np.meshgrid(g, g, indexing="ij")
    TH = np.stack([a.ravel(), b.ravel()], axis=1)
    AC = np.tile(np.array([0.12, -0.07]), (TH.shape[0], 1))
    thf, acf = _batch_flow(nf.flow_generator().terms(), TH, AC)
    # both sides live in the fast frame; eps converts to physical energy units
    sup = eps * float(np.max(np.abs(h_in.batch_value(thf, acf)
                                    - h_out.batch_value(TH, AC))))
    ok = sup < 1e-9
    verdict(4, "composition identity", ok,
             f"sup over 32x32 grid = {sup:.2e}, gate 1e-9")


def golden_vec():
    return fa.make_test_frequency("golden")


def test_gate_5_newton_convergence_and_long_time_check(verdict):
    """Single harmonic at amplitude 1e-4: Newton reaches defect < 1e-10 in
    at most 6 sweeps with quadratic decay, and trajectories started on the
    torus track the rigid rotation to < 1e-6 over t = 1e3; under 120 s."""
    t0 = time.perf_counter()
    amp = 1e-4
    quad = quadratic_from_matrices(2, A0, [((1, 0), amp * B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05 * amp)
    spec = HamiltonianSpec(omega=golden_vec().components, quad=quad, rest=rest,
                           epsilon=1.0, state=TIME_SCALED, omega_prefactor=1.0)
    I_seed = np.array([0.3, -0.2])
    emb = solve_torus(spec, I_seed, grid=64, tol=1e-12,
                      target=certify_target(spec, I_seed, grid=64))
    defects = emb.diagnostics["newton_defects"]
    sweeps = emb.diagnostics["iterations"]
    # quadratic decay shows as log d_{k+1} / log d_k near 2 on the first
    # uncontaminated pair (later pairs sit on the roundoff floor)
    log_ratio = float(np.log(defects[1]) / np.log(defects[0]))
    report = verify_by_integration(spec, emb, t_final=1e3, step=1e-2,
                                   method="dop853")
    elapsed = time.perf_counter() - t0
    ok = (sweeps <= 6
          and all(d1 < d0 for d0, d1 in zip(defects, defects[1:]))
          and 1.6 <= log_ratio <= 3.0
          and defects[-1] < 1e-10
          and report["max_deviation"] < 1e-6
          and elapsed < 120.0)
    verdict(5, "newton convergence and long-time check", ok,
             f"{sweeps} sweeps, defects {defects[0]:.1e}->{defects[-1]:.1e}, "
             f"log-ratio {log_ratio:.2f}, deviation "
             f"{report['max_deviation']:.1e} over t=1e3, {elapsed:.0f}s")


def test_gate_6_complement_measure_exponent_two_densities(verdict):
    """The non-converged complement fraction scales like mu^p with p in
    [0.4, 0.6] over at least two decades of mu, and the bracket constants
    agree within a factor of 2 between sampling densities 192 and 384."""
    fits = {}
    for density in (192, 384):
        plan = ms.ScanPlan(base=_family(1.0), freq=golden_vec(),
                           epsilons=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                           density=density)
        fits[density] = ms.fit_scaling(ms.run_plan(plan))
    lo, hi = fits[192], fits[384]
    ratio_low = max(lo.c_low, hi.c_low) / min(lo.c_low, hi.c_low)
    ratio_high = max(lo.c_high, hi.c_high) / min(lo.c_high, hi.c_high)
    finite = all(np.isfinite(f.c_low) and np.isfinite(f.c_high) and f.c_low > 0
                 for f in fits.values())
    ok = (all(0.4 <= f.exponent <= 0.6 for f in fits.values())
          and finite and ratio_low < 2.0 and ratio_high < 2.0)
    verdict(6, "complement measure exponent", ok,
             f"exponents {lo.exponent:.3f}/{hi.exponent:.3f}, "
             f"bracket drift low x{ratio_low:.2f} high x{ratio_high:.2f}")


def test_gate_7_gevrey_forecast_arithmetic_only(verdict):
    """With regularity index 1 the flatness scale obeys nu <= mu^2 on every
    sweep used above, and the forecast of normalized complements collapses
    exponentially; pure arithmetic, under 1 s."""
    t0 = time.perf_counter()
    golden = golden_vec()
    sweep = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    rows = ms.gevrey_forecast(golden, sweep, alpha=1.0)
    dense = ms.gevrey_forecast(golden, tuple(np.geomspace(1e-1, 1e-6, 11)),
                               alpha=1.0)
    bound_ok = all(r["nu"] <= r["mu"] ** 2 for r in rows + dense)
    preds = [r["predicted_complement"] for r in rows]
    exact_ok = all(r["predicted_complement"] == np.sqrt(r["nu"]) for r in rows)
    # exponentially small: successive predictions drop by > 1e5 each decade
    collapse_ok = all(p1 < 1e-5 * p0 for p0, p1 in zip(preds, preds[1:])
                      if p0 > 0.0)
    elapsed = time.perf_counter() - t0
    ok = bound_ok and exact_ok and collapse_ok and elapsed < 1.0
    verdict(7, "gevrey forecast", ok,
             f"nu<=mu^2 on {len(rows) + len(dense)} points, predictions "
             f"{preds[0]:.1e}->{preds[-1]:.1e}, {elapsed * 1e3:.0f}ms")


def _artifact_sweep(root: Path, tag: str) -> dict:
    """Run every artifact-writing command into root/tag, return path->bytes."""
    runner = CliRunner()
    inputs = root / "inputs"
    if not inputs.exists():
        inputs.mkdir()
        (inputs / "omega.json").write_text(json.dumps({"name": "golden"}))
        (inputs / "spec.json").write_text(json.dumps(_family(1e-3).to_record()))
        plan = ms.ScanPlan(base=_family(1.0), freq=golden_vec(),
                           epsilons=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                           density=48, gevrey_alpha=1.0)
        (inputs / "plan.json").write_text(json.dumps(plan.to_record()))
    out = root / tag
    runs = [
        ["freq", "--omega", inputs / "omega.json", "--qmax", 60,
         "--eps", "1e-2", "--eps", "1e-3", "--alpha", "1.0",
         "--out", out / "freq"],
        ["nf", "--spec", inputs / "spec.json", "--out", out / "nf"],
        ["torus", "--spec", inputs / "spec.json", "--i0", "0.3,-0.2",
         "--grid", 32, "--t-final", 50, "--out", out / "torus"],
        ["scan", "--plan", inputs / "plan.json", "--out", out / "scan"],
        ["probe", "--spec", inputs / "spec.json", "--t", 20, "--h", 0.01,
         "--points", 2, "--out", out / "probe"],
    ]
    for args in runs:
        res = runner.invoke(cli.main, [str(a) for a in args])
        assert res.exit_code == 0, f"{args[0]}: {res.output}"
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_gate_8_artifacts_byte_identical_across_reruns(tmp_path, verdict):
    """Every artifact-producing run, repeated, yields byte-identical files."""
    first = _artifact_sweep(tmp_path, "run_a")
    second = _artifact_sweep(tmp_path, "run_b")
    same_names = sorted(first) == sorted(second)
    diffs = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not diffs and len(first) >= 10
    verdict(8, "artifact reproducibility", ok,
             f"{len(first)} files across 5 commands, {len(diffs)} differ")
