"""Torus solver: exact conjugation oracle, convergence, gates, round trips."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kamlab import freq_arith as fa
from kamlab.errors import (
    KamlabError,
    KolmogorovDegenerate,
    NonConvergence,
    OutsideImage,
    SmallDivisorBreakdown,
)
from kamlab.fourier_taylor import (
    CompiledSeries,
    FourierTaylorSeries,
    HamiltonianSpec,
    quadratic_from_matrices,
)
from kamlab.measure_scan import ball_samples
from kamlab.normal_form import one_step_normal_form, prepare_time_scaled
from kamlab import torus_solver as ts

A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B = np.array([[0.3, 0.1], [0.1, 0.2]])
I_T = np.array([0.3, -0.2])


def family_spec(eps=1e-3):
    freq = fa.make_test_frequency("golden")
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05) \
        + FourierTaylorSeries.cosine(2, (0, 1), (0, 3), 0.02)
    spec = HamiltonianSpec(omega=freq.components, quad=quad, rest=rest,
                           epsilon=eps, state="physical")
    return prepare_time_scaled(spec), freq


@pytest.fixture(scope="module")
def solved():
    h3, _ = family_spec()
    return h3, ts.solve_torus(h3, I_T, tau=1.5, grid=64)


def shear_spec(a=0.02, eps=1e-3):
    """H0(I - grad S) with H0 integrable; the torus at J0 is known exactly."""
    freq = fa.make_test_frequency("golden")
    w = freq.components
    P = 1.0 / eps
    k0 = np.array([1, 1])
    quad = quadratic_from_matrices(2, A0, [])
    Ak0 = A0 @ k0.astype(float)
    rest = FourierTaylorSeries.cosine(2, tuple(k0), None, -P * a * float(w @ k0))
    for j in range(2):
        m = [0, 0]
        m[j] = 1
        rest = rest + FourierTaylorSeries.cosine(2, tuple(k0), tuple(m),
                                                 -2.0 * a * Ak0[j])
    c3 = a * a * float(k0 @ A0 @ k0)
    rest = rest + FourierTaylorSeries.monomial(2, (0, 0), 0.5 * c3) \
        + FourierTaylorSeries.cosine(2, tuple(2 * k0), None, 0.5 * c3)
    spec = HamiltonianSpec(omega=w, quad=quad, rest=rest, epsilon=eps,
                           state="time_scaled", omega_prefactor=P)
    return spec, a, k0


def test_exact_shear_oracle():
    spec, a, k0 = shear_spec()
    J0 = np.array([0.25, -0.15])
    emb = ts.solve_torus(spec, J0, tau=1.5, grid=32)
    assert emb.diagnostics["iterations"] <= 8
    assert np.max(np.abs(emb.I0 - J0)) < 1e-13
    assert emb.diagnostics["sup_u"] < 1e-14
    phis = np.array([[0.1, 0.2], [0.37, 0.81], [0.66, 0.04]])
    th, act = emb.embed(phis)
    v_exact = a * np.cos(2 * math.pi * (phis @ k0))[:, None] * k0[None, :]
    assert np.max(np.abs(act - (J0[None, :] + v_exact))) < 1e-12
    assert np.max(np.abs(th - phis)) < 1e-13
    Omega_exact = spec.omega_prefactor * spec.omega + 2 * A0 @ J0
    assert np.max(np.abs(emb.target.Omega - Omega_exact)) < 1e-10


def test_certify_target_shift_matches_frequency_map():
    h3, _ = family_spec()
    tgt = ts.certify_target(h3, I_T, tau=1.5)
    # averaged map: 2 A0 I plus the eps-suppressed cubic derivative
    shift_exact = 2 * A0 @ I_T + np.array([3 * 0.05 * 1e-3 * I_T[0] ** 2, 0.0])
    assert np.allclose(tgt.shift, shift_exact, rtol=0, atol=1e-15)
    # auto-gamma certificate, frozen bit for bit before the divisor table and
    # diophantine_check shared one floor routine
    assert tgt.gamma == 0.6116853488623959
    assert tgt.margin == 1.0101010101010102
    assert np.allclose(tgt.omega_slow, 1e-3 * tgt.Omega, rtol=1e-15, atol=0)


def test_newton_converges_fast(solved):
    _, emb = solved
    d = emb.diagnostics
    assert d["iterations"] <= 8
    assert d["final_defect"] <= 1e-11
    defects = d["newton_defects"]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert np.allclose(emb.I0, [0.30000889893426003, -0.20000221832181322],
                       rtol=1e-12, atol=0)
    assert d["sup_u"] == pytest.approx(2.2264020732037014e-05, rel=1e-9)
    assert d["sup_v"] == pytest.approx(2.2989795077686387e-05, rel=1e-9)


def test_gauge_and_invariants(solved):
    _, emb = solved
    d = emb.diagnostics
    assert d["mean_u"] == 0.0
    assert d["mean_v"] == 0.0
    for j in range(emb.n):
        assert emb.u_hat[j].ravel()[0] == 0.0
        assert emb.v_hat[j].ravel()[0] == 0.0
    assert d["energy_variation"] < 1e-12
    assert d["lagrangian_defect"] < 1e-12


def test_grid_doubling_changes_nothing(solved):
    h3, emb = solved
    emb2 = ts.solve_torus(h3, I_T, tau=1.5, grid=128)
    assert np.max(np.abs(emb.I0 - emb2.I0)) < 1e-14
    phis = np.array([[0.13, 0.77], [0.5, 0.25], [0.901, 0.333]])
    t1, a1 = emb.embed(phis)
    t2, a2 = emb2.embed(phis)
    assert np.max(np.abs(t1 - t2)) < 1e-13
    assert np.max(np.abs(a1 - a2)) < 1e-13


def test_embed_matches_grid_points(solved):
    _, emb = solved
    th_g, I_g = emb.grid_points()
    th_e, I_e = emb.embed(emb.grid_phis())
    assert np.max(np.abs(th_g - th_e)) < 1e-15
    assert np.max(np.abs(I_g - I_e)) < 1e-15


def test_grid_evaluations_match_embed(monkeypatch):
    # invariance_defect (own and doubled grid) and pull_back evaluate the
    # embedding on grids by inverse FFT; the separable embed must agree
    h3, freq = family_spec()
    emb = ts.solve_torus(h3, I_T, tau=1.5, grid=16)
    nf = one_step_normal_form(h3, freq)
    embed = ts.TorusEmbedding.embed
    seen = []
    raw = CompiledSeries.batch_field

    def spy(comp, theta, I):
        seen.append((theta.copy(), I.copy()))
        return raw(comp, theta, I)

    def refuse(self, phi):
        raise AssertionError("grid evaluated through embed")
    monkeypatch.setattr(CompiledSeries, "batch_field", spy)
    monkeypatch.setattr(ts.TorusEmbedding, "embed", refuse)
    for run, grid in ((lambda: ts.invariance_defect(h3, emb), 16),
                      (lambda: ts.invariance_defect(h3, emb, grid=32), 32),
                      (lambda: ts.pull_back(emb, physical_radius=1.0, nf=nf), 16)):
        seen.clear()
        run()
        theta, acts = seen[0]               # the first evaluation sees the grid
        want_theta, want_acts = embed(emb, ts._grid_phis(grid, 2))
        assert theta.shape == (grid * grid, 2)
        assert np.max(np.abs(theta - want_theta)) <= 1e-14
        assert np.max(np.abs(acts - want_acts)) <= 1e-14


def test_embed_single_equals_batch(solved):
    # one angle is the stack of one, and gives its row of a larger stack
    _, emb = solved
    phis = np.array([[0.13, 0.77], [0.31, 0.64], [0.901, 0.333]])
    th1, a1 = emb.embed(phis[1:2])
    th2, a2 = emb.embed(phis)
    assert th1.shape == (1, 2)
    assert np.array_equal(th1[0], th2[1])
    assert np.array_equal(a1[0], a2[1])


def test_verification_midpoint_and_dop853(solved):
    h3, emb = solved
    rep = ts.verify_by_integration(h3, emb, t_final=20.0, step=1e-2, n_points=1,
                                   method="midpoint")
    assert rep["max_theta_error"] < 1e-8
    assert rep["max_action_error"] < 1e-9
    assert rep["energy_drift"] < 1e-8
    # dop853 is the default
    rep2 = ts.verify_by_integration(h3, emb, t_final=20.0, step=0.05, n_points=1)
    assert rep2["method"] == "dop853"
    assert rep2["max_theta_error"] < 1e-10
    assert rep2["max_action_error"] < 1e-10


def test_record_round_trip(solved):
    _, emb = solved
    rec = emb.to_record()
    back = ts.TorusEmbedding.from_record(rec)
    assert np.array_equal(emb.I0, back.I0)
    phis = np.array([[0.21, 0.43], [0.9, 0.05]])
    t1, a1 = emb.embed(phis)
    t2, a2 = back.embed(phis)
    assert np.array_equal(t1, t2)
    assert np.array_equal(a1, a2)
    assert back.target.gamma == emb.target.gamma
    assert back.target.q_max == emb.target.q_max
    with pytest.raises(ValueError):
        ts.TorusEmbedding.from_record({"record": "something_else"})


def test_certification_rejects_excessive_gamma():
    h3, _ = family_spec()
    with pytest.raises(SmallDivisorBreakdown):
        ts.certify_target(h3, I_T, gamma=1.5, tau=1.5)


@pytest.mark.parametrize("name, value", [
    ("gamma", -1.0), ("gamma", 0.0), ("gamma", math.nan), ("gamma", math.inf),
    ("tau", -1.0), ("tau", 0.0), ("tau", math.nan), ("tau", math.inf)])
def test_certification_refuses_gamma_or_tau_not_finite_and_positive(name, value):
    # unrefused, each certified a target carrying that gamma or tau, with
    # margin inf; the stacked certification the scan uses refuses them too
    h3, _ = family_spec()
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        ts.certify_target(h3, I_T, **{name: value})
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        ts._certify_stack(h3, I_T[None], **{"gamma": 0.01, "tau": 1.5, name: value},
                          q_max=None, grid=16)
    # a tau at or below n - 1 is a certificate of its own, and stays allowed
    assert ts.certify_target(h3, I_T, tau=1.0, grid=16).tau == 1.0


def test_newton_needs_one_sweep_at_least():
    # max_iter 0 used to end in an IndexError on the empty defect history
    h3, _ = family_spec()
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            ts.solve_torus(h3, I_T, grid=16, max_iter=max_iter)
    # tol inf used to stop after one sweep at the unsolved start, and tol 0,
    # -1 or nan to run every sweep and report NonConvergence
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            ts.solve_torus(h3, I_T, grid=16, tol=tol)


def test_divisor_floor_violation_mid_solve():
    # near-resonant frequency certified only on |k|_1 <= 2; the grid then
    # exposes the k = (1, -2) mode, which must trip the half-floor guard
    freq_bad = np.array([1.0, 0.5 + 1e-9])
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    spec = HamiltonianSpec(omega=freq_bad, quad=quad, rest=rest,
                           epsilon=1e-3, state="physical")
    b3 = prepare_time_scaled(spec)
    tgt = ts.certify_target(b3, np.zeros(2), tau=1.0, q_max=2)
    assert tgt.margin >= 1.0
    with pytest.raises(SmallDivisorBreakdown, match=r"k=\(1, -2\)"):
        ts.solve_torus(b3, np.zeros(2), grid=8, target=tgt)


def test_given_target_is_rechecked_at_its_own_tau():
    # k = (1, -2) has |k.w| = 0.06, below half the tau = 1 floor (0.0825) and
    # above half the tau = 1.5 one (0.048): a target certified at tau = 1
    # trips it whatever tau solve_torus is handed
    freq = np.array([1.0, 0.53])
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05)
    b3 = prepare_time_scaled(HamiltonianSpec(omega=freq, quad=quad, rest=rest,
                                             epsilon=1e-3, state="physical"))
    tgt = ts.certify_target(b3, np.zeros(2), tau=1.0, q_max=2)
    for tau in (1.0, 1.5, 2.0):
        with pytest.raises(SmallDivisorBreakdown, match=r"k=\(1, -2\)"):
            ts.solve_torus(b3, np.zeros(2), tau=tau, grid=8, target=tgt)
    # certified at tau = 1.5 the same mode passes, whatever tau is handed
    tgt = ts.certify_target(b3, np.zeros(2), tau=1.5, q_max=2)
    want = ts.solve_torus(b3, np.zeros(2), grid=8, target=tgt)
    for tau in (1.0, 1.5):
        got = ts.solve_torus(b3, np.zeros(2), tau=tau, grid=8, target=tgt)
        assert got.to_record() == want.to_record()


def test_degenerate_twist_gate():
    freq = fa.make_test_frequency("golden")
    qdeg = quadratic_from_matrices(2, np.array([[1.0, 1.0], [1.0, 1.0]]), [])
    spec = HamiltonianSpec(
        omega=freq.components, quad=qdeg,
        rest=FourierTaylorSeries.cosine(2, (1, 0), (0, 3), 0.05),
        epsilon=1e-3, state="physical")
    d3 = prepare_time_scaled(spec)
    with pytest.raises(KolmogorovDegenerate):
        ts.solve_torus(d3, I_T, tau=1.5, grid=16)


def test_nonconvergence_paths():
    h3, _ = family_spec()
    with pytest.raises(NonConvergence):
        ts.solve_torus(h3, I_T, tau=1.5, grid=32, max_iter=2)
    with pytest.raises(NonConvergence, match="stagnated"):
        ts.solve_torus(h3, I_T, tau=1.5, grid=32, tol=1e-17)


def test_odd_or_tiny_grid_rejected():
    h3, _ = family_spec()
    with pytest.raises(ValueError):
        ts.solve_torus(h3, I_T, grid=33)
    with pytest.raises(ValueError):
        ts.solve_torus(h3, I_T, grid=2)


def test_grid_beyond_the_point_budget_rejected(solved):
    h3, emb = solved
    # 1024^2 points per torus are past the budget, refused before the
    # certification enumerates q_max = 2048 shells
    with pytest.raises(ValueError, match="budget"):
        ts.solve_torus(h3, I_T, grid=1024)
    with pytest.raises(ValueError, match="budget"):
        ts.invariance_defect(h3, emb, grid=1024)
    ts.check_grid(512, 2)
    with pytest.raises(ValueError, match="budget"):
        ts.check_grid(128, 3)


def test_non_finite_target_frequency_fails_certification():
    # a NaN frequency has no divisor floor, so it cannot pass (it used to,
    # with gamma inf or a margin nan); a spec refuses a NaN omega outright
    h3, _ = family_spec()
    with pytest.raises(ValueError, match="'omega'"):
        replace(h3, omega=np.array([math.nan, 1.0]))
    nan_omega = replace(h3)
    nan_omega.omega = np.array([math.nan, 1.0])
    for spec, I_target in ((nan_omega, I_T), (h3, np.array([math.nan, 0.0]))):
        for gamma in (None, 0.1):
            with pytest.raises(SmallDivisorBreakdown, match="not finite"):
                ts.certify_target(spec, I_target, gamma=gamma, tau=1.5)
    # in a stack, the finite targets keep the certificates they get alone
    stack = ts._certify_stack(h3, np.array([[math.nan, 0.0], I_T]), None, 1.5, None, 64)
    assert isinstance(stack[0], SmallDivisorBreakdown)
    assert stack[1].gamma == ts.certify_target(h3, I_T, tau=1.5).gamma


def test_pull_back_scales_actions(solved):
    _, emb = solved
    phys = ts.pull_back(emb, physical_radius=1.0)
    assert phys.frame == "physical"
    assert np.allclose(phys.I0, 1e-3 * emb.I0, rtol=0, atol=0)
    phis = np.array([[0.4, 0.9]])
    th_s, act_s = emb.embed(phis)
    th_p, act_p = phys.embed(phis)
    assert np.array_equal(th_p, th_s)
    assert np.max(np.abs(act_p - 1e-3 * act_s)) < 1e-18
    with pytest.raises(OutsideImage):
        ts.pull_back(emb, physical_radius=3e-4)


def test_normal_form_output_flattens_torus(solved):
    h3, emb_in = solved
    freq = fa.make_test_frequency("golden")
    res = one_step_normal_form(h3, freq)
    emb_out = ts.solve_torus(res.spec_out, I_T, tau=1.5, grid=64)
    # the oscillating part was transformed away up to mu * f~, so the
    # embedding offsets collapse by orders of magnitude
    assert emb_out.diagnostics["sup_u"] < emb_in.diagnostics["sup_u"] / 50.0
    assert np.max(np.abs(emb_out.I0 - I_T)) < 1e-7
    rep = ts.verify_by_integration(res.spec_out, emb_out, t_final=20.0,
                                   step=1e-2, n_points=1, method="midpoint")
    assert rep["max_theta_error"] < 1e-9


def test_integrable_spec_converges_in_one_sweep():
    freq = fa.make_test_frequency("golden")
    integ = HamiltonianSpec(omega=freq.components,
                            quad=quadratic_from_matrices(2, A0, []),
                            rest=FourierTaylorSeries.zero(2),
                            epsilon=1e-3, state="time_scaled",
                            omega_prefactor=1e3)
    emb = ts.solve_torus(integ, I_T, tau=1.5, grid=8)
    assert emb.diagnostics["iterations"] == 1
    assert emb.defect_norm == 0.0
    assert np.array_equal(emb.I0, I_T)
    assert not np.any(emb.u_hat) and not np.any(emb.v_hat)
    # the counterterm is the exact twist image of the target point
    assert np.allclose(emb.target.shift, 2.0 * A0 @ I_T, rtol=0, atol=1e-15)


def test_gauge_uniqueness_under_seed_perturbation():
    h3, _ = family_spec()
    target = ts.certify_target(h3, I_T, tau=1.5)
    base = ts.solve_torus(h3, I_T, tau=1.5, grid=32, target=target)
    for off in ([1e-3, -2e-3], [-5e-4, 5e-4]):
        pert = ts.solve_torus(h3, I_T + np.array(off), tau=1.5, grid=32,
                              target=target)
        assert np.max(np.abs(pert.I0 - base.I0)) < 1e-9
        assert np.max(np.abs(pert.u_hat - base.u_hat)) < 1e-9
        assert np.max(np.abs(pert.v_hat - base.v_hat)) < 1e-9


def test_invariance_defect_stable_under_grid_doubling(solved):
    h3, emb = solved
    d_own = ts.invariance_defect(h3, emb)
    d_fine = ts.invariance_defect(h3, emb, grid=128)
    assert d_own < 1e-10 and d_fine < 1e-10
    # on its own grid the checker computes the Newton sweep's defect
    assert d_own == emb.defect_norm
    # the torus is fully resolved, so refining the quadrature grid can
    # only move the measured defect at roundoff level
    assert abs(d_own - d_fine) < 1e-12


def test_iterations_monotone_as_perturbation_shrinks():
    counts = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        h3, _ = family_spec(eps)
        emb = ts.solve_torus(h3, I_T, tau=1.5, grid=32)
        counts.append(emb.diagnostics["iterations"])
    assert counts[0] >= counts[1] >= counts[2]


def test_pull_back_through_transform_preserves_defect():
    freq = fa.make_test_frequency("golden")
    quad = quadratic_from_matrices(2, A0, [((1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.05) \
        + FourierTaylorSeries.cosine(2, (0, 1), (0, 3), 0.02)
    phys = HamiltonianSpec(omega=freq.components, quad=quad, rest=rest,
                           epsilon=1e-3, state="physical")
    h3 = prepare_time_scaled(phys)
    nf = one_step_normal_form(h3, freq)
    emb = ts.solve_torus(nf.spec_out, I_T, tau=1.5, grid=32)
    pulled = ts.pull_back(emb, physical_radius=1.0, nf=nf)
    assert pulled.frame == "physical"
    d_phys = ts.invariance_defect(phys, pulled)
    assert d_phys <= 10.0 * emb.defect_norm
    # dropping the conjugation leaves the full oscillating defect behind
    naive = ts.pull_back(emb, physical_radius=1.0)
    assert ts.invariance_defect(phys, naive) > 1e-5


def test_pull_back_rejects_torus_inside_margin(monkeypatch):
    h3, _ = family_spec()
    nf = one_step_normal_form(h3, fa.make_test_frequency("golden"))
    emb = ts.solve_torus(nf.spec_out, np.array([0.9, -0.3]), tau=1.5, grid=32)
    with pytest.raises(OutsideImage, match="margin"):
        ts.pull_back(emb, physical_radius=1.0, nf=nf)
    monkeypatch.setattr(ts, "PULLBACK_MARGIN_COEFF", 0.2)
    ok = ts.pull_back(emb, physical_radius=1.0, nf=nf)
    assert ok.frame == "physical"


def cubic_spec(eps=1e-3):
    """n=3 family over the cubic-field frequency (1, 2^(1/3), 4^(1/3))."""
    omega = np.array([1.0, 2 ** (1 / 3), 4 ** (1 / 3)])
    A = np.array([[1.0, 0.2, 0.1], [0.2, 0.9, 0.15], [0.1, 0.15, 0.8]])
    B3 = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.1]])
    quad = quadratic_from_matrices(3, A, [((1, 0, 0), B3, None),
                                          ((0, 1, -1), 0.5 * B3, None)])
    rest = FourierTaylorSeries.monomial(3, (3, 0, 0), 0.05) \
        + FourierTaylorSeries.cosine(3, (0, 1, 1), (0, 2, 1), 0.02)
    return prepare_time_scaled(HamiltonianSpec(omega=omega, quad=quad, rest=rest,
                                               epsilon=eps, state="physical"))


def test_n3_torus_spectral_paths():
    # every stacked FFT path at n=3: the solve, the record, the defect on its
    # own and a doubled grid, grid evaluation and the Lagrangian check
    h3 = cubic_spec()
    emb = ts.solve_torus(h3, np.array([0.2, -0.1, 0.15]), tau=1.5, grid=8)
    assert emb.diagnostics["iterations"] <= 6 and emb.defect_norm < 1e-11
    rec = emb.to_record()
    assert ts.TorusEmbedding.from_record(rec).to_record() == rec
    assert ts.invariance_defect(h3, emb) == emb.defect_norm
    assert abs(ts.invariance_defect(h3, emb, grid=16) - emb.defect_norm) < 1e-13
    th_g, I_g = emb.grid_points()
    th_e, I_e = emb.embed(emb.grid_phis())
    assert th_g.shape == (8 ** 3, 3)
    assert np.max(np.abs(th_g - th_e)) < 1e-14
    assert np.max(np.abs(I_g - I_e)) < 1e-14
    assert ts.lagrangian_defect(emb) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_embed_matches_dense_phase_sum(solved, n):
    # the separable embed against the sum over every mode of the grid, through
    # a dense (N, grid^n) phase matrix, for a stack of angles and a stack of one
    emb = solved[1] if n == 2 else ts.solve_torus(
        cubic_spec(), np.array([0.2, -0.1, 0.15]), tau=1.5, grid=8)
    freqs = np.fft.fftfreq(emb.grid, d=1.0 / emb.grid)
    modes = np.stack([m.ravel() for m in np.meshgrid(*([freqs] * n), indexing="ij")],
                     axis=1)
    phis = np.random.default_rng(n).uniform(0, 1, (9, n))
    phases = np.exp(2j * math.pi * (phis @ modes.T))
    want_theta = phis + (phases @ emb.u_hat.reshape(n, -1).T).real
    want_act = emb.I0 + (phases @ emb.v_hat.reshape(n, -1).T).real
    theta, act = emb.embed(phis)
    assert theta.shape == act.shape == (9, n)
    assert np.max(np.abs(theta - want_theta)) <= 1e-14
    assert np.max(np.abs(act - want_act)) <= 1e-14
    theta, act = emb.embed(phis[4:5])
    assert theta.shape == act.shape == (1, n)
    assert np.max(np.abs(theta - want_theta[4])) <= 1e-14
    assert np.max(np.abs(act - want_act[4])) <= 1e-14


def test_lagrangian_defect_closed_form():
    # u = (a cos 2 pi phi_2, c sin 2 pi phi_1), v = (b sin 2 pi phi_1,
    # d cos 2 pi phi_2): with s2 = sin 2 pi phi_2 and c1 = cos 2 pi phi_1,
    #   Du = 2 pi [[0, -a s2], [c c1, 0]],  Dv = 2 pi [[b c1, 0], [0, -d s2]],
    # and (Id + Du)^T Dv minus its transpose has off-diagonal entries
    # +-4 pi^2 (ab - cd) c1 s2, whose largest size on a grid of 8 is at
    # phi = (0, 1/4)
    a, b, c, d = 0.01, 0.02, 0.03, 0.005
    u_hat = np.zeros((2, 8, 8), dtype=complex)
    v_hat = np.zeros((2, 8, 8), dtype=complex)
    u_hat[0, 0, 1] = u_hat[0, 0, -1] = a / 2
    u_hat[1, 1, 0], u_hat[1, -1, 0] = c / 2j, -c / 2j
    v_hat[0, 1, 0], v_hat[0, -1, 0] = b / 2j, -b / 2j
    v_hat[1, 0, 1] = v_hat[1, 0, -1] = d / 2
    emb = ts.TorusEmbedding(grid=8, I0=np.zeros(2), u_hat=u_hat, v_hat=v_hat,
                            target=None, epsilon=1.0)
    phis = emb.grid_phis()
    theta, acts = emb.grid_points()
    assert np.max(np.abs(theta - phis - np.stack(
        [a * np.cos(2 * math.pi * phis[:, 1]), c * np.sin(2 * math.pi * phis[:, 0])],
        axis=1))) < 1e-15
    expected = 4 * math.pi ** 2 * abs(a * b - c * d)
    assert abs(ts.lagrangian_defect(emb) - expected) < 1e-12


def _same_solve(out, emb):
    """A stacked outcome equals a solve_torus result bit for bit."""
    assert out.error is None
    assert out.history == emb.diagnostics["newton_defects"]
    for got, want in ((out.u_hat, emb.u_hat), (out.v_hat, emb.v_hat), (out.I0, emb.I0)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_n3_stack_equals_single_solves():
    # at n=3 the einsum sums of three terms follow the memory layout, so a
    # stack that is not C-contiguous per sample would drift in the last bits
    h3 = cubic_spec()
    actions = np.array([[0.2, -0.1, 0.15], [-0.3, 0.05, 0.1], [0.1, 0.25, -0.2]])
    targets = [ts.certify_target(h3, I, grid=8) for I in actions]
    outcomes = ts._solve_stack(h3, targets, actions, 8, 1e-11, 30)
    for I, target, out in zip(actions, targets, outcomes):
        _same_solve(out, ts.solve_torus(h3, I, grid=8, target=target))


def twist_spec():
    """Time-scaled A0 I.I + 0.5 I1^3 with a weak (1, 0) modulation: the
    averaged Hessian 2 A0 + diag(3 I1, 0) is singular at I1 = -59/96."""
    quad = quadratic_from_matrices(2, A0, [((1, 0), 0.01 * B, None)])
    rest = FourierTaylorSeries.monomial(2, (3, 0), 0.5)
    return HamiltonianSpec(omega=fa.make_test_frequency("golden").components,
                           quad=quad, rest=rest, epsilon=1.0, state="time_scaled",
                           omega_prefactor=1.0)


def test_stack_drops_each_failure_as_its_single_solve_raises():
    # a converging torus, one cut off by max_iter (6 sweeps to converge
    # alone), one at the singular twist, and one whose certificate the grid
    # breaks: each ends in the stack as solve_torus ends it alone
    spec = twist_spec()
    actions = np.array([[0.3, -0.2], [-0.58, 0.1], [-59 / 96, 0.1], [0.6, 0.3]])
    targets = [ts.certify_target(spec, I, grid=16) for I in actions]
    targets[3] = replace(targets[3], gamma=1e3 * targets[3].gamma)
    kwargs = dict(grid=16, tol=1e-10, max_iter=4)
    outcomes = ts._solve_stack(spec, targets, actions, **kwargs)
    ends = []
    for I, target, out in zip(actions, targets, outcomes):
        try:
            emb = ts.solve_torus(spec, I, target=target, **kwargs)
        except KamlabError as exc:
            assert type(out.error) is type(exc) and str(out.error) == str(exc)
            ends.append(type(exc))
        else:
            _same_solve(out, emb)
            ends.append(None)
    assert ends == [None, NonConvergence, KolmogorovDegenerate, SmallDivisorBreakdown]
    assert [len(out.history) for out in outcomes] == [4, 4, 1, 0]


def test_stack_stalls_as_single_solves_did():
    # below roundoff every torus stalls; 14 sweeps is what solve_torus took
    # for I_T when it solved one torus at a time
    h3, _ = family_spec()
    actions = np.array([I_T, [0.1, 0.25]])
    targets = [ts.certify_target(h3, I, grid=32) for I in actions]
    outcomes = ts._solve_stack(h3, targets, actions, 32, 1e-17, 30)
    for I, target, out in zip(actions, targets, outcomes):
        with pytest.raises(NonConvergence, match="stagnated") as single:
            ts.solve_torus(h3, I, grid=32, tol=1e-17, target=target)
        assert type(out.error) is NonConvergence and str(out.error) == str(single.value)
    assert len(outcomes[0].history) == 14


def test_stack_of_none_solves_nothing():
    h3, _ = family_spec()
    assert ts._solve_stack(h3, [], np.zeros((0, 2)), 16, 1e-10, 30) == []
    assert ts._certify_stack(h3, np.zeros((0, 2)), None, 1.5, None, 16) == []


def test_a_sweep_holds_few_arrays_beside_its_state():
    # a sweep frees its correction temporaries before the next defect and
    # runs its transforms in place: the traced peak of a 64-torus grid-16
    # stack stays within 5x its own u_hat and v_hat (7.6x when every
    # temporary lived until the next sweep rebound it)
    h3, _ = family_spec()
    S, grid = 64, 16
    actions = 0.8 * ball_samples(2, S)
    targets = ts._certify_stack(h3, actions, None, 1.5, None, grid)
    ts._solve_stack(h3, targets, actions, grid, 1e-11, 30)
    tracemalloc.start()
    try:
        outcomes = ts._solve_stack(h3, targets, actions, grid, 1e-11, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(out.error is None for out in outcomes)
    state = 2 * S * 2 * grid ** 2 * np.dtype(complex).itemsize
    assert peak <= 5 * state, f"peak {peak / state:.2f}x the state"


def test_a_sweep_writes_only_into_what_it_allocated():
    # the in-place steps never reach the caller's coefficients or symbols
    h3, _ = family_spec()
    emb = ts.solve_torus(h3, I_T, grid=16)
    rng = np.random.default_rng(5)
    u_hat = np.stack([emb.u_hat, 1e-3 * rng.standard_normal(emb.u_hat.shape)
                      + 1e-3j * rng.standard_normal(emb.u_hat.shape)])
    v_hat = np.stack([emb.v_hat, emb.v_hat[:, ::-1]])
    L_Omega = 2j * math.pi * rng.standard_normal((2, 16, 16))
    I0 = np.stack([emb.I0, emb.I0[::-1]])
    drift = np.stack([emb.target.shift] * 2)
    inputs = (u_hat, v_hat, L_Omega, I0, drift)
    before = [a.tobytes() for a in inputs]
    comp = h3.perturbation(include_extra=True).compile()
    for grid in (16, 32):
        ts._defect(comp, u_hat, v_hat, I0, L_Omega, drift, grid)
        assert [a.tobytes() for a in inputs] == before
        for stack, symbol in ((0, None), (1, None), (1, L_Omega[:, None])):
            hat = u_hat[0] if stack == 0 else u_hat
            kept = hat.tobytes()
            ts._grid_values(hat, grid, stack, symbol)
            assert hat.tobytes() == kept and [a.tobytes() for a in inputs] == before
    for values in (np.swapaxes(u_hat.real, 1, 2), u_hat):
        kept = values.tobytes()
        ts._hat(values, 2)
        assert values.tobytes() == kept
