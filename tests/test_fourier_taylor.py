"""Series calculus: bracket convention, evaluators vs finite differences,
scaling-chain conjugacies, symplectic flow properties."""

import ast
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from oracles import series_field, series_jet

import kamlab
from kamlab import fourier_taylor
from kamlab._dop853 import dop853
from kamlab.errors import KolmogorovDegenerate, NonConvergentStep, StateMismatch
from kamlab.fourier_taylor import (
    CompiledSeries,
    FourierTaylorSeries,
    HamiltonianSpec,
    averaged_quadratic_matrix,
    check_kolmogorov,
    integrate_flow,
    quadratic_from_matrices,
)

N = 2
TH = np.array([0.23, 0.71])
II = np.array([0.4, -0.2])


def value(series, theta, I) -> float:
    """The series at one point, as the batch of one."""
    return float(series.compile().batch_value(theta[None], I[None])[0])


def max_coefficient(series) -> float:
    """The largest |c| of the series' terms, 0 for the zero series."""
    return max((abs(c) for c in series.terms().values()), default=0.0)


def sample_series():
    return (FourierTaylorSeries.cosine(N, (1, -2), m=(2, 1), amplitude=0.7)
            + FourierTaylorSeries.sine(N, (0, 1), m=(0, 3), amplitude=-0.3)
            + FourierTaylorSeries.monomial(N, (1, 1), 0.9))


# -- bracket and derivative conventions ------------------------------------------

def test_bracket_sign_convention():
    # {I1, sin(2 pi th1)} = -2 pi cos(2 pi th1): actions generate -d/dtheta
    I1 = FourierTaylorSeries.monomial(N, (1, 0))
    s1 = FourierTaylorSeries.sine(N, (1, 0))
    br = I1.poisson(s1)
    got = value(br, TH, II)
    assert got == pytest.approx(-2 * math.pi * math.cos(2 * math.pi * TH[0]), rel=1e-14)
    assert br.reality_error() == 0.0


def test_bracket_antisymmetry_and_jacobi():
    f = sample_series()
    g = FourierTaylorSeries.cosine(N, (0, 1), m=(1, 0), amplitude=0.4)
    h = FourierTaylorSeries.monomial(N, (0, 2), 0.5)
    assert max_coefficient(f.poisson(g) + g.poisson(f)) < 1e-15
    jac = f.poisson(g.poisson(h)) + g.poisson(h.poisson(f)) + h.poisson(f.poisson(g))
    assert max_coefficient(jac) < 1e-13


def test_bracket_leibniz():
    f, g = sample_series(), FourierTaylorSeries.cosine(N, (0, 1), m=(1, 0), amplitude=0.4)
    h = FourierTaylorSeries.monomial(N, (1, 1), -0.6)
    lhs = f.poisson(g.product(h))
    rhs = f.poisson(g).product(h) + g.product(f.poisson(h))
    assert max_coefficient(lhs - rhs) < 1e-13


def test_gradients_match_finite_differences():
    c = sample_series().compile()
    h = 1e-6
    gth, gI = c.grad_theta(TH, II), c.grad_I(TH, II)
    hess = c.hess_II(TH, II)
    for j in range(N):
        e = np.zeros(N)
        e[j] = h
        assert gth[j] == pytest.approx(
            (c.value(TH + e, II) - c.value(TH - e, II)) / (2 * h), abs=1e-7)
        assert gI[j] == pytest.approx(
            (c.value(TH, II + e) - c.value(TH, II - e)) / (2 * h), abs=1e-7)
        for k in range(N):
            e2 = np.zeros(N)
            e2[k] = h
            fd = (c.value(TH, II + e + e2) - c.value(TH, II + e - e2)
                  - c.value(TH, II - e + e2) + c.value(TH, II - e - e2)) / (4 * h * h)
            assert hess[j, k] == pytest.approx(fd, abs=1e-4)


def test_batched_evaluators_match_single_point():
    c = sample_series().compile()
    rng = np.random.default_rng(11)
    TH_b = rng.uniform(0, 1, (7, N))
    II_b = rng.uniform(-0.5, 0.5, (7, N))
    bv = c.batch_value(TH_b, II_b)
    bg = c.batch_grad_theta(TH_b, II_b)
    bgI = c.batch_grad_I(TH_b, II_b)
    bh = c.batch_hess_II(TH_b, II_b)
    for i in range(7):
        assert bv[i] == pytest.approx(c.value(TH_b[i], II_b[i]), abs=1e-14)
        assert np.allclose(bg[i], c.grad_theta(TH_b[i], II_b[i]), atol=1e-13)
        assert np.allclose(bgI[i], c.grad_I(TH_b[i], II_b[i]), atol=1e-13)
        assert np.allclose(bh[i], c.hess_II(TH_b[i], II_b[i]), atol=1e-13)
    # a single point is the batch of one, bit for bit (rows of a larger
    # batch may round differently: BLAS and reductions block by size)
    th, act = TH_b[0], II_b[0]
    for name in ("value", "grad_theta", "grad_I", "hess_II"):
        one = getattr(c, "batch_" + name)(th[None], act[None])[0]
        assert np.array_equal(getattr(c, name)(th, act), one)


def _random_series(rng, n, constant_axis=None):
    series = FourierTaylorSeries.zero(n)
    for i in range(12):
        make = FourierTaylorSeries.cosine if i % 2 else FourierTaylorSeries.sine
        k, m = rng.integers(-3, 4, n), rng.integers(0, 5, n)
        if constant_axis is not None:
            m[constant_axis] = 0
        series = series + make(n, k, m, rng.normal())
    return series


@pytest.mark.parametrize("case", [2, 3, "zero", "constant-in-I2", "n1"])
def test_evaluators_match_term_by_term_oracle(case):
    # the nine evaluators against the term-by-term oracle, for random series
    # with n = 2, 3 and 1, the zero series, and one constant in I_2; each
    # single point is also the batch of one, bit for bit.  The oracles' own
    # stacked field, which the acceptance RK4 flows, is held to the same jet
    n = {"zero": 2, "constant-in-I2": 2, "n1": 1}.get(case, case)
    rng = np.random.default_rng(n)
    series = {"zero": lambda: FourierTaylorSeries.zero(n),
              "constant-in-I2": lambda: _random_series(rng, n, constant_axis=1),
              "n1": lambda: _random_series(rng, n)}.get(
        case, lambda: FourierTaylorSeries.monomial(n, (4,) * n, 0.3)
        + _random_series(rng, n))()
    c = series.compile()
    TH_b = rng.uniform(0, 1, (5, n))
    II_b = rng.uniform(-0.9, 0.9, (5, n))
    jets = [series_jet(series.terms(), th, act) for th, act in zip(TH_b, II_b)]
    want = [np.array(q) for q in zip(*jets)]
    value, g_th, g_I, hess = want
    field = [np.concatenate(c.canonical_field(th, act)) for th, act in zip(TH_b, II_b)]
    got = {
        "batch_value": (c.batch_value(TH_b, II_b), value),
        "batch_grad_theta": (c.batch_grad_theta(TH_b, II_b), g_th),
        "batch_grad_I": (c.batch_grad_I(TH_b, II_b), g_I),
        "batch_hess_II": (c.batch_hess_II(TH_b, II_b), hess),
        "canonical_field": (np.array(field), np.concatenate([g_I, -g_th], axis=1)),
        "oracle series_field": (np.concatenate(series_field(series.terms(), TH_b, II_b),
                                               axis=1), np.concatenate([g_I, g_th], axis=1)),
    }
    for name, expected in zip(("value", "grad_theta", "grad_I", "hess_II"), want):
        point = getattr(c, name)
        got[name] = (np.array([point(th, act) for th, act in zip(TH_b, II_b)]), expected)
        for th, act in zip(TH_b, II_b):
            assert np.array_equal(point(th, act),
                                  getattr(c, "batch_" + name)(th[None], act[None])[0])
    for name, (have, expected) in got.items():
        assert have.shape == expected.shape, name
        # exact zeros where the oracle's are exact
        assert np.all(have[expected == 0] == 0), name
        err = np.max(np.abs(have - expected)) / (np.max(np.abs(expected)) or 1.0)
        assert err <= 1e-12, name


@pytest.mark.parametrize("n, case", [(2, "random"), (3, "random"), (2, "no-actions"),
                                     (3, "no-actions")])
@pytest.mark.parametrize("points", [1, 8, 1024])
def test_batch_field_is_bit_identical(n, case, points):
    # one phase and one monomial table for both halves of the field, and the
    # same GEMMs as the two gradients evaluated apart
    rng = np.random.default_rng(10 * n + points)
    if case == "random":
        series = FourierTaylorSeries.monomial(n, (4,) * n, 0.3) + _random_series(rng, n)
    else:
        series = (FourierTaylorSeries.cosine(n, (1,) * n, amplitude=0.7)
                  + FourierTaylorSeries.sine(n, (0,) * (n - 1) + (2,), amplitude=-0.3))
    c = series.compile()
    assert (series.action_degree() == 0) == (case == "no-actions")
    theta = rng.uniform(0, 1, (points, n))
    acts = rng.uniform(-0.9, 0.9, (points, n))
    grad_I, grad_theta = c.batch_field(theta, acts)
    assert grad_I.shape == grad_theta.shape == (points, n)
    assert np.array_equal(grad_I, c.batch_grad_I(theta, acts))
    assert np.array_equal(grad_theta, c.batch_grad_theta(theta, acts))


def test_canonical_field_consistent():
    c = sample_series().compile()
    gI, mgTh = c.canonical_field(TH, II)
    assert np.allclose(gI, c.grad_I(TH, II), atol=1e-15)
    assert np.allclose(mgTh, -c.grad_theta(TH, II), atol=1e-15)


def test_evaluate_is_real_for_real_series():
    f = sample_series()
    w = f.compile()._evaluate(TH[None], II[None], (((),),))[0]
    assert abs(np.sum(w).imag) < 1e-14


# -- filters, norms, records ------------------------------------------------------

def test_average_and_oscillating_partition():
    f = sample_series()
    assert (f.average() + f.oscillating()).terms() == f.terms()
    assert f.average().max_harmonic() == 0


def test_perturbation_and_average_are_built_once():
    f = sample_series()
    assert f.average() is f.average()
    spec = HamiltonianSpec(omega=np.array([1.0, 0.6]), quad=f.action_slice(2, 2),
                           rest=f.action_slice(3), epsilon=0.1)
    assert spec.perturbation() is spec.perturbation()
    assert spec.perturbation(include_extra=False) is spec.perturbation(include_extra=False)
    assert spec.perturbation().compile() is spec.perturbation().compile()


def test_algebra_results_store_coefficients_as_the_constructor_does():
    # the algebra builds its results without re-checking keys, but keeps the
    # constructor's rules: exact zeros are dropped, every coefficient is a
    # Python complex, and -0.0 real parts are stored (and written) as +0.0
    f = sample_series()
    g = FourierTaylorSeries.sine(2, (1, 0))
    results = [f.scale(-1.0), f.scale(np.float64(-2.0)), g.scale(-1.0), f * g, f - f,
               f.poisson(g), f.dtheta(0), f.dI(1), f.average(), f.prune(1e-3)]
    assert len(f - f) == 0
    for r in results:
        rebuilt = FourierTaylorSeries(2, {key: c for key, c in r.terms().items()})
        assert r.to_record() == rebuilt.to_record()
        for (k, m), c in r.terms().items():
            assert type(c) is complex and c != 0
            assert math.copysign(1.0, c.real) == 1.0 or c.real != 0.0
            assert all(type(v) is int for v in k + m)
    assert any(c.real == 0.0 for c in g.scale(-1.0).terms().values())


def test_harmonic_truncation_partition():
    f = sample_series()
    assert (f.truncate_harmonics(2) + f.high_harmonics(2)).terms() == f.terms()
    assert f.truncate_harmonics(2).max_harmonic() <= 2
    high = f.high_harmonics(2)
    assert all(sum(abs(v) for v in k) > 2 for k, _ in high.terms())


def test_action_slice_and_degrees():
    f = sample_series()
    assert f.action_degree() == 3
    assert f.action_slice(3, 3).action_degree() == 3
    assert f.action_slice(0, 2).action_degree() == 2


def test_coefficient_norm_majorizes_values():
    f = sample_series()
    bound = f.coefficient_norm(radius=0.6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        th = rng.uniform(0, 1, N)
        act = rng.uniform(-0.6, 0.6, N)
        assert abs(value(f, th, act)) <= bound + 1e-12


def test_series_record_round_trip():
    f = sample_series()
    rec = json.loads(json.dumps(f.to_record()))
    g = FourierTaylorSeries.from_record(rec)
    assert g.terms() == f.terms()


def test_prune_drops_small_terms():
    f = sample_series() + FourierTaylorSeries.monomial(N, (5, 5), 1e-18)
    assert len(f.prune(1e-16)) == len(sample_series())


# -- structured Hamiltonians -------------------------------------------------------

OMEGA = np.array([1.0, 0.6180339887498949])
A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B1 = np.array([[0.3, 0.1], [0.1, 0.2]])


def sample_spec(eps=1e-3):
    quad = quadratic_from_matrices(N, A0, [((1, 0), B1, None)])
    rest = (FourierTaylorSeries.monomial(N, (3, 0), 0.2)
            + FourierTaylorSeries.cosine(N, (1, 0), (0, 3), 0.1))
    return HamiltonianSpec(omega=OMEGA, quad=quad, rest=rest, epsilon=eps,
                           domain_radius=2.0)


def test_quadratic_matrix_round_trip():
    q = quadratic_from_matrices(N, A0, [((1, 0), B1, 0.5 * B1)])
    assert np.allclose(averaged_quadratic_matrix(q), A0)
    # evaluate matches direct formula at a point
    th, act = TH, II
    Ath = A0 + math.cos(2 * math.pi * th[0]) * B1 + math.sin(2 * math.pi * th[0]) * 0.5 * B1
    assert value(q, th, act) == pytest.approx(float(act @ Ath @ act), rel=1e-13)


def test_constructors_at_k_zero():
    # the +k and -k halves share the key at k = 0 and add: cos 0 = 1, sin 0 = 0
    assert FourierTaylorSeries.cosine(N, (0, 0), (1, 0), 1.0).terms() == {((0, 0), (1, 0)): 1}
    sine = FourierTaylorSeries.sine(N, (0, 0), (1, 0), 1.0)
    assert len(sine) == 0 and sine.reality_error() == 0.0
    q = quadratic_from_matrices(N, np.zeros((N, N)), [((0, 0), B1, np.eye(N))])
    assert q.terms() == quadratic_from_matrices(N, B1).terms()


A3 = np.array([[1.0, 0.2, -0.1], [0.2, 0.9, 0.15], [-0.1, 0.15, 1.1]])
B3 = np.array([[0.2, 0.05, 0.0], [0.05, -0.1, 0.07], [0.0, 0.07, 0.3]])

# per constructed series, its term count and a digest of its terms in
# insertion order, each as (k, m, real hex, imaginary hex): the order sets
# the order in which products accumulate, so it sets the normal form's bits
_FROZEN_TERMS = {
    "gate": (lambda: quadratic_from_matrices(N, A0, [((1, 0), B1, None)]),
             9, "919489f6fd9b96c1"),
    "cosine_sine_repeated_k": (
        lambda: quadratic_from_matrices(N, A0, [((1, 0), B1, 0.5 * B1),
                                                ((2, -1), None, -0.7 * B1),
                                                ((1, 0), 0.3 * B1, B1.T)]),
        15, "aee860c9ba156a55"),
    "n3": (lambda: quadratic_from_matrices(3, A3, [((1, -1, 0), B3, None),
                                                   ((0, 1, 1), None, 0.4 * B3),
                                                   ((1, 0, 0), -B3, B3)]),
           36, "4707df0a0dd2ff15"),
    "cosine": (lambda: FourierTaylorSeries.cosine(N, (1, -2), (2, 1), -0.7),
               2, "8167281ecccd5fff"),
    "sine": (lambda: FourierTaylorSeries.sine(N, (0, 1), (0, 3), -0.3),
             2, "08a0c0b4ed1fb6bc"),
    "linear": (lambda: sample_spec().linear_series(0.37), 2, "7c1cd8f9be925aa1"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_TERMS))
def test_constructors_keep_term_order_and_bits(name):
    build, count, digest = _FROZEN_TERMS[name]
    rows = [(k, m, c.real.hex(), c.imag.hex()) for (k, m), c in build().terms().items()]
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def test_check_kolmogorov_accepts_and_rejects():
    q = quadratic_from_matrices(N, A0)
    A, cond = check_kolmogorov(q)
    assert np.allclose(A, A0) and cond < 10
    singular = quadratic_from_matrices(N, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(KolmogorovDegenerate):
        check_kolmogorov(singular)


def test_scaling_chain_conjugacies():
    spec = sample_spec()
    eps = spec.epsilon
    s2 = spec.rescale_actions()
    assert s2.state == "action_scaled"
    assert s2.evaluate(TH, II) == pytest.approx(spec.evaluate(TH, eps * II) / eps,
                                                rel=1e-12)
    s3 = s2.rescale_time()
    assert s3.state == "time_scaled"
    assert s3.omega_prefactor == pytest.approx(1.0 / eps)
    assert s3.evaluate(TH, II) == pytest.approx(s2.evaluate(TH, II) / eps, rel=1e-12)


def test_scaling_state_guards():
    spec = sample_spec()
    with pytest.raises(StateMismatch):
        spec.rescale_time()
    with pytest.raises(StateMismatch):
        spec.rescale_actions().rescale_actions()
    bad = HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0),
                          rest=FourierTaylorSeries.monomial(N, (1, 1), 1.0),
                          epsilon=0.1)
    with pytest.raises(StateMismatch):
        bad.rescale_actions()


@pytest.mark.parametrize("coeff, eps", [(0.05, 1e200), (10.0, 1e154), (1.0, 1e308)])
def test_rescale_actions_refuses_an_epsilon_it_overflows(coeff, eps):
    # eps^2 itself overflows, c * eps^2 does with eps^2 finite, and the
    # degree-4 term's eps^3 overflows though its degree-3 eps^2 would not
    degree = (4, 0) if eps == 1e308 else (3, 0)
    spec = HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0),
                           rest=FourierTaylorSeries.monomial(N, degree, coeff), epsilon=eps)
    with pytest.raises(ValueError, match=re.escape(f"epsilon {eps!r} is too large")):
        spec.rescale_actions()


@pytest.mark.parametrize("state", ["physical", "action_scaled"])
def test_extra_is_refused_outside_the_time_scaled_state(state):
    # the rescalings would drop it
    extra = FourierTaylorSeries.cosine(N, (1, 1), (2, 0), 0.3)
    with pytest.raises(ValueError, match=f"'extra' needs state 'time_scaled', got state '{state}'"):
        HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0),
                        rest=FourierTaylorSeries.zero(N), epsilon=0.1, state=state,
                        extra=extra, extra_prefactor=0.5)
    spec = HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0),
                           rest=FourierTaylorSeries.zero(N), epsilon=0.1,
                           state="time_scaled", extra=extra, extra_prefactor=0.5)
    assert len(spec.perturbation()) == len(spec.perturbation(include_extra=False)) + 2


def test_spec_record_round_trip():
    spec = sample_spec().rescale_actions().rescale_time()
    rec = json.loads(json.dumps(spec.to_record()))
    clone = HamiltonianSpec.from_record(rec)
    assert clone.state == spec.state
    assert clone.omega_prefactor == spec.omega_prefactor
    assert clone.evaluate(TH, II) == spec.evaluate(TH, II)


# -- flows ---------------------------------------------------------------------------

# one point, as the stack of one that every flow takes
ONE_TH, ONE_I = TH[None], II[None]


def test_integrable_flow_is_exact_rotation():
    spec = HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0),
                           rest=FourierTaylorSeries.zero(N), epsilon=1e-3)
    res = integrate_flow(spec.combined_series(), ONE_TH, ONE_I, 10.0, 0.01)
    expect = TH + 10.0 * (OMEGA + 2 * A0 @ II)
    assert np.max(np.abs(res.thetas[-1] - expect)) < 1e-10
    assert np.max(np.abs(res.actions[-1] - II)) == 0.0
    assert res.energy_drift < 1e-12


def test_midpoint_second_order_richardson():
    ham = sample_spec().combined_series()
    ref = integrate_flow(ham, ONE_TH, ONE_I, 2.0, 0.02, method="dop853")
    e1, e2 = (np.max(np.abs(integrate_flow(ham, ONE_TH, ONE_I, 2.0, step).actions[-1]
                            - ref.actions[-1])) for step in (0.02, 0.01))
    assert e1 / e2 == pytest.approx(4.0, rel=0.25)


def test_midpoint_energy_drift_bounded():
    ham = sample_spec().combined_series()
    res = integrate_flow(ham, ONE_TH, ONE_I, 20.0, 0.01, record_every=100)
    assert res.energy_drift < 1e-4
    # drift scales like h^2
    res2 = integrate_flow(ham, ONE_TH, ONE_I, 20.0, 0.005, record_every=100)
    assert res2.energy_drift < 0.3 * res.energy_drift


@pytest.mark.parametrize("method", ["midpoint", "dop853"])
@pytest.mark.parametrize("t_final, step", [(0.0, 0.01), (-1.0, 0.01), (math.inf, 0.01),
                                           (1.0, 0.0), (1.0, -0.01), (1.0, math.nan),
                                           (1.0, math.inf), (1e300, 1e-300), (1.0, 0.3),
                                           (1e3, 1e-4), (1e-10, 1.0)])
def test_flow_refuses_a_horizon_that_is_no_positive_step_count(method, t_final, step):
    with pytest.raises(ValueError, match="t_final"):
        integrate_flow(sample_spec().combined_series(), ONE_TH, ONE_I,
                       t_final, step, method=method)


def test_midpoint_matches_dop853():
    ham = sample_spec().combined_series()
    res_m = integrate_flow(ham, ONE_TH, ONE_I, 5.0, 0.002)
    res_d = integrate_flow(ham, ONE_TH, ONE_I, 5.0, 0.002, method="dop853")
    assert np.max(np.abs(res_m.actions[-1] - res_d.actions[-1])) < 5e-6
    assert np.max(np.abs(res_m.thetas[-1] - res_d.thetas[-1])) < 5e-6


def test_time_reversibility():
    ham = sample_spec().combined_series()
    fwd = integrate_flow(ham, ONE_TH, ONE_I, 3.0, 0.01)
    back = integrate_flow(ham.scale(-1.0), fwd.thetas[-1], fwd.actions[-1], 3.0, 0.01)
    assert np.max(np.abs(back.thetas[-1] - TH)) < 1e-11
    assert np.max(np.abs(back.actions[-1] - II)) < 1e-11


# -- stacked flows -------------------------------------------------------------------

STACK_TH = np.array([[0.23, 0.71], [0.9, 0.05], [0.41, 0.33], [0.6, 0.1]])
STACK_I = np.array([[0.4, -0.2], [-0.1, 0.3], [0.05, 0.02], [1.2, -0.9]])


def rows_per_field_call(monkeypatch) -> list:
    rows = []
    raw = CompiledSeries.batch_field

    def counted(comp, theta, I):
        rows.append(theta.shape[0])
        return raw(comp, theta, I)
    monkeypatch.setattr(CompiledSeries, "batch_field", counted)
    return rows


def test_stacked_midpoint_equals_single_point_flows(monkeypatch):
    ham = sample_spec().combined_series()
    rows = rows_per_field_call(monkeypatch)
    stack = integrate_flow(ham, STACK_TH, STACK_I, 2.0, 0.01, record_every=40)
    stacked_rows, single_rows = sum(rows), 0
    for p in range(len(STACK_TH)):
        rows.clear()
        one = integrate_flow(ham, STACK_TH[p:p + 1], STACK_I[p:p + 1], 2.0,
                             0.01, record_every=40)
        single_rows += sum(rows)
        assert np.array_equal(stack.times, one.times)
        assert np.max(np.abs(stack.thetas[:, p] - one.thetas[:, 0])) <= 1e-13
        assert np.max(np.abs(stack.actions[:, p] - one.actions[:, 0])) <= 1e-13
        assert np.max(np.abs(stack.energies[:, p] - one.energies[:, 0])) <= 1e-13
    # the stack evaluates every point exactly as often as its own flow does:
    # same warm starts, same fixed-point iterations per step
    assert stacked_rows == single_rows


def test_stacked_dop853_matches_single_point_flows():
    ham = sample_spec().combined_series()
    stack = integrate_flow(ham, STACK_TH, STACK_I, 2.0, 0.02,
                           method="dop853", record_every=25)
    for p in range(len(STACK_TH)):
        one = integrate_flow(ham, STACK_TH[p:p + 1], STACK_I[p:p + 1], 2.0,
                             0.02, method="dop853", record_every=25)
        assert np.array_equal(stack.times, one.times)
        assert np.max(np.abs(stack.thetas[:, p] - one.thetas[:, 0])) <= 1e-10
        assert np.max(np.abs(stack.actions[:, p] - one.actions[:, 0])) <= 1e-10


@pytest.mark.parametrize("method", ["midpoint", "dop853"])
@pytest.mark.parametrize("record_every", [0, 5])
def test_flow_shapes_single_and_stacked(method, record_every):
    ham = sample_spec().combined_series()
    one = integrate_flow(ham, ONE_TH, ONE_I, 1.0, 0.1, method=method,
                         record_every=record_every)
    T = len(one.times)
    assert T == (3 if record_every else 2)
    assert one.thetas[-1].shape == one.actions[-1].shape == (1, N)
    assert one.thetas.shape == one.actions.shape == (T, 1, N)
    assert one.times.shape == (T,) and one.energies.shape == (T, 1)
    stack = integrate_flow(ham, STACK_TH, STACK_I, 1.0, 0.1,
                           method=method, record_every=record_every)
    P, T = len(STACK_TH), len(stack.times)
    assert stack.thetas[-1].shape == stack.actions[-1].shape == (P, N)
    assert stack.thetas.shape == stack.actions.shape == (T, P, N)
    assert stack.times.shape == (T,) and stack.energies.shape == (T, P)


@pytest.mark.parametrize("t_final, step, records", [(0.3, 0.1, 4), (0.7, 0.1, 8),
                                                    (0.9, 0.3, 4)])
def test_recorded_dop853_flow_ends_at_t_final(t_final, step, records):
    # the last grid time n_steps * step rounds above t_final at 0.3 and 0.7
    # (refused by dop853 as outside the span) and below it at 0.9 (a second,
    # nearly equal final time); midpoint shares the grid
    for method in ("midpoint", "dop853"):
        res = integrate_flow(sample_spec().combined_series(), ONE_TH, ONE_I, t_final,
                             step, method=method, record_every=1)
        assert res.times[-1] == t_final
        assert len(res.times) == records and np.all(np.diff(res.times) > 0)


@pytest.mark.parametrize("t_final, step, record_every, records",
                         [(0.3, 0.1, 1, 4), (0.7, 0.1, 3, 4), (0.9, 0.3, 2, 3),
                          (1.0, 0.1, 0, 2), (2.0, 0.02, 25, 5), (0.02, 0.02, 7, 2)])
def test_both_methods_record_the_same_times(t_final, step, record_every, records):
    ham = sample_spec().combined_series()
    mid, dop = (integrate_flow(ham, ONE_TH, ONE_I, t_final, step, method=method,
                               record_every=record_every)
                for method in ("midpoint", "dop853"))
    assert mid.times.tobytes() == dop.times.tobytes()
    assert len(mid.times) == records and mid.times[-1] == t_final
    # every time but the last is s * step, at every record_every-th step
    n_steps = round(t_final / step)
    assert mid.times[:-1].tolist() == [s * step for s in range(0, n_steps,
                                                               record_every or n_steps)]
    assert mid.thetas.shape == dop.thetas.shape == (records, 1, N)


@pytest.mark.parametrize("method", ["midpoint", "dop853"])
@pytest.mark.parametrize("record_every", [-1, 2.5])
def test_flow_refuses_a_record_every_that_is_no_step_count(method, record_every):
    with pytest.raises(ValueError, match="record_every"):
        integrate_flow(sample_spec().combined_series(), ONE_TH, ONE_I, 1.0, 0.1,
                       method=method, record_every=record_every)


# -- dop853 against scipy ------------------------------------------------------------

def gate_family(eps):
    """The acceptance gates' Hamiltonian family at eps."""
    return HamiltonianSpec(omega=OMEGA, quad=quadratic_from_matrices(N, A0, [((1, 0), B1, None)]),
                           rest=FourierTaylorSeries.monomial(N, (3, 0), 0.05), epsilon=eps)


def stacked_field(series, n_pts):
    """The stacked canonical field of the series as integrate_flow hands it to
    dop853."""
    comp = series.compile()

    def rhs(_t, z):
        grad_I, grad_theta = comp.batch_field(*z.reshape(2, n_pts, N))
        return np.concatenate([grad_I.ravel(), -grad_theta.ravel()])
    return rhs


def scipy_steps(rhs, t_final, y0):
    """solve_ivp's DOP853 solve without t_eval: t holds 0 and the end of every
    accepted step, nfev counts the field's calls."""
    from scipy.integrate import solve_ivp   # the independent reference
    with np.errstate(all="ignore"):
        return solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-12,
                         atol=1e-13)


def assert_solves_as_scipy(rhs, t_final, y0, t_eval):
    """dop853 returns solve_ivp's (t, y, success, message), bit for bit, and
    calls the field at the same times."""
    from scipy.integrate import solve_ivp   # the independent reference
    ref_calls, calls = [], []
    with np.errstate(all="ignore"):
        ref = solve_ivp(lambda t, z: ref_calls.append(t) or rhs(t, z), (0.0, t_final),
                        y0, method="DOP853", rtol=1e-12, atol=1e-13, t_eval=t_eval)
        t, y, success, message = dop853(lambda t, z: calls.append(t) or rhs(t, z),
                                        t_final, y0, t_eval)
    assert calls == ref_calls
    assert (success, message) == (ref.success, ref.message)
    assert t.shape == np.shape(ref.t) and t.tobytes() == np.asarray(ref.t).tobytes()
    assert y.shape == ref.y.shape and y.tobytes() == ref.y.tobytes()
    return t, y, success, message


def stack_start(n_pts):
    """n_pts staggered angles on the actions (0.3, -0.2), as (2 * n_pts * N,)."""
    theta = np.repeat((np.arange(n_pts) + 0.5)[:, None] / n_pts, N, axis=1)
    return np.concatenate([theta.ravel(), np.tile([0.3, -0.2], n_pts)])


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("n_pts", [1, 3, 8])
@pytest.mark.parametrize("t_eval", ["grid", "interior"])
def test_dop853_equals_scipy_on_gate_family_stacks(eps, n_pts, t_eval):
    t_final = 12.0
    t_eval = {"grid": np.linspace(0.0, t_final, 7),           # last point t_final
              "interior": np.array([0.0, 0.05, 1.0, 1.0 + 1e-9, 7.3])}[t_eval]
    _, _, success, _ = assert_solves_as_scipy(
        stacked_field(gate_family(eps).combined_series(), n_pts), t_final,
        stack_start(n_pts), t_eval)
    assert success


def test_dop853_equals_scipy_through_rejected_steps():
    ham = (FourierTaylorSeries.cosine(N, (7, 3), (1, 0), 40.0)
           + FourierTaylorSeries.monomial(N, (2, 0), 0.5))
    rhs = stacked_field(ham, 1)
    _, _, success, _ = assert_solves_as_scipy(rhs, 0.02, stack_start(1),
                                              np.linspace(0.0, 0.02, 11))
    # dop853 makes scipy's calls, and there two calls pick the first step and
    # 12 more go to each step tried
    steps = scipy_steps(rhs, 0.02, stack_start(1))
    assert success and (steps.nfev - 2) // 12 > len(steps.t) - 1


def test_dop853_equals_scipy_on_the_zero_field():
    # every error norm is 0: each step grows by the largest factor
    rhs = stacked_field(FourierTaylorSeries.zero(N), 2)
    _, y, success, _ = assert_solves_as_scipy(rhs, 10.0, stack_start(2),
                                              np.linspace(0.0, 10.0, 6))
    assert success and np.all(y == stack_start(2)[:, None])
    t = scipy_steps(rhs, 10.0, stack_start(2)).t
    assert np.allclose(np.diff(t)[1:-1] / np.diff(t)[:-2], 10.0)


def test_dop853_equals_scipy_up_to_a_blow_up():
    # I1' = 10 pi sin(2 pi theta1) I1^3 leaves every bound in finite time
    rhs = stacked_field(FourierTaylorSeries.cosine(N, (1, 0), (3, 0), 5.0), 1)
    y0 = np.array([0.23, 0.71, 0.9, 0.1])
    _, _, success, message = assert_solves_as_scipy(rhs, 10.0, y0,
                                                    np.linspace(0.0, 10.0, 11))
    assert not success and message.startswith("Required step size is less")
    with pytest.raises(NonConvergentStep, match=f"dop853 failed: {message}"):
        with np.errstate(all="ignore"):
            integrate_flow(FourierTaylorSeries.cosine(N, (1, 0), (3, 0), 5.0),
                           y0[None, :2], y0[None, 2:], 10.0, 0.01, method="dop853")


def test_one_stalled_point_stops_the_stack(monkeypatch):
    # H = I1^2 cos(2 pi th1): the point at I = 0 is at rest and settles in
    # one iteration, the moving one needs more than the single one allowed
    ham = FourierTaylorSeries.cosine(N, (1, 0), (2, 0))
    theta = np.array([[0.1, 0.0], [0.1, 0.0]])
    acts = np.array([[0.0, 0.0], [0.5, 0.0]])
    integrate_flow(ham, theta[1:], acts[1:], 0.1, 0.01)
    monkeypatch.setattr(fourier_taylor, "FIXED_POINT_MAX_ITER", 1)
    integrate_flow(ham, theta[:1], acts[:1], 0.1, 0.01)
    with pytest.raises(NonConvergentStep, match="1 of 2 points"):
        integrate_flow(ham, theta, acts, 0.1, 0.01)


def test_independent_flows_stay_off_the_integrator():
    # the oracles and the acceptance RK4 are the references the integrator is
    # judged against, so they must not reach it
    here = Path(__file__).parent
    oracles = ast.parse((here / "oracles.py").read_text())
    acceptance = ast.parse((here / "test_acceptance.py").read_text())
    rk4 = next(node for node in ast.walk(acceptance)
               if isinstance(node, ast.FunctionDef) and node.name == "_batch_flow")
    for tree in (oracles, rk4):
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not names & {"integrate_flow", "canonical_field", "batch_field",
                            "batch_grad_I", "batch_grad_theta",
                            "dop853", "_dop853", "kamlab._dop853"}
    # the series jet checks the compiled evaluator, so the oracles import
    # nothing from the package
    assert "kamlab" not in (here / "oracles.py").read_text()


def test_pipeline_evaluates_only_through_the_batched_queries():
    # outside the evaluator's own module the pipeline evaluates stacks of
    # points, through batch_value, batch_field and batch_hess_II only
    single = {"value", "grad_theta", "grad_I", "hess_II", "canonical_field",
              "batch_grad_I", "batch_grad_theta", "evaluate"}
    for path in sorted(Path(kamlab.__file__).parent.glob("*.py")):
        if path.name == "fourier_taylor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert name not in single, f"{path.name}:{node.lineno} calls {name}"
