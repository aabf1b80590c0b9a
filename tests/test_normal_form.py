"""One-step normal form: homological identities, exact bookkeeping,
flow-realized composition, gates and failure modes."""

import math

import numpy as np
import pytest

from kamlab import FrequencyVector, make_test_frequency, normal_form
from kamlab.errors import (
    KolmogorovDegenerate,
    MuTooLarge,
    SmallDivisorBreakdown,
    StateMismatch,
    TailNotConverged,
)
from kamlab.fourier_taylor import (
    FourierTaylorSeries,
    HamiltonianSpec,
    integrate_flow,
    quadratic_from_matrices,
)
from kamlab.normal_form import (
    lie_transform,
    one_step_normal_form,
    prepare_time_scaled,
    solve_homological,
    verify_estimates,
    verify_homological,
)

N = 2
A0 = np.array([[1.0, 0.25], [0.25, 0.8]])
B1 = np.array([[0.3, 0.1], [0.1, 0.2]])


@pytest.fixture(scope="module")
def golden():
    return make_test_frequency("golden")


def physical_spec(eps, omega):
    quad = quadratic_from_matrices(N, A0, [((1, 0), B1, None)])
    rest = (FourierTaylorSeries.monomial(N, (3, 0), 0.2)
            + FourierTaylorSeries.cosine(N, (1, 0), (0, 3), 0.1))
    return HamiltonianSpec(omega=omega, quad=quad, rest=rest, epsilon=eps,
                           domain_radius=1.0)


def nf(golden, eps, **kw):
    spec = prepare_time_scaled(physical_spec(eps, golden.components))
    return one_step_normal_form(spec, golden, **kw)


# -- homological equation ---------------------------------------------------------

def test_homological_identity(golden):
    f = (FourierTaylorSeries.cosine(N, (1, 0), (2, 0), 0.6)
         + FourierTaylorSeries.sine(N, (1, -1), (0, 1), -0.25)
         + FourierTaylorSeries.cosine(N, (2, 1), (1, 1), 0.1))
    chi = solve_homological(f, golden.components)
    assert verify_homological(chi, f, golden.components) < 1e-14 * f.coefficient_norm()
    assert chi.reality_error() < 1e-16


def test_homological_rejects_average_terms(golden):
    f = FourierTaylorSeries.monomial(N, (2, 0), 1.0)
    with pytest.raises(ValueError):
        solve_homological(f, golden.components)


def test_homological_divisor_floor(golden):
    f = FourierTaylorSeries.cosine(N, (1, -1), (0, 0), 1.0)   # divisor 0.382
    with pytest.raises(SmallDivisorBreakdown):
        solve_homological(f, golden.components, divisor_floor=0.5)


def test_homological_exact_resonance():
    f = FourierTaylorSeries.cosine(N, (1, -2), (0, 0), 1.0)
    with pytest.raises(SmallDivisorBreakdown):
        solve_homological(f, np.array([1.0, 0.5]))


# -- the normal-form step ----------------------------------------------------------

def test_truncation_order_follows_arithmetic(golden):
    # K = delta(c/eps) from the golden table
    for eps, K in [(1e-2, 9), (1e-3, 33), (1e-4, 88)]:
        res = nf(golden, eps)
        assert res.K == K
        assert res.mu == 1.0 / K


def test_bookkeeping_identity_exact(golden):
    res = nf(golden, 1e-3)
    spec_in = res.spec_in
    h_new, _, _ = lie_transform(spec_in.combined_series(),
                                res.generator.scale(spec_in.epsilon))
    rebuilt = res.spec_out.combined_series()
    rel = (rebuilt - h_new).coefficient_norm() / h_new.coefficient_norm()
    assert rel < 1e-15


def test_f_bar_is_average_of_original(golden):
    res = nf(golden, 1e-3)
    f = res.spec_in.perturbation(include_extra=False)
    f_bar = f.average()
    got = res.spec_out.quad + res.spec_out.rest
    assert (got - f_bar).coefficient_norm() < 1e-16


def test_f_tilde_bounded_uniformly(golden):
    # the K = delta(c/eps) choice keeps ||ftilde|| = O(||f||) along eps -> 0
    ratios = [nf(golden, eps).diagnostics["f_tilde_ratio"]
              for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(r < 1.0 for r in ratios)
    assert max(ratios) / min(ratios) < 100.0


def test_composition_matches_flow_realization(golden):
    # H_tilde(z) == H(Phi(z)) with Phi realized by numerical flow, both routes
    res = nf(golden, 1e-3)
    gen = res.generator.scale(res.spec_in.epsilon)
    h_in = res.spec_in.combined_series().compile()
    h_out = res.spec_out.combined_series().compile()
    rng = np.random.default_rng(5)
    for method, step in (("midpoint", 1e-2), ("dop853", 1e-1)):
        worst = 0.0
        for _ in range(5):
            th = rng.uniform(0, 1, (1, N))
            act = rng.uniform(-0.5, 0.5, (1, N))
            flow = integrate_flow(gen, th, act, 1.0, step, method=method)
            end = flow.thetas[-1], flow.actions[-1]
            worst = max(worst, abs(h_out.batch_value(th, act)[0]
                                   - h_in.batch_value(*end)[0]))
        assert worst < 1e-12


def test_verify_estimates_summary(golden):
    res = nf(golden, 1e-3)
    ver = verify_estimates(res)
    assert ver["composition_error"] < 1e-12
    assert ver["homological_residual"] < 1e-14
    assert ver["tail_ratio"] < 1e-12
    assert ver["kolmogorov_cond"] == pytest.approx(np.linalg.cond(A0), rel=1e-12)


def test_gevrey_profile_attached(golden):
    res = nf(golden, 1e-3, gevrey_alpha=1.0)
    assert res.profile.nu == pytest.approx(math.exp(-res.K), rel=1e-13)
    assert res.profile.nu <= res.mu ** 2


def test_remainder_prefactor_is_mu(golden):
    res = nf(golden, 1e-2)
    assert res.spec_out.extra_prefactor == res.mu
    assert res.spec_out.extra is res.f_tilde


# -- gates and failure modes ---------------------------------------------------------

def test_mu_gate(golden):
    with pytest.raises(MuTooLarge):
        nf(golden, 0.1)          # mu = 0.5 > 0.3


def test_tail_not_converged(golden, monkeypatch):
    monkeypatch.setattr(normal_form, "LIE_MAX_ORDER", 1)
    with pytest.raises(TailNotConverged):
        nf(golden, 1e-3)


def test_state_guard(golden):
    spec = physical_spec(1e-3, golden.components)
    with pytest.raises(StateMismatch):
        one_step_normal_form(spec, golden)


def test_omega_mismatch_rejected(golden):
    spec = prepare_time_scaled(physical_spec(1e-3, np.array([1.0, 0.61])))
    with pytest.raises(ValueError):
        one_step_normal_form(spec, golden)


def test_kolmogorov_degenerate(golden):
    quad = quadratic_from_matrices(N, np.array([[1.0, 1.0], [1.0, 1.0]]))
    spec = HamiltonianSpec(omega=golden.components, quad=quad,
                           rest=FourierTaylorSeries.zero(N), epsilon=1e-3)
    with pytest.raises(KolmogorovDegenerate):
        one_step_normal_form(prepare_time_scaled(spec), golden)


# -- three degrees of freedom ----------------------------------------------------------

def test_three_dof_step():
    w = FrequencyVector([1.0, 1 / math.sqrt(2), 1 / math.sqrt(3)], q_check=15)
    A = np.array([[1.0, 0.1, 0.0], [0.1, 0.8, 0.05], [0.0, 0.05, 1.2]])
    B = 0.2 * np.eye(3)
    quad = quadratic_from_matrices(3, A, [((1, -1, 0), B, None)])
    rest = FourierTaylorSeries.monomial(3, (3, 0, 0), 0.1)
    spec = HamiltonianSpec(omega=w.components, quad=quad, rest=rest,
                           epsilon=1e-3, domain_radius=1.0)
    res = one_step_normal_form(prepare_time_scaled(spec), w)
    assert res.diagnostics["homological_residual"] < 1e-13
    assert res.diagnostics["f_tilde_ratio"] < 1.0
    assert np.allclose(res.kolmogorov_matrix, A)
    ver = verify_estimates(res)
    assert ver["composition_error"] < 1e-10
