"""One-step resonant normal form for rescaled near-integrable Hamiltonians.

Input is a Hamiltonian in the time-scaled state,
    H = (omega / eps) . I + f(theta, I),
with f carrying the quadratic part and the scaled remainder.  The step picks
the truncation order K = delta(omega, c/eps) from the small-divisor arithmetic
(so mu = 1/K is the smallness scale), kills the oscillating part of f up to
harmonic order K with one canonical transformation, and rewrites the result
exactly as
    H o Phi = (omega / eps) . I  +  fbar  +  mu * ftilde,
where fbar is the angle average of f.  ftilde is defined by that identity, so
no error is hidden: everything the transform does not remove lands there with
the 1/mu bookkeeping factor made explicit.

The transformation is the time-1 flow of eps * chihat, where chihat solves
the homological equation termwise with divisors 2*pi*i (k . omega).  The Lie
series is summed adaptively until the tail is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    MuTooLarge,
    SmallDivisorBreakdown,
    StateMismatch,
    TailNotConverged,
)
from .fourier_taylor import (
    FourierTaylorSeries,
    HamiltonianSpec,
    TIME_SCALED,
    check_kolmogorov,
    integrate_flow,
)
from .freq_arith import (
    ArithmeticProfile,
    FrequencyVector,
    compensated_dot,
    mu_nu,
    psi,
)

TWO_PI_I = 2j * math.pi

# Lie terms are pruned below this absolute size to stop coefficient litter
# from propagating through repeated brackets.
PRUNE_ABS = 1e-18

# the Lie series stops once a term's coefficient norm, relative to the
# first term's, falls below this, within LIE_MAX_ORDER brackets and within
# LIE_PAIR_BUDGET term pairs multiplied by its Poisson brackets (a bracket of
# a and b multiplies at most 2 n len(a) len(b) pairs), so it ends in bounded
# time on every input
LIE_TAIL_TOL = 1e-12
LIE_MAX_ORDER = 16
LIE_PAIR_BUDGET = 2 ** 22

# verify_estimates flows this many probe points by the change of variables,
# at this midpoint step
ESTIMATE_PROBES = 24
ESTIMATE_FLOW_STEP = 1e-3


def solve_homological(target: FourierTaylorSeries, omega: np.ndarray,
                      divisor_floor: float = 0.0) -> FourierTaylorSeries:
    """chihat with {omega . I, chihat} + target = 0, i.e. termwise
    chihat(k, m) = target(k, m) / (2 pi i (k . omega)).

    `target` must have no k = 0 terms.  Divisors are evaluated through the
    same compensated expression the psi tables use; if any falls below
    `divisor_floor` the certified floor was violated and the solve refuses.
    """
    n = target.n
    terms = {}
    items = target.sorted_terms()
    if not items:
        return FourierTaylorSeries.zero(n)
    K = np.array([k for (k, _), _ in items], dtype=np.int64)
    if np.any(np.all(K == 0, axis=1)):
        raise ValueError("homological target contains averaged (k = 0) terms")
    divs = compensated_dot(K, np.asarray(omega, float))
    for ((k, m), c), d in zip(items, divs):
        if abs(d) < divisor_floor or d == 0.0:
            raise SmallDivisorBreakdown(
                f"divisor {d:.6e} at k={k} below certified floor {divisor_floor:.6e}")
        terms[(k, m)] = c / (TWO_PI_I * d)
    return FourierTaylorSeries(n, terms)


def lie_transform(h_series: FourierTaylorSeries, generator: FourierTaylorSeries
                  ) -> tuple[FourierTaylorSeries, int, float]:
    """exp(L_generator) applied to h_series: sum_j (ad_generator)^j h / j!.

    Terms are added until the j-th term's coefficient norm falls below
    LIE_TAIL_TOL relative to the perturbation size, with at least two brackets
    taken so the quadratic remainder is always represented.  Returns
    (transformed, order_used, tail_ratio).  Raises TailNotConverged if the
    tail is still above tolerance at LIE_MAX_ORDER, or before a bracket
    would take the pairs multiplied past LIE_PAIR_BUDGET.
    """
    out = h_series
    term = h_series
    # reference scale: the generator moves f-sized terms; the huge linear
    # part cancels in the first bracket, so measure against the first term
    ref = None
    tail = math.inf
    pairs = 0
    for j in range(1, LIE_MAX_ORDER + 1):
        pairs += 2 * h_series.n * len(term) * len(generator)
        if pairs > LIE_PAIR_BUDGET:
            raise TailNotConverged(
                f"Lie bracket {j} would take the series to {pairs} term pairs, "
                f"beyond the budget of {LIE_PAIR_BUDGET}; tail ratio {tail:.3e}")
        term = term.poisson(generator).prune(PRUNE_ABS)
        term = term.scale(1.0 / j)
        out = out + term
        size = term.coefficient_norm()
        if ref is None:
            ref = max(size, 1e-300)
        tail = size / ref
        if j >= 2 and tail <= LIE_TAIL_TOL:
            return out.prune(PRUNE_ABS), j, tail
    raise TailNotConverged(
        f"Lie tail ratio {tail:.3e} above {LIE_TAIL_TOL:g} at order {LIE_MAX_ORDER}")


@dataclass
class NormalFormResult:
    """Everything produced by one normal-form step."""
    spec_in: HamiltonianSpec
    spec_out: HamiltonianSpec          # extra slot holds ftilde, prefactor mu
    generator: FourierTaylorSeries     # chihat (flow generator is eps * chihat)
    profile: ArithmeticProfile
    K: int
    lie_order: int
    tail_ratio: float
    kolmogorov_matrix: np.ndarray
    kolmogorov_cond: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def f_tilde(self) -> FourierTaylorSeries:
        return self.spec_out.extra

    @property
    def mu(self) -> float:
        return self.profile.mu

    def flow_generator(self) -> FourierTaylorSeries:
        """The generating Hamiltonian whose time-1 flow realizes Phi."""
        return self.generator.scale(self.spec_in.epsilon)

    def to_record(self) -> dict:
        return {
            "record": "normal_form_result",
            "K": self.K,
            "mu": self.profile.mu,
            "epsilon": self.profile.epsilon,
            "c": self.profile.c,
            "nu": self.profile.nu,
            "lie_order": self.lie_order,
            "tail_ratio": self.tail_ratio,
            "kolmogorov_cond": self.kolmogorov_cond,
            "kolmogorov_matrix": [[float(v) for v in row]
                                  for row in self.kolmogorov_matrix],
            "diagnostics": self.diagnostics,
            "spec_out": self.spec_out.to_record(),
            "generator": self.generator.to_record(),
        }


def one_step_normal_form(spec: HamiltonianSpec, freq: FrequencyVector,
                         c: float = 1.0, mu_max: float = 0.3,
                         gevrey_alpha: Optional[float] = None,
                         gevrey_c_bar: Optional[float] = None) -> NormalFormResult:
    """One resonant normal-form step at truncation order K = delta(c/eps).

    Requires `spec` in the time-scaled state with spec.omega equal to the
    sup-normalized components of `freq`.  Raises MuTooLarge above the mu_max
    gate, SmallDivisorBreakdown if a divisor dips under the certified floor,
    TailNotConverged if the Lie series will not settle, and
    KolmogorovDegenerate when the averaged quadratic part is singular.
    """
    if spec.state != TIME_SCALED:
        raise StateMismatch(
            f"normal form expects state {TIME_SCALED!r}, got {spec.state!r}")
    if not np.array_equal(spec.omega, freq.components):
        raise ValueError("spec.omega differs from the frequency vector components")

    profile = mu_nu(freq, spec.epsilon, c=c,
                    alpha=gevrey_alpha, c_bar=gevrey_c_bar)
    K = profile.Delta
    mu = profile.mu
    if mu > mu_max:
        raise MuTooLarge(f"mu = {mu:.6g} exceeds the gate {mu_max:g} "
                         f"(epsilon too large for this frequency)")

    f = spec.perturbation(include_extra=False)
    f_osc_low = f.truncate_harmonics(K).oscillating()

    # certified divisor floor: the smallest |k . omega| over |k|_1 <= K –
    # identical arithmetic to the enumeration, so ">=" holds exactly
    floor = psi(freq, K).min_divisor if len(f_osc_low) else 0.0
    chihat = solve_homological(f_osc_low, spec.omega, divisor_floor=floor * (1 - 1e-12))
    generator = chihat.scale(spec.epsilon)

    h_full = spec.combined_series()
    h_new, lie_order, tail_ratio = lie_transform(h_full, generator)

    # exact bookkeeping: ftilde := (H o Phi - linear - fbar) / mu, using the
    # integer K = 1/mu directly so the reciprocal is not rounded twice
    f_bar = f.average()
    f_tilde = (h_new - spec.linear_series() - f_bar).scale(float(K)).prune(PRUNE_ABS)

    quad_bar = f_bar.action_slice(2, 2)
    rest_bar = f_bar.action_slice(3)
    A0, cond = check_kolmogorov(quad_bar)

    spec_out = HamiltonianSpec(
        omega=spec.omega, quad=quad_bar, rest=rest_bar,
        epsilon=spec.epsilon, state=TIME_SCALED,
        omega_prefactor=spec.omega_prefactor,
        extra=f_tilde, extra_prefactor=mu,
        domain_radius=spec.domain_radius)

    r = spec.domain_radius
    resid = verify_homological(chihat, f_osc_low, spec.omega)
    diagnostics = {
        "f_norm": f.coefficient_norm(r),
        "f_bar_norm": f_bar.coefficient_norm(r),
        "f_tilde_norm": f_tilde.coefficient_norm(r),
        "f_tilde_ratio": f_tilde.coefficient_norm(r) / max(f.coefficient_norm(r), 1e-300),
        "chihat_norm": chihat.coefficient_norm(r),
        "generator_norm": generator.coefficient_norm(r),
        "high_harmonic_norm": f.high_harmonics(K).coefficient_norm(r),
        "homological_residual": resid,
        "reality_error": f_tilde.reality_error(),
        "divisor_floor": floor,
    }
    return NormalFormResult(
        spec_in=spec, spec_out=spec_out, generator=chihat, profile=profile,
        K=K, lie_order=lie_order, tail_ratio=tail_ratio,
        kolmogorov_matrix=A0, kolmogorov_cond=cond, diagnostics=diagnostics)


def verify_homological(chihat: FourierTaylorSeries, target: FourierTaylorSeries,
                       omega: np.ndarray) -> float:
    """Residual norm of {omega . I, chihat} + target (should be ~1e-16)."""
    return (FourierTaylorSeries.linear(omega).poisson(chihat) + target).coefficient_norm()


def verify_estimates(result: NormalFormResult, seed: int = 0) -> dict:
    """The estimates of a normal form: "composition_error", the largest
    |H_out(z) - H_in(Phi(z))| over ESTIMATE_PROBES points z drawn from `seed`
    (relative to max(|H_out|, 1) at a reference point, with Phi the time-1
    midpoint flow of the generator, a route independent of the Lie series),
    and the result's f_tilde_ratio, homological_residual, tail_ratio and
    kolmogorov_cond."""
    spec_in, spec_out = result.spec_in, result.spec_out
    h_in = spec_in.combined_series().compile()
    h_out = spec_out.combined_series().compile()

    rng = np.random.default_rng(seed)
    n = spec_in.n
    r = 0.5 * spec_in.domain_radius
    H_ref = float(h_out.batch_value(np.zeros((1, n)), np.full((1, n), r))[0])
    scale_ref = max(abs(H_ref), 1.0)
    # drawn probe by probe, angle then action, so the points do not depend
    # on the probes being flowed as one stack
    probes = [(rng.uniform(0.0, 1.0, n), rng.uniform(-r, r, n))
              for _ in range(ESTIMATE_PROBES)]
    theta, act = (np.array(side) for side in zip(*probes))
    flow = integrate_flow(result.flow_generator(), theta, act, 1.0, ESTIMATE_FLOW_STEP)
    lhs = h_out.batch_value(theta, act)
    rhs = h_in.batch_value(flow.thetas[-1], flow.actions[-1])
    return {
        "composition_error": float(np.max(np.abs(lhs - rhs))) / scale_ref,
        "f_tilde_ratio": result.diagnostics["f_tilde_ratio"],
        "homological_residual": result.diagnostics["homological_residual"],
        "tail_ratio": result.tail_ratio,
        "kolmogorov_cond": result.kolmogorov_cond,
    }


def prepare_time_scaled(spec: HamiltonianSpec) -> HamiltonianSpec:
    """The time-scaled spec: a physical one run through the physical ->
    action_scaled -> time_scaled chain, a time-scaled one as it is."""
    if spec.state == TIME_SCALED:
        return spec
    return spec.rescale_actions().rescale_time()
