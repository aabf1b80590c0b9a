"""Sampled measurement of the surviving-torus set across a perturbation sweep.

For each epsilon the unit action ball is walked with a fixed low-discrepancy
sequence and every sample runs the same pipeline: boundary-margin rule,
Diophantine certification of its frequency-map image at gamma = a*sqrt(mu),
then a Newton solve on the normal-form output.  Each step runs on the
stack of samples left by the one before, in blocks of at most
GRID_POINT_BUDGET // grid^n samples (one block per slice up to density 1024
at grid 16); per sample it gives what a one-sample run gives, bit for bit.
A block's Newton sweep holds about 7 arrays of n grid^n complex values per
torus (58 KB at grid 16 and n = 2, measured), so a full block peaks near
59 MB.
Everything the pipeline cannot construct counts toward the complement, so
the reported fraction is a conservative sampled stand-in for the measure of
the bad set.

The selection rule has two parts (stay b*sqrt(mu) away from the boundary of
the ball, certify the target frequency), and a report's `detail` counts
each rejection on its own in the counting identity

    samples = margin_rejected + dioph_rejected + newton_failed + converged,

with samples - selected the two selection rejections together.

fit_scaling recovers the exponent of complement_fraction against mu and
brackets the normalized ratio complement/sqrt(mu) from above and below.
A Gevrey-mode sweep carries nu alongside mu, and gevrey_forecast produces
the arithmetic-only prediction table of sqrt(nu).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import freq_arith as fa
from .errors import GateFailed, InsufficientSpan, SmallDivisorBreakdown
from .fourier_taylor import PHYSICAL, HamiltonianSpec
from .freq_arith import FrequencyVector
from .normal_form import one_step_normal_form, prepare_time_scaled
from .records import dataclass_from_record, dataclass_record
from .torus_solver import GRID_POINT_BUDGET, _certify_stack, _solve_stack, check_grid

__all__ = [
    "MeasureReport",
    "ScanPlan",
    "FitResult",
    "ball_samples",
    "scan_epsilon",
    "run_plan",
    "fit_scaling",
    "gevrey_forecast",
]

# most samples of one slice: 16 times the density 1024 a scan plans for, since
# ball_samples makes every sample before any is certified and solved
SAMPLE_BUDGET = 2 ** 14


def _radical_inverse(base: int, index: np.ndarray) -> np.ndarray:
    """Van der Corput radical inverse of each index in `base`: the digits
    summed from the least significant one, each times a power of 1/base
    taken by repeated division."""
    out = np.zeros(index.shape)
    weight = 1.0 / base
    index = index.copy()
    while np.any(index > 0):
        out += weight * (index % base)
        index //= base
        weight /= base
    return out


def _primes(n: int) -> list:
    """The first n primes."""
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def ball_samples(n: int, count: int) -> np.ndarray:
    """First `count` points of the unscrambled Halton sequence (radical
    inverses in the first n prime bases, index 0 the origin of [0,1)^n)
    inside the open unit ball, mapped from [0,1)^n to (-1,1)^n by rejection
    in blocks of 256 indices.

    The sequence is a fixed mathematical object, so every call with the
    same arguments returns bit-identical points.
    """
    if count < 1:
        raise ValueError("count must be positive")
    bases = _primes(n)
    kept = []
    total = 0
    start = 0
    while total < count:
        index = np.arange(start, start + 256)
        # coordinate-major, so the norm sums each point's squares in the
        # same order for every block
        block = 2.0 * np.array([_radical_inverse(b, index) for b in bases]).T - 1.0
        inside = block[np.linalg.norm(block, axis=1) < 1.0]
        kept.append(inside)
        total += inside.shape[0]
        start += 256
    return np.concatenate(kept, axis=0)[:count]


@dataclass(eq=False)
class MeasureReport:
    """One epsilon slice of a scan.

    `detail` keeps the audit split of the rejected samples
    (margin_rejected / dioph_rejected / newton_failed) and the Newton sweeps
    of the slice, failed samples included (newton_sweeps); the headline
    counters follow the counting identity exactly.
    """
    epsilon: float
    mu: float
    gamma_used: float
    tau_used: float
    samples: int
    selected: int
    converged: int
    complement_fraction: float
    wall_time: float = 0.0
    nu: Optional[float] = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.converged <= self.selected <= self.samples):
            raise ValueError("counts must satisfy 0 <= converged <= selected <= samples")
        if not (0.0 <= self.complement_fraction <= 1.0):
            raise ValueError("complement_fraction must lie in [0, 1]")
        if self.complement_fraction != (self.samples - self.converged) / self.samples:
            raise ValueError("complement_fraction inconsistent with the counters")
        if self.detail:
            parts = (self.detail["margin_rejected"] + self.detail["dioph_rejected"]
                     + self.detail["newton_failed"] + self.converged)
            if parts != self.samples:
                raise ValueError("detail counts break the counting identity")

    def to_record(self) -> dict:
        rec = dataclass_record(self, "measure_report", detail=dict)
        nu = rec.pop("nu")              # last, and only in Gevrey mode
        if nu is not None:
            rec["nu"] = nu
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "MeasureReport":
        return dataclass_from_record(cls, rec, "measure_report", detail=dict)


@dataclass(eq=False)
class ScanPlan:
    """Sweep configuration: the physical Hamiltonian template, the frequency,
    the epsilon grid and the selection-rule coefficients.

    gamma = max(gamma_coeff * sqrt(mu), gamma_floor) and samples within
    margin_coeff * sqrt(mu) of the unit sphere are rejected outright.
    wall_time columns stay 0.0 unless record_timings is set, so default
    artifacts are byte-reproducible.
    """
    base: HamiltonianSpec
    freq: FrequencyVector
    epsilons: tuple
    density: int = 512
    gamma_coeff: float = 0.5
    gamma_floor: float = 1e-8
    tau: float = 1.5
    margin_coeff: float = 1.0
    mu_gate: float = 0.3
    sqrt_mu_gate: float = 0.5
    grid: int = 16
    tol: float = 1e-10
    max_iter: int = 30
    c: float = 1.0
    gevrey_alpha: Optional[float] = None
    gevrey_c_bar: Optional[float] = None
    record_timings: bool = False

    def __post_init__(self):
        try:
            self.epsilons = tuple(float(e) for e in self.epsilons)
        except (TypeError, ValueError):
            raise ValueError(f"field 'epsilons' must be a list of real numbers, "
                             f"got {self.epsilons!r}") from None
        if self.base.state != PHYSICAL:
            raise ValueError("plan template must be a physical-state spec")
        if not np.array_equal(self.base.omega, self.freq.components):
            raise ValueError(f"field 'base' has omega {self.base.omega.tolist()}, which "
                             f"differs from the components {self.freq.components.tolist()} "
                             f"of field 'freq'")
        for name in ("density", "max_iter", "grid"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(f"field {name!r} must be a positive integer, "
                                 f"got {value!r}")
        if self.density > SAMPLE_BUDGET:
            raise ValueError(f"field 'density' must be at most {SAMPLE_BUDGET}, "
                             f"got {self.density!r}")
        for name in ("tau", "tol", "c", "mu_gate", "sqrt_mu_gate", "gamma_coeff",
                     "margin_coeff", "gamma_floor"):
            value = getattr(self, name)
            positive = name != "gamma_floor"        # a zero floor leaves gamma_coeff
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0 or (positive and value == 0)):
                raise ValueError(f"field {name!r} must be a finite "
                                 f"{'positive' if positive else 'non-negative'} real "
                                 f"number, got {value!r}")
        fa.check_gevrey(self.gevrey_alpha, self.gevrey_c_bar)
        if not isinstance(self.record_timings, bool):
            raise ValueError(f"field 'record_timings' must be a bool, "
                             f"got {self.record_timings!r}")
        n = self.base.n
        if not self.tau > n - 1:
            raise ValueError(f"tau must exceed n-1 = {n - 1}")
        if not all(0 < e < math.inf for e in self.epsilons):
            raise ValueError("epsilons must be finite and positive")
        check_grid(self.grid, n)

    @property
    def n(self) -> int:
        return self.base.n

    def to_record(self) -> dict:
        return dataclass_record(self, "scan_plan", base=HamiltonianSpec.to_record,
                                freq=FrequencyVector.to_record, epsilons=list)

    @classmethod
    def from_record(cls, rec: dict) -> "ScanPlan":
        return dataclass_from_record(cls, rec, "scan_plan",
                                     base=HamiltonianSpec.from_record,
                                     freq=FrequencyVector.from_record)


def scan_epsilon(plan: ScanPlan, epsilon: float) -> MeasureReport:
    """Run the full selection + solve pipeline at one epsilon.

    Raises GateFailed before doing any work when mu or sqrt(mu) exceeds the
    configured gates; normal-form errors propagate untouched.
    """
    epsilon = float(epsilon)
    t0 = time.perf_counter()
    profile = fa.mu_nu(plan.freq, epsilon, c=plan.c,
                       alpha=plan.gevrey_alpha, c_bar=plan.gevrey_c_bar)
    mu = profile.mu
    if mu > plan.mu_gate:
        raise GateFailed(f"mu = {mu:.6g} exceeds the gate {plan.mu_gate:g}")
    if math.sqrt(mu) > plan.sqrt_mu_gate:
        raise GateFailed(
            f"sqrt(mu) = {math.sqrt(mu):.6g} exceeds the gate {plan.sqrt_mu_gate:g}")

    phys = replace(plan.base, epsilon=epsilon)
    nf = one_step_normal_form(prepare_time_scaled(phys), plan.freq,
                              c=plan.c, mu_max=plan.mu_gate,
                              gevrey_alpha=plan.gevrey_alpha,
                              gevrey_c_bar=plan.gevrey_c_bar)
    spec = nf.spec_out

    gamma = max(plan.gamma_coeff * math.sqrt(mu), plan.gamma_floor)
    margin = plan.margin_coeff * math.sqrt(mu)
    points = ball_samples(plan.n, plan.density)
    inside = points[np.linalg.norm(points, axis=1) <= 1.0 - margin]
    # samples are certified and solved in blocks of one torus budget of grid
    # points, so neither the stacked divisor table nor the Newton stack grows
    # with the density
    block = GRID_POINT_BUDGET // plan.grid ** plan.n
    selected = converged = sweeps = 0
    for part in np.split(inside, range(block, len(inside), block)):
        targets = _certify_stack(spec, part, gamma, plan.tau, plan.grid)
        certified = [i for i, t in enumerate(targets)
                     if not isinstance(t, SmallDivisorBreakdown)]
        outcomes = _solve_stack(spec, [targets[i] for i in certified], part[certified],
                                grid=plan.grid, tol=plan.tol, max_iter=plan.max_iter)
        # certification covered every wavevector the solve grid can represent,
        # so a divisor trip in the solve is a pipeline bug and is raised
        for out in outcomes:
            if isinstance(out.error, SmallDivisorBreakdown):
                raise out.error
        selected += len(certified)
        converged += sum(out.error is None for out in outcomes)
        sweeps += sum(len(out.history) for out in outcomes)

    elapsed = time.perf_counter() - t0
    return MeasureReport(
        epsilon=epsilon, mu=mu, gamma_used=gamma, tau_used=plan.tau,
        samples=plan.density, selected=selected, converged=converged,
        complement_fraction=(plan.density - converged) / plan.density,
        wall_time=elapsed if plan.record_timings else 0.0,
        nu=profile.nu,
        detail={"margin_rejected": plan.density - len(inside),
                "dioph_rejected": len(inside) - selected,
                "newton_failed": selected - converged,
                "newton_sweeps": sweeps})


def run_plan(plan: ScanPlan) -> list:
    """Scan every epsilon of the plan in the order given."""
    return [scan_epsilon(plan, eps) for eps in plan.epsilons]


@dataclass(frozen=True)
class FitResult:
    """Power-law summary of a sweep: slope of log complement vs log mu and
    the min/max of the normalized ratio across the points used."""
    exponent: float
    c_low: float
    c_high: float
    points: int

    def to_record(self) -> dict:
        return dataclass_record(self, "fit_result")

    @classmethod
    def from_record(cls, rec: dict) -> "FitResult":
        return dataclass_from_record(cls, rec, "fit_result")


def fit_scaling(reports: Sequence[MeasureReport]) -> FitResult:
    """Least-squares exponent of complement_fraction against mu, plus the
    bracket [c_low, c_high] of complement_fraction / sqrt(mu).

    Raises InsufficientSpan when fewer than 4 reports, less than 2 decades
    of mu, or a vanishing complement fraction make the log fit meaningless.
    """
    if len(reports) < 4:
        raise InsufficientSpan(f"need at least 4 reports, got {len(reports)}")
    mus = np.array([r.mu for r in reports], dtype=np.float64)
    cfs = np.array([r.complement_fraction for r in reports], dtype=np.float64)
    decades = math.log10(mus.max() / mus.min())
    if decades < 2.0 - 1e-9:
        raise InsufficientSpan(f"mu spans {decades:.3f} decades, need 2")
    if np.any(cfs <= 0.0):
        raise InsufficientSpan("complement fraction vanished at some epsilon; "
                               "log fit undefined")
    exponent = float(np.polyfit(np.log(mus), np.log(cfs), 1)[0])
    ratios = cfs / np.sqrt(mus)
    return FitResult(exponent=exponent, c_low=float(ratios.min()),
                     c_high=float(ratios.max()), points=len(reports))


def gevrey_forecast(freq: FrequencyVector, epsilons: Sequence[float],
                    c: float = 1.0, alpha: float = 1.0,
                    c_bar: Optional[float] = None) -> list:
    """Arithmetic-only prediction table: for each epsilon the power scale
    sqrt(mu) next to the regularity-class scale sqrt(nu).

    In the analytic case (alpha = 1) nu is exponentially small in 1/mu, so
    the predicted normalized complement collapses far below the sampled
    power-law column.  No solves are run.
    """
    rows = []
    for eps in epsilons:
        prof = fa.mu_nu(freq, float(eps), c=c, alpha=alpha, c_bar=c_bar)
        rows.append({
            "eps": float(eps),
            "mu": prof.mu,
            "nu": prof.nu,
            "sqrt_mu": math.sqrt(prof.mu),
            "predicted_complement": math.sqrt(prof.nu),
        })
    return rows
