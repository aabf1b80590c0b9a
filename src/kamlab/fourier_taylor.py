"""Fourier-Taylor series calculus on T^n x R^n and structured Hamiltonians.

A series is a finite sum of terms  c * exp(2*pi*i k.theta) * I^m  with k an
integer wavevector, m an action multi-index, and complex c.  Angles have
period 1, so every derivative in theta carries an explicit 2*pi.  Real-valued
series satisfy c(-k, m) == conj(c(k, m)); all operations preserve this.

The Poisson bracket convention is
    {F, G} = dF/dtheta . dG/dI - dF/dI . dG/dtheta,
matching equations of motion  theta' = dH/dI,  I' = -dH/dtheta,  and
F' = {F, chi} along the flow of chi.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._dop853 import dop853
from .errors import KolmogorovDegenerate, NonConvergentStep, StateMismatch
from .records import check_record, dataclass_from_record


def _as_key(k, m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(int(v) for v in k), tuple(int(v) for v in m)


class FourierTaylorSeries:
    """Immutable-by-convention container of (k, m) -> complex coefficients.

    All algebraic operations return new instances; the term dict should not
    be mutated after construction (the compiled evaluator and the angle
    average are cached).
    """

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = int(n)
        self._terms: dict = {}
        if terms:
            for (k, m), c in terms.items():
                key = _as_key(k, m)
                if len(key[0]) != self.n or len(key[1]) != self.n:
                    raise ValueError("term dimension does not match n")
                if any(v < 0 for v in key[1]):
                    raise ValueError("negative action exponent")
                c = complex(c)
                if c != 0:
                    self._terms[key] = self._terms.get(key, 0j) + c
        self._compiled: Optional["CompiledSeries"] = None
        self._average: Optional["FourierTaylorSeries"] = None

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "FourierTaylorSeries":
        """The series of the algebra's own results, whose keys are already
        distinct (k, m) tuples of n ints with m >= 0: skips the key checks of
        __init__ but, like it, drops exact zeros and stores each coefficient
        as 0j + complex(c) (a -0.0 real part becomes +0.0, which to_record
        writes)."""
        out = cls.__new__(cls)
        out.n = n
        out._terms = {key: 0j + complex(c) for key, c in terms.items() if c != 0}
        out._compiled = None
        out._average = None
        return out

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "FourierTaylorSeries":
        return FourierTaylorSeries(n)

    @staticmethod
    def monomial(n: int, m, coeff: float = 1.0) -> "FourierTaylorSeries":
        return FourierTaylorSeries(n, {(tuple([0] * n), tuple(m)): coeff})

    @staticmethod
    def linear(w) -> "FourierTaylorSeries":
        """w . I."""
        n = len(w)
        return FourierTaylorSeries(
            n, {(tuple([0] * n), tuple(int(i == j) for i in range(n))): w[j]
                for j in range(n)})

    @staticmethod
    def _pair(n: int, k, m, c_plus, c_minus) -> "FourierTaylorSeries":
        """c_plus * exp(2 pi i k.theta) * I^m + c_minus * exp(-2 pi i k.theta)
        * I^m; at k = 0 the two add."""
        m = tuple([0] * n) if m is None else tuple(m)
        return (FourierTaylorSeries(n, {(tuple(k), m): c_plus})
                + FourierTaylorSeries(n, {(tuple(-v for v in k), m): c_minus}))

    @staticmethod
    def cosine(n: int, k, m=None, amplitude: float = 1.0) -> "FourierTaylorSeries":
        """amplitude * cos(2 pi k.theta) * I^m."""
        half = 0.5 * amplitude
        return FourierTaylorSeries._pair(n, k, m, half, half)

    @staticmethod
    def sine(n: int, k, m=None, amplitude: float = 1.0) -> "FourierTaylorSeries":
        """amplitude * sin(2 pi k.theta) * I^m."""
        half = amplitude / 2j
        return FourierTaylorSeries._pair(n, k, m, half, -half)

    # -- bookkeeping ----------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return (f"FourierTaylorSeries(n={self.n}, terms={len(self._terms)}, "
                f"deg<={self.action_degree()}, |k|<={self.max_harmonic()})")

    def max_harmonic(self) -> int:
        return max((sum(abs(v) for v in k) for k, _ in self._terms), default=0)

    def action_degree(self) -> int:
        return max((sum(m) for _, m in self._terms), default=0)

    def min_action_degree(self) -> int:
        return min((sum(m) for _, m in self._terms), default=0)

    def coefficient_norm(self, radius: float = 1.0) -> float:
        """Majorant sum |c| * radius^|m|; an upper bound for |series| on
        real angles and |I|_inf <= radius."""
        return float(sum(abs(c) * radius ** sum(m) for (_, m), c in self._terms.items()))

    def reality_error(self) -> float:
        worst = 0.0
        for (k, m), c in self._terms.items():
            mk = tuple(-v for v in k)
            worst = max(worst, abs(c - self._terms.get((mk, m), 0j).conjugate()))
        return worst

    # -- algebra ----------------------------------------------------------------

    def _binary(self, other: "FourierTaylorSeries", sign: float) -> "FourierTaylorSeries":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + sign * c
        return FourierTaylorSeries._trusted(self.n, out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor: complex) -> "FourierTaylorSeries":
        return FourierTaylorSeries._trusted(
            self.n, {key: factor * c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, FourierTaylorSeries):
            return self.product(other)
        return self.scale(other)

    __rmul__ = __mul__

    def product(self, other: "FourierTaylorSeries") -> "FourierTaylorSeries":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for (k1, m1), c1 in self._terms.items():
            for (k2, m2), c2 in other._terms.items():
                key = (tuple(a + b for a, b in zip(k1, k2)),
                       tuple(a + b for a, b in zip(m1, m2)))
                out[key] = out.get(key, 0j) + c1 * c2
        return FourierTaylorSeries._trusted(self.n, out)

    def dtheta(self, j: int) -> "FourierTaylorSeries":
        out = {}
        for (k, m), c in self._terms.items():
            if k[j]:
                out[(k, m)] = c * (2j * math.pi * k[j])
        return FourierTaylorSeries._trusted(self.n, out)

    def dI(self, j: int) -> "FourierTaylorSeries":
        out = {}
        for (k, m), c in self._terms.items():
            if m[j]:
                md = list(m)
                md[j] -= 1
                out[(k, tuple(md))] = out.get((k, tuple(md)), 0j) + c * m[j]
        return FourierTaylorSeries._trusted(self.n, out)

    def poisson(self, other: "FourierTaylorSeries") -> "FourierTaylorSeries":
        """{self, other} = sum_j d_theta_j self * d_I_j other - d_I_j self * d_theta_j other."""
        out = FourierTaylorSeries.zero(self.n)
        for j in range(self.n):
            out = out + self.dtheta(j).product(other.dI(j))
            out = out - self.dI(j).product(other.dtheta(j))
        return out

    # -- filters ------------------------------------------------------------------

    def _select(self, keep) -> "FourierTaylorSeries":
        """The terms whose (k, m) key and coefficient pass `keep`, in order."""
        return FourierTaylorSeries._trusted(
            self.n, {key: c for key, c in self._terms.items() if keep(key, c)})

    def average(self) -> "FourierTaylorSeries":
        """Angle average: the k = 0 terms."""
        if self._average is None:
            zero = tuple([0] * self.n)
            self._average = self._select(lambda key, c: key[0] == zero)
        return self._average

    def oscillating(self) -> "FourierTaylorSeries":
        zero = tuple([0] * self.n)
        return self._select(lambda key, c: key[0] != zero)

    def truncate_harmonics(self, K: int) -> "FourierTaylorSeries":
        """Keep terms with |k|_1 <= K."""
        return self._select(lambda key, c: sum(abs(v) for v in key[0]) <= K)

    def high_harmonics(self, K: int) -> "FourierTaylorSeries":
        return self._select(lambda key, c: sum(abs(v) for v in key[0]) > K)

    def action_slice(self, min_degree: int = 0,
                     max_degree: Optional[int] = None) -> "FourierTaylorSeries":
        hi = math.inf if max_degree is None else max_degree
        return self._select(lambda key, c: min_degree <= sum(key[1]) <= hi)

    def prune(self, tol_abs: float) -> "FourierTaylorSeries":
        return self._select(lambda key, c: abs(c) > tol_abs)

    # -- evaluation -----------------------------------------------------------------

    def compile(self) -> "CompiledSeries":
        if self._compiled is None:
            self._compiled = CompiledSeries(self)
        return self._compiled

    # -- records ----------------------------------------------------------------------

    def to_record(self) -> dict:
        return {
            "record": "fourier_taylor_series",
            "n": self.n,
            "terms": [[list(k), list(m), c.real, c.imag]
                      for (k, m), c in self.sorted_terms()],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "FourierTaylorSeries":
        check_record(rec, "fourier_taylor_series", ("n", "terms"))
        terms = {}
        for k, m, re, im in rec["terms"]:
            key = _as_key(k, m)
            if key != (tuple(k), tuple(m)) or max(key[1], default=0) > ACTION_EXPONENT_BUDGET:
                raise ValueError(f"fourier_taylor_series record has a term at k={k!r}, "
                                 f"m={m!r}: entries must be whole numbers and action "
                                 f"exponents at most {ACTION_EXPONENT_BUDGET}")
            if key in terms:
                raise ValueError(f"fourier_taylor_series record lists the term at "
                                 f"k={key[0]}, m={key[1]} twice")
            terms[key] = complex(re, im)
        return cls(rec["n"], terms)


class CompiledSeries:
    """Vectorized evaluator of the series grouped by wavevector,
        sum_k exp(2 pi i k.theta) P_k(I),
    over its distinct wavevectors k.  Every query runs one kernel over a batch
    of N points, (N, n) angles and actions; a single point is the batch N = 1."""

    def __init__(self, series: FourierTaylorSeries):
        self.n = series.n
        kset: dict = {}
        self._terms = [(kset.setdefault(k, len(kset)), m, c)
                       for (k, m), c in series.sorted_terms()]
        self.K = np.array(list(kset), dtype=np.int64).reshape(len(kset), self.n)
        self._dK = 2j * math.pi * self.K
        self._drops_I = tuple((j,) for j in range(self.n))
        self._plans: dict = {}

    def _plan(self, groups: tuple):
        """The monomials and coefficient matrices of the derivatives
        d^drop P_k for each tuple `drop` of action indices (an index listed
        twice differentiates twice) of each drop set in `groups`, built on
        first use and cached.  Each set numbers the distinct monomials its
        drops use on its own, and the sets' exponent rows are stacked in
        order into `exps` (exps[j] the exponents of I_j, `top` the largest),
        so a set's GEMMs see the same columns whatever sets share the table.
        A block (cols, mats) per set gives its column range and one
        (rows, 2 nK) real matrix per drop, holding the coefficient of
        k = K[i], its d^drop factor folded in, as real and imaginary parts in
        columns 2i and 2i + 1."""
        plan = self._plans.get(groups)
        if plan is None:
            exps, blocks = [], []
            for drops in groups:
                rows: dict = {}
                entries = []
                for drop in drops:
                    entries.append([])
                    for ik, m, c in self._terms:
                        e, fac = list(m), 1
                        for j in drop:
                            fac *= e[j]
                            e[j] -= 1
                        if fac:
                            entries[-1].append((rows.setdefault(tuple(e), len(rows)),
                                                ik, c * fac))
                mats = []
                for drop_entries in entries:
                    coeff = np.zeros((len(rows), len(self.K)), dtype=complex)
                    for r, ik, c in drop_entries:
                        coeff[r, ik] = c
                    mats.append(coeff.view(np.float64))
                blocks.append((slice(len(exps), len(exps) + len(rows)), mats))
                exps.extend(rows)
            exps = np.array(exps, dtype=np.intp).reshape(len(exps), self.n).T.copy()
            plan = self._plans[groups] = (exps, int(exps.max(initial=0)), blocks)
        return plan

    def _evaluate(self, theta: np.ndarray, I: np.ndarray, groups: tuple) -> list:
        """exp(2 pi i k.theta) d^drop P_k(I) at N points, (N, nK) complex, for
        each drop of each drop set in `groups`, in order: one phase table and
        one monomial table, and per drop one real GEMM of its set's columns
        of the monomial table against the drop's coefficient matrix."""
        exps, top, blocks = self._plan(groups)
        N = theta.shape[0]
        # action exponents are tiny ints: the powers I_j^0..I_j^top by
        # repeated multiplication beat a pow call per entry, and planes
        # (top + 1, n, N) make every step of it and every gathered row of
        # the monomial table one contiguous run
        tab = np.empty((top + 1, self.n, N))
        tab[0] = 1.0
        if top:
            tab[1] = I.T
        for e in range(2, top + 1):
            np.multiply(tab[e - 1], tab[1], out=tab[e])
        # the monomials (rows, N), multiplied over j in order
        mono = tab[exps[0], 0]
        for j in range(1, self.n):
            mono *= tab[exps[j], j]
        mono = mono.T
        phase = np.exp(2j * math.pi * (theta @ self.K.T))
        return [phase * (mono[:, cols] @ coeff).view(complex)
                for cols, mats in blocks for coeff in mats]

    def _derivatives(self, theta: np.ndarray, I: np.ndarray, drops: tuple) -> list:
        """The derivatives d^drop of the series at N points, one (N,) array
        per drop."""
        return [z.sum(axis=1).real for z in self._evaluate(theta, I, (drops,))]

    # -- queries: batches of N points ------------------------------------------

    def batch_value(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return self._derivatives(theta, I, ((),))[0]

    def batch_grad_theta(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return (self._evaluate(theta, I, (((),),))[0] @ self._dK).real

    def batch_grad_I(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return np.stack(self._derivatives(theta, I, self._drops_I), axis=1)

    def batch_field(self, theta: np.ndarray, I: np.ndarray):
        """(dH/dI, dH/dtheta) at N points, each (N, n), from one phase table
        and one monomial table: bit for bit batch_grad_I and
        batch_grad_theta, which run the same GEMMs."""
        z = self._evaluate(theta, I, (((),), self._drops_I))
        return (np.stack([d.sum(axis=1).real for d in z[1:]], axis=1),
                (z[0] @ self._dK).real)

    def batch_hess_II(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        pairs = tuple((j, l) for j in range(self.n) for l in range(j, self.n))
        out = np.empty((theta.shape[0], self.n, self.n))
        for (j, l), d in zip(pairs, self._derivatives(theta, I, pairs)):
            out[:, j, l] = out[:, l, j] = d
        return out

    # -- queries: one point, theta and I of shape (n,) ---------------------------

    def value(self, theta: np.ndarray, I: np.ndarray) -> float:
        return float(self.batch_value(theta[None], I[None])[0])

    def grad_theta(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return self.batch_grad_theta(theta[None], I[None])[0]

    def grad_I(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return self.batch_grad_I(theta[None], I[None])[0]

    def hess_II(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        return self.batch_hess_II(theta[None], I[None])[0]

    def canonical_field(self, theta: np.ndarray, I: np.ndarray):
        """(dH/dI, -dH/dtheta) at one point."""
        grad_I, grad_theta = self.batch_field(theta[None], I[None])
        return grad_I[0], -grad_theta[0]


# ---------------------------------------------------------------------------
# structured Hamiltonians
# ---------------------------------------------------------------------------

PHYSICAL = "physical"
ACTION_SCALED = "action_scaled"
TIME_SCALED = "time_scaled"


@dataclass(eq=False)
class HamiltonianSpec:
    """H = omega_prefactor * (omega . I) + quad + rest + extra_prefactor * extra.

    state "physical":       quad = A(theta) I.I, rest = O(I^3), prefactor 1.
    state "action_scaled":  after I -> eps I, H -> H/eps: a term of action
                            degree deg, in quad or rest, carries eps^(deg-1).
    state "time_scaled":    after H -> H/eps, t -> eps t: prefactor 1/eps.

    `extra` is the slot for a remainder produced by a normal-form step,
    stored with its own explicit prefactor so bookkeeping stays exact; only
    the time-scaled state holds one, as the rescalings do not carry it.

    Immutable by convention: no field is reassigned after construction
    (dataclasses.replace makes a variant), since perturbation() is cached.
    """
    omega: np.ndarray
    quad: FourierTaylorSeries
    rest: FourierTaylorSeries
    epsilon: float
    state: str = PHYSICAL
    omega_prefactor: float = 1.0
    extra: Optional[FourierTaylorSeries] = None
    extra_prefactor: float = 0.0
    domain_radius: float = 1.0

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.quad.n != self.omega.size or self.rest.n != self.omega.size:
            raise ValueError("series dimension does not match omega")
        if not np.all(np.isfinite(self.omega)):
            raise ValueError(f"field 'omega' must hold finite real numbers, "
                             f"got {self.omega.tolist()!r}")
        for name in ("epsilon", "domain_radius", "omega_prefactor", "extra_prefactor"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"field {name!r} must be a finite real number, "
                                 f"got {value!r}")
            if value <= 0 and name in ("epsilon", "domain_radius"):
                raise ValueError(f"field {name!r} must be positive, got {value!r}")
        if self.state not in (PHYSICAL, ACTION_SCALED, TIME_SCALED):
            raise ValueError(f"field 'state' must be one of {PHYSICAL!r}, "
                             f"{ACTION_SCALED!r}, {TIME_SCALED!r}, got {self.state!r}")
        if self.extra is not None and self.state != TIME_SCALED:
            raise ValueError(f"field 'extra' needs state {TIME_SCALED!r}, "
                             f"got state {self.state!r}")
        self._perturbation: dict = {}

    @property
    def n(self) -> int:
        return self.omega.size

    # -- scaling chain ---------------------------------------------------------

    def rescale_actions(self) -> "HamiltonianSpec":
        """I -> eps I together with H -> H / eps (state physical -> action_scaled)."""
        if self.state != PHYSICAL:
            raise StateMismatch(f"rescale_actions expects state {PHYSICAL!r}, "
                                f"got {self.state!r}")
        if self.rest.min_action_degree() < 3 and len(self.rest):
            raise StateMismatch("rest part must be O(I^3) in the physical state")
        eps = self.epsilon
        try:
            quad, rest = [FourierTaylorSeries(
                self.n, {key: c * eps ** (sum(key[1]) - 1) for key, c in s.terms().items()})
                for s in (self.quad, self.rest)]
            finite = all(cmath.isfinite(c) for s in (quad, rest) for c in s.terms().values())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"epsilon {eps!r} is too large: rescaling the actions by it "
                             f"overflows a coefficient")
        return HamiltonianSpec(
            omega=self.omega, quad=quad, rest=rest, epsilon=eps,
            state=ACTION_SCALED, omega_prefactor=self.omega_prefactor,
            domain_radius=self.domain_radius)

    def rescale_time(self) -> "HamiltonianSpec":
        """H -> H / eps with t -> eps t (state action_scaled -> time_scaled)."""
        if self.state != ACTION_SCALED:
            raise StateMismatch(f"rescale_time expects state {ACTION_SCALED!r}, "
                                f"got {self.state!r}")
        eps = self.epsilon
        return HamiltonianSpec(
            omega=self.omega, quad=self.quad.scale(1.0 / eps),
            rest=self.rest.scale(1.0 / eps), epsilon=eps,
            state=TIME_SCALED, omega_prefactor=self.omega_prefactor / eps,
            domain_radius=self.domain_radius)

    # -- views -------------------------------------------------------------------

    def perturbation(self, include_extra: bool = True) -> FourierTaylorSeries:
        """Everything except the linear omega term."""
        if include_extra not in self._perturbation:
            f = self.quad + self.rest
            if include_extra and self.extra is not None and self.extra_prefactor:
                f = f + self.extra.scale(self.extra_prefactor)
            self._perturbation[include_extra] = f
        return self._perturbation[include_extra]

    def linear_series(self, scale: float = 1.0) -> FourierTaylorSeries:
        return FourierTaylorSeries.linear(scale * self.omega_prefactor * self.omega)

    def combined_series(self, scale: float = 1.0) -> FourierTaylorSeries:
        """Full H (or scale*H) as one series, linear part included."""
        return self.linear_series(scale) + self.perturbation().scale(scale)

    def evaluate(self, theta, I) -> float:
        """H at one point, theta and I of shape (n,)."""
        theta, I = np.asarray(theta, float)[None], np.asarray(I, float)[None]
        lin = self.omega_prefactor * float(self.omega @ I[0])
        return lin + float(self.perturbation().compile().batch_value(theta, I)[0])

    def frequency_vector(self) -> np.ndarray:
        """The frequency of the unperturbed linear flow, prefactor included."""
        return self.omega_prefactor * self.omega

    # -- records --------------------------------------------------------------------

    def to_record(self) -> dict:
        rec = {
            "record": "hamiltonian_spec",
            "n": self.n,
            "omega": [repr(float(v)) for v in self.omega],
            "epsilon": self.epsilon,
            "state": self.state,
            "omega_prefactor": self.omega_prefactor,
            "domain_radius": self.domain_radius,
            "quad": self.quad.to_record(),
            "rest": self.rest.to_record(),
        }
        if self.extra is not None:
            rec["extra"] = self.extra.to_record()
            rec["extra_prefactor"] = self.extra_prefactor
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "HamiltonianSpec":
        series = FourierTaylorSeries.from_record
        return dataclass_from_record(cls, rec, "hamiltonian_spec", derived=("n",),
                                     omega=lambda strings: [float(s) for s in strings],
                                     quad=series, rest=series, extra=series)


def quadratic_from_matrices(n: int, constant: np.ndarray,
                            modulations: Iterable[tuple] = ()) -> FourierTaylorSeries:
    """Build A(theta) I.I with A = constant + sum_k cos(2pi k.th) C_k + sin(2pi k.th) S_k.

    Matrices are symmetrized; `modulations` is an iterable of (k, C, S)
    with either matrix allowed to be None.
    """
    def entries(matrix):
        """The (m, coefficient) terms of I.A I, A the symmetric part of matrix."""
        A = 0.5 * (np.asarray(matrix, float) + np.asarray(matrix, float).T)
        for i in range(n):
            for j in range(i, n):
                m = [0] * n
                m[i] += 1
                m[j] += 1
                coeff = float(A[i, j] if i == j else 2.0 * A[i, j])
                if coeff:
                    yield m, coeff

    series = FourierTaylorSeries.zero(n)
    for m, c in entries(constant):
        series = series + FourierTaylorSeries.monomial(n, m, c)
    for k, C, S in modulations:
        for build, matrix in ((FourierTaylorSeries.cosine, C), (FourierTaylorSeries.sine, S)):
            if matrix is not None:
                for m, c in entries(matrix):
                    series = series + build(n, k, m, c)
    return series


def averaged_quadratic_matrix(series: FourierTaylorSeries) -> np.ndarray:
    """Symmetric matrix A0 with I.A0 I = angle average of the degree-2 part."""
    n = series.n
    avg = series.average().action_slice(2, 2)
    A = np.zeros((n, n))
    for (_, m), c in avg.terms().items():
        idx = [j for j, v in enumerate(m) for _ in range(v)]
        i, j = idx[0], idx[1]
        if i == j:
            A[i, i] += c.real
        else:
            A[i, j] += 0.5 * c.real
            A[j, i] += 0.5 * c.real
    return A


# Largest condition number accepted for an averaged twist matrix, here and
# in the torus solver's counterterm.
COND_MAX = 1e8


def check_kolmogorov(series: FourierTaylorSeries) -> tuple[np.ndarray, float]:
    """Averaged quadratic matrix and its condition number.

    Raises KolmogorovDegenerate when the matrix is singular or worse
    conditioned than COND_MAX.
    """
    A0 = averaged_quadratic_matrix(series)
    if not np.all(np.isfinite(A0)) or np.allclose(A0, 0.0):
        raise KolmogorovDegenerate("averaged quadratic part vanishes")
    cond = float(np.linalg.cond(A0))
    if not math.isfinite(cond) or cond > COND_MAX:
        raise KolmogorovDegenerate(
            f"averaged quadratic matrix condition {cond:.3e} exceeds {COND_MAX:.1e}")
    return A0, cond


# ---------------------------------------------------------------------------
# canonical flows
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    """Recorded times (T,), and angles and actions (T, N, n) and energies
    (T, N) of the N points at those times; the last entry is the final state."""
    times: np.ndarray
    thetas: np.ndarray
    actions: np.ndarray
    energies: np.ndarray

    @property
    def energy_drift(self) -> float:
        """Largest energy change of any point of the flow."""
        return float(np.max(np.abs(self.energies - self.energies[0])))


# most steps of one flow: 10 times the longest in use (t_final = 1e3 at
# step 1e-2)
FLOW_STEP_BUDGET = 10 ** 6

# largest action exponent of a series record, the planes of n values per point
# of an evaluation's power table: over 5 times 11, the gate family's at eps 3e-2
ACTION_EXPONENT_BUDGET = 64

# a midpoint step's fixed point is reached when no half-step increment moves
# by more than this, relative to 1 + |I|, within FIXED_POINT_MAX_ITER
# iterations
FIXED_POINT_TOL = 1e-14
FIXED_POINT_MAX_ITER = 100


def flow_steps(t_final: float, step: float) -> int:
    """Number of steps of size `step` in `t_final`.  Raises ValueError unless
    both are positive, their ratio is finite and at most FLOW_STEP_BUDGET, and
    t_final is a whole number of steps, one at least."""
    steps = t_final / step if 0 < step < math.inf else math.nan
    if not (t_final > 0 and math.isfinite(steps)):
        raise ValueError(f"t_final and step must be positive with a finite ratio, "
                         f"got t_final={t_final!r}, step={step!r}")
    n_steps = int(round(steps))
    if n_steps > FLOW_STEP_BUDGET:
        raise ValueError(f"t_final={t_final!r} at step={step!r} takes {steps:.6g} steps, "
                         f"beyond the budget of {FLOW_STEP_BUDGET}")
    if n_steps < 1 or abs(n_steps * step - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final must be a whole number of steps, one at least, "
                         f"got t_final={t_final!r}, step={step!r}")
    return n_steps


def integrate_flow(hamiltonian: FourierTaylorSeries, theta, I,
                   t_final: float, step: float, method: str = "midpoint",
                   record_every: int = 0) -> FlowResult:
    """Integrate theta' = dH/dI, I' = -dH/dtheta for the series H.

    "midpoint" is the implicit midpoint rule, symplectic, with a fixed-point
    solve per step; "dop853" is the adaptive Dormand-Prince 8(5, 3) method
    (rtol 1e-12, atol 1e-13), step for step scipy's, and serves as the
    accuracy oracle.  Angles are not wrapped, so rotation numbers can be read
    off the final state.  Both methods record step 0, every record_every-th
    step and the last (only the first and the last at record_every 0), at
    times s * step but exactly t_final at the end; dop853 interpolates there.

    The N points of theta and I, each (N, n), are integrated as one system:
    the recorded thetas and actions have shape (T, N, n) and energies (T, N),
    and end at the final state.  The midpoint fixed point is solved per
    point, each with its own warm start and stopping rule, on the rows still
    iterating; dop853 makes one adaptive solve of the whole stack.
    """
    n_steps = flow_steps(t_final, step)
    if not (isinstance(record_every, numbers.Integral) and record_every >= 0):
        raise ValueError(f"record_every must be a whole number >= 0, got {record_every!r}")
    comp = hamiltonian.compile()
    theta, I = (np.asarray(side, dtype=np.float64) for side in (theta, I))
    n_pts, n = theta.shape
    steps = np.append(np.arange(0, n_steps, record_every or n_steps), n_steps)
    times = steps * step
    times[-1] = t_final

    # (theta, I) per recorded time; states are replaced, never updated
    rec = [(theta, I)]

    def field(th, act):
        grad_I, grad_theta = comp.batch_field(th, act)
        return grad_I, -grad_theta

    if method == "midpoint":
        # the fixed point is solved for the half-step increments: they are
        # small, so theta + 2 * increment rounds once per step.  The first
        # guess is an explicit half step, later ones each point's previous
        # increment (an O(h^2) warm start)
        half = 0.5 * step
        recorded = set(steps.tolist())
        gI, gTh = field(theta, I)
        d_th, d_I = half * gI, half * gTh
        for s in range(1, n_steps + 1):
            # a slice while every point iterates: views, not gathers
            live = slice(None)
            for _ in range(FIXED_POINT_MAX_ITER):
                I_live = I[live]
                gI, gTh = field(theta[live] + d_th[live], I_live + d_I[live])
                new_th, new_I = half * gI, half * gTh
                delta = np.maximum(np.max(np.abs(new_th - d_th[live]), axis=1),
                                   np.max(np.abs(new_I - d_I[live]), axis=1))
                d_th[live] = new_th
                d_I[live] = new_I
                going = ~(delta <= FIXED_POINT_TOL
                          * (1.0 + np.max(np.abs(I_live + new_I), axis=1)))
                if not going.any():
                    break
                if not going.all():
                    live = np.arange(n_pts)[live][going]
            else:
                raise NonConvergentStep(
                    f"implicit midpoint fixed point stalled at step {s} "
                    f"for {np.count_nonzero(going)} of {n_pts} points")
            theta = theta + 2.0 * d_th
            I = I + 2.0 * d_I
            if s in recorded:
                rec.append((theta, I))
    elif method == "dop853":
        def rhs(_t, z):
            gI, gTh = field(*z.reshape(2, n_pts, n))
            return np.concatenate([gI.ravel(), gTh.ravel()])

        _, ys, success, message = dop853(
            rhs, t_final, np.concatenate([theta.ravel(), I.ravel()]), times)
        if not success:
            raise NonConvergentStep(f"dop853 failed: {message}")
        # the state at time 0 is the start itself, not its interpolant
        rec += [z.reshape(2, n_pts, n) for z in ys.T[1:]]
    else:
        raise ValueError(f"unknown method {method!r}")

    thetas, actions = (np.array(side) for side in zip(*rec))
    energies = comp.batch_value(thetas.reshape(-1, n),
                                actions.reshape(-1, n)).reshape(len(times), n_pts)
    return FlowResult(times=times, thetas=thetas, actions=actions, energies=energies)
