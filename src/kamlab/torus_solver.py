"""Invariant torus continuation for rescaled Hamiltonians, by spectral Newton.

The torus is parametrized Kolmogorov-style,
    K(phi) = (phi + u(phi), I0 + v(phi)),   phi in T^n,
with u, v zero-average (gauge) and I0 a free counterterm.  Invariance with
internal frequency Omega means
    E_ang(phi) = dH/dI (K(phi)) - (Id + Du(phi)) Omega = 0,
    E_act(phi) = dH/dtheta (K(phi)) + Dv(phi) Omega = 0.
The linear part of H contributes dH/dI = Omega_base exactly, so the defects
are computed with the large base frequency cancelled analytically; only the
O(1) frequency shift and the perturbation gradients ever enter the floats.

Each quasi-Newton sweep does two cohomological solves with divisors
2*pi*i (k . Omega) on the FFT grid and shifts I0 by the counterterm
  dI0 = -<T>^{-1} (<E_ang> + <T dv>),   T = d2H/dI2 (K(phi)),
which is where Kolmogorov non-degeneracy (<T> invertible) is used.

The target frequency is certified Diophantine before solving: the slow
vector eps * Omega must satisfy |k . w| >= gamma |k|_1^(-tau) for every
representable grid mode.  Divisors are rechecked against half that floor.

Certification and the Newton sweep both run on stacks of tori of one
Hamiltonian (a scan slice certifies and solves all its samples at once);
each torus of a stack gets what it would get alone, bit for bit, and
certify_target and solve_torus are the stacks of one."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    KolmogorovDegenerate,
    NonConvergence,
    OutsideImage,
    SmallDivisorBreakdown,
)
from .fourier_taylor import COND_MAX, HamiltonianSpec, integrate_flow
from .freq_arith import _DivisorTable, compensated_dot
from .records import dataclass_from_record, dataclass_record

# pulled-back tori must stay inside this fraction of the declared domain
PULLBACK_MARGIN = 0.9

# most collocation points grid^n of one torus: 16 times the largest grid in
# use (grid 128 at n = 2, and the doubled grid of invariance_defect on a
# grid-64 torus).  A Newton sweep peaks at 3.8 to 3.9 times the bytes of its
# u_hat and v_hat, about 8 arrays of n grid^n complex values per torus
# (tracemalloc, n = 2, stacks of 16 to 1024 tori at grid 16 and 32): 61 KB
# per grid-16 torus, 61 MB for a stack that fills this budget
GRID_POINT_BUDGET = 2 ** 18

# a torus record keeps the Fourier coefficients above this modulus
COEFF_TOL = 1e-16

# verify_by_integration records every this many steps of its trajectories
VERIFY_RECORD_EVERY = 200

# pull_back refuses a scaled torus within PULLBACK_MARGIN_COEFF * sqrt(mu) of
# the unit action boundary, and flows it by the normal-form change of
# variables at PULLBACK_FLOW_STEP
PULLBACK_MARGIN_COEFF = 1.0
PULLBACK_FLOW_STEP = 0.125


def check_grid(grid: int, n: int) -> None:
    """Raise ValueError unless a torus of n angles can be solved or evaluated
    on `grid` points per axis: grid even, at least 4, and grid^n within
    GRID_POINT_BUDGET."""
    if grid % 2 or grid < 4:
        raise ValueError("grid must be even and at least 4")
    if grid ** n > GRID_POINT_BUDGET:
        raise ValueError(f"grid {grid} in {n} angles has {grid ** n} points, beyond "
                         f"the budget of {GRID_POINT_BUDGET} points per torus")


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def _mesh(axis: np.ndarray, n: int) -> np.ndarray:
    """(len(axis)^n, n) points of the n-fold product of `axis`, in C order."""
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _wavevectors(grid: int, n: int) -> np.ndarray:
    """Integer wavevectors in fftn layout, shape (grid^n, n)."""
    return _mesh(np.fft.fftfreq(grid, d=1.0 / grid).astype(np.int64), n)


def _grid_phis(grid: int, n: int) -> np.ndarray:
    """(grid^n, n) collocation angles in [0, 1)."""
    return _mesh(np.arange(grid) / grid, n)


def _hat(values: np.ndarray, n: int) -> np.ndarray:
    """Fourier coefficients c_k with values = sum c_k exp(2 pi i k.phi), taken
    over the trailing n axes of a stack of grid functions.  The transform and
    the division run in place in one complex copy, so `values` is left as it
    is."""
    c = np.array(values, dtype=complex, order="C")
    np.fft.fftn(c, axes=tuple(range(-n, 0)), out=c)
    c /= np.prod(values.shape[-n:])
    return c


def _grid_values(hat: np.ndarray, grid: int, stack: int = 0,
                 symbol: Optional[np.ndarray] = None) -> np.ndarray:
    """Values of a coefficient stack lead + (own,)*n, n = hat.shape[stack], on
    a grid at least as fine as its own, by inverse FFT of the zero-padded
    coefficients; with a `symbol`, of the product hat * symbol (broadcast).
    Shape lead[:stack] + (grid^n,) + lead[stack:], so the first `stack` axes
    (samples) stay in front of the points; C-contiguous: einsum and BLAS sum
    three or more terms in an order set by the memory layout.  The inverse
    FFT and its scaling run in place in the one complex array the call owns
    (the product, the padded stack or a fresh output), so `hat` is left as
    it is."""
    if symbol is not None:
        hat = hat * symbol
    n = hat.shape[stack]
    lead, own = hat.shape[:-n], hat.shape[-1]
    owned = symbol is not None
    if grid != own:
        if grid < own:
            raise ValueError("padding target must not be coarser")
        freqs = np.fft.fftfreq(own, d=1.0 / own).astype(np.int64)
        idx = np.where(freqs >= 0, freqs, grid + freqs)
        padded = np.zeros(lead + (grid,) * n, dtype=complex)
        padded[(Ellipsis,) + np.ix_(*([idx] * n))] = hat
        hat, owned = padded, True
    values = np.fft.ifftn(hat, axes=tuple(range(-n, 0)),
                          out=hat if owned else np.empty_like(hat, dtype=complex))
    values *= grid ** n
    front = math.prod(lead[:stack])
    values = values.real.reshape(front, -1, grid ** n).transpose(0, 2, 1)
    return np.ascontiguousarray(values).reshape(lead[:stack] + (grid ** n,) + lead[stack:])


# rows per call of a batch evaluator in a Newton sweep: past about 1024 rows
# the cost per point grows 3-6x (page faults on fresh temporaries over
# 128 KB, and a threaded tiny GEMM)
_EVAL_ROWS = 1024


def _evaluate_blocks(method, theta: np.ndarray, acts: np.ndarray) -> list:
    """method(theta, acts), returning a tuple of arrays, at the (S, P, n)
    points of a stack, in blocks of at most _EVAL_ROWS points written into one
    output per array; each of shape (S, P) + that array's trailing shape."""
    lead, n = theta.shape[:-1], theta.shape[-1]
    theta, acts = theta.reshape(-1, n), acts.reshape(-1, n)
    outs = None
    for i in range(0, theta.shape[0], _EVAL_ROWS):
        block = method(theta[i:i + _EVAL_ROWS], acts[i:i + _EVAL_ROWS])
        if outs is None:
            outs = [np.empty(theta.shape[:1] + b.shape[1:]) for b in block]
        for out, b in zip(outs, block):
            out[i:i + _EVAL_ROWS] = b
    return [out.reshape(lead + out.shape[1:]) for out in outs]


def _defect(comp, u_hat: np.ndarray, v_hat: np.ndarray, I0: np.ndarray,
            L_Omega: np.ndarray, drift: np.ndarray, grid: int):
    """Grid points of K and the invariance defects, each (S, grid^n, n), for a
    stack of S embeddings (u_hat, v_hat (S, n) + (own,)*n; I0, drift (S, n);
    L_Omega (S,) + (own,)*n) on a grid at least as fine as their own:
        E_ang = dF/dI (K) - drift - L_Omega u,   E_act = dF/dtheta (K) + L_Omega v,
    with F the compiled perturbation `comp`, L_Omega = Omega . d/dphi given by
    its symbol 2 pi i k.Omega on the embedding's grid, and drift =
    Omega - dH_lin/dI, so the base frequency cancels analytically."""
    n = I0.shape[1]
    L_Omega = L_Omega[:, None]
    theta = _grid_values(u_hat, grid, 1)
    theta += _grid_phis(grid, n)
    acts = _grid_values(v_hat, grid, 1)
    acts += I0[:, None, :]
    E_ang, E_act = _evaluate_blocks(comp.batch_field, theta, acts)
    E_ang -= drift[:, None, :]
    E_ang -= _grid_values(u_hat, grid, 1, L_Omega)
    E_act += _grid_values(v_hat, grid, 1, L_Omega)
    return theta, acts, E_ang, E_act


def _reprs(vector: np.ndarray) -> list:
    """The repr strings of a float vector, read back bit for bit by _floats."""
    return [repr(float(x)) for x in vector]


def _floats(strings: list) -> np.ndarray:
    return np.array([float(s) for s in strings])


_VECTORS = ("I0", "Omega", "shift", "omega_slow")     # TargetFrequency's vector fields


@dataclass(eq=False)
class TargetFrequency:
    """Certified internal frequency of a torus.

    Omega = base + shift where base is the (large) linear frequency of the
    Hamiltonian and shift is the image of the base action I0 under the
    averaged frequency map.  omega_slow = eps * Omega is the vector the
    (gamma, tau) certificate is issued for.
    """
    I0: np.ndarray
    Omega: np.ndarray
    shift: np.ndarray
    omega_slow: np.ndarray
    gamma: float
    tau: float
    q_max: int
    margin: float          # min |k.w| |k|^tau / gamma over the checked ball

    def to_record(self) -> dict:
        return dataclass_record(self, "target_frequency",
                                **dict.fromkeys(_VECTORS, _reprs))

    @classmethod
    def from_record(cls, rec: dict) -> "TargetFrequency":
        return dataclass_from_record(cls, rec, "target_frequency",
                                     **dict.fromkeys(_VECTORS, _floats))


def certify_target(spec: HamiltonianSpec, I_target: np.ndarray,
                   gamma: Optional[float] = None, tau: float = 1.5,
                   q_max: Optional[int] = None, grid: int = 64) -> TargetFrequency:
    """Frequency-map image of I_target with a (gamma, tau) Diophantine check.

    The default q_max is four times the grid's Fourier truncation, which
    covers every representable mode on the solve grid through n = 4.  gamma
    None picks the largest certifiable value (99% of the measured minimum of
    |k.w| |k|_1^tau), so the certificate always records an honest margin;
    pass an explicit gamma to make selection meaningful.  Raises
    SmallDivisorBreakdown when the check fails.
    """
    I_target = np.asarray(I_target, dtype=np.float64)
    out, = _certify_stack(spec, I_target[None], gamma, tau, q_max, grid)
    if isinstance(out, SmallDivisorBreakdown):
        raise out
    return out


def _certify_stack(spec: HamiltonianSpec, I_targets: np.ndarray,
                   gamma: Optional[float], tau: float, q_max: Optional[int],
                   grid: int) -> list:
    """certify_target for S target actions (S, n) of one Hamiltonian, with one
    divisor table for all their frequencies.  Entry s is the TargetFrequency
    certify_target returns for I_targets[s], or the SmallDivisorBreakdown it
    raises."""
    if gamma is not None and not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if not len(I_targets):
        return []
    f_avg = spec.perturbation(include_extra=True).average().compile()
    # dH/dI one point per call, as a single certification evaluates it: a
    # one-row product may round differently from a many-row one
    zero = np.zeros((1, spec.n))
    shift = np.stack([f_avg.batch_field(zero, I[None])[0][0] for I in I_targets])
    Omega = spec.frequency_vector() + shift
    omega_slow = spec.epsilon * Omega
    if q_max is None:
        q_max = 4 * (grid // 2)
    # a non-finite frequency has no divisor floor (its column's floor would
    # be inf or NaN, and neither fails the test below), so only the finite
    # ones enter the table
    finite = np.all(np.isfinite(omega_slow), axis=1)
    floors = np.full(len(I_targets), math.nan)
    witnesses = np.zeros(omega_slow.shape, dtype=np.int64)
    if finite.any():
        floors[finite], witnesses[finite] = _DivisorTable(omega_slow[finite].T).floor(
            q_max, tau)
    out = []
    for s, floor_measured in enumerate(floors.tolist()):
        if not finite[s]:
            out.append(SmallDivisorBreakdown(
                f"target frequency {omega_slow[s].tolist()} is not finite"))
            continue
        g = 0.99 * floor_measured if gamma is None else gamma
        if floor_measured < g:
            out.append(SmallDivisorBreakdown(
                f"target frequency fails ({g:g}, {tau:g}) certification at "
                f"k={tuple(int(v) for v in witnesses[s])}: "
                f"min |k.w| |k|^tau = {floor_measured:.6e}"))
            continue
        out.append(TargetFrequency(
            I0=I_targets[s], Omega=Omega[s], shift=shift[s],
            omega_slow=omega_slow[s], gamma=float(g), tau=float(tau),
            q_max=int(q_max), margin=floor_measured / g if g > 0 else math.inf))
    return out


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TorusEmbedding:
    """Fourier data of K(phi) = (phi + u(phi), I0 + v(phi)).

    u_hat and v_hat stack the n components: shape (n,) + (grid,)*n, complex,
    with u_hat[j] the fftn-layout coefficients of u_j, so the (n, grid^n)
    view holds component j's wavevectors in `_wavevectors` order."""
    grid: int
    I0: np.ndarray                    # (n,)
    u_hat: np.ndarray                 # (n,) + (grid,)*n complex
    v_hat: np.ndarray
    target: TargetFrequency
    epsilon: float
    frame: str = "time_scaled"
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.I0.size

    @property
    def defect_norm(self) -> float:
        """Sup of the invariance error at the end of the Newton run."""
        return self.diagnostics.get("final_defect", math.nan)

    def grid_phis(self) -> np.ndarray:
        """(grid^n, n) collocation angles."""
        return _grid_phis(self.grid, self.n)

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        """theta and I at the collocation points, each (grid^n, n)."""
        return (self.grid_phis() + _grid_values(self.u_hat, self.grid),
                self.I0[None, :] + _grid_values(self.v_hat, self.grid))

    def embed(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """theta and I of K(phi) at N arbitrary angles phi, each (N, n), as a
        separable sum: one (N, grid) table exp(2 pi i phi_j f) per axis, f the
        fftn frequencies, so N grid exponentials per axis.  The last axis is
        contracted with the coefficients by one GEMM, the others point by
        point.  On the collocation grid use grid_points()."""
        phi = np.asarray(phi, dtype=np.float64)
        n, grid = self.n, self.grid
        freqs = np.fft.fftfreq(grid, d=1.0 / grid)
        tables = np.exp(2j * math.pi * phi[:, :, None] * freqs)      # (N, n, grid)
        vals = np.stack([self.u_hat, self.v_hat]).reshape(-1, grid) @ tables[:, -1].T
        for j in range(n - 2, -1, -1):
            vals = np.einsum("xap,pa->xp", vals.reshape(-1, grid, len(phi)), tables[:, j])
        vals = vals.real                                            # (2n, N)
        theta = phi + vals[:n].T
        act = self.I0[None, :] + vals[n:].T
        return theta, act

    def sup_u(self) -> float:
        return float(np.max(np.abs(_grid_values(self.u_hat, self.grid))))

    def sup_v(self) -> float:
        return float(np.max(np.abs(_grid_values(self.v_hat, self.grid))))

    def to_record(self) -> dict:
        K = _wavevectors(self.grid, self.n)

        def sparse(hat):
            flat = hat.reshape(self.n, -1)
            return [[[int(v) for v in K[i]], int(j), flat[j, i].real, flat[j, i].imag]
                    for j, i in zip(*np.nonzero(np.abs(flat) > COEFF_TOL))]
        return {
            "record": "torus_embedding",
            "n": self.n,
            "grid": self.grid,
            "frame": self.frame,
            "epsilon": self.epsilon,
            "I0": _reprs(self.I0),
            "u_coeffs": sparse(self.u_hat),
            "v_coeffs": sparse(self.v_hat),
            "target": self.target.to_record(),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "TorusEmbedding":
        if rec.get("record") != "torus_embedding":
            raise ValueError("not a torus_embedding record")
        n = rec["n"]
        grid = rec["grid"]
        shape = (n,) + (grid,) * n
        u_hat = np.zeros(shape, dtype=complex)
        v_hat = np.zeros(shape, dtype=complex)
        index = {tuple(k): i for i, k in enumerate(_wavevectors(grid, n))}
        for hat, key in ((u_hat, "u_coeffs"), (v_hat, "v_coeffs")):
            flat = hat.reshape(n, -1)
            for kvec, j, re, im in rec[key]:
                flat[j, index[tuple(kvec)]] = complex(re, im)
        return cls(grid=grid, I0=_floats(rec["I0"]), u_hat=u_hat, v_hat=v_hat,
                   target=TargetFrequency.from_record(rec["target"]),
                   epsilon=rec["epsilon"], frame=rec["frame"],
                   diagnostics=rec.get("diagnostics", {}))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_torus(spec: HamiltonianSpec, I_target,
                gamma: Optional[float] = None, tau: float = 1.5,
                grid: int = 64, tol: float = 1e-11, max_iter: int = 30,
                target: Optional[TargetFrequency] = None) -> TorusEmbedding:
    """Newton-continue the invariant torus with frequency pinned to the
    frequency-map image of I_target.  gamma and tau certify that image when no
    target is given; divisors are rechecked at the target's own (gamma, tau).

    Raises SmallDivisorBreakdown (certification or divisor floor),
    KolmogorovDegenerate (counterterm matrix singular) or NonConvergence
    (defect stagnates above tol).
    """
    check_grid(grid, spec.n)
    I_target = np.asarray(I_target, dtype=np.float64)
    if target is None:
        target = certify_target(spec, I_target, gamma=gamma, tau=tau, grid=grid)
    out, = _solve_stack(spec, [target], I_target[None], grid, tol, max_iter)
    if out.error is not None:
        raise out.error
    emb = TorusEmbedding(grid=grid, I0=out.I0, u_hat=out.u_hat, v_hat=out.v_hat,
                         target=target, epsilon=spec.epsilon)
    emb.diagnostics = _post_diagnostics(spec, emb, out.history)
    return emb


@dataclass(eq=False)
class _Outcome:
    """One torus of a Newton stack: its defect per sweep, and either its
    solved coefficients or the exception its solve ended with."""
    history: list = field(default_factory=list)
    error: Optional[Exception] = None
    u_hat: Optional[np.ndarray] = None
    v_hat: Optional[np.ndarray] = None
    I0: Optional[np.ndarray] = None


def _solve_stack(spec: HamiltonianSpec, targets: list, I_start: np.ndarray,
                 grid: int, tol: float, max_iter: int) -> list:
    """The quasi-Newton sweep of solve_torus on a stack of S tori of one
    Hamiltonian, each with its certified target and start action (S, n).

    Every step is the one-torus algebra taken sample by sample: the divisor
    floor at the target's own (gamma, tau), the stall rule, the twist
    condition and the counterterm solve.  A sample that fails drops out with
    the exception solve_torus raises for it and the others go on.  Returns
    one _Outcome per sample, in order."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    S, n = I_start.shape
    outcomes = [_Outcome() for _ in range(S)]
    if not S:
        return outcomes
    shape = (grid,) * n
    K = _wavevectors(grid, n)
    knorm = np.abs(K).sum(axis=1).reshape(shape)
    nyquist = np.any(K == -(grid // 2), axis=1).reshape(shape)
    live = (knorm > 0) & ~nyquist
    dead = ~live

    # the samples still iterating and their state, one row each
    ids, L_Omega = _floored_symbols(spec, targets, K, knorm, live, outcomes)
    state = {"ids": ids, "L_Omega": L_Omega,
             "denom": np.where(live, L_Omega, 1.0)[:, None],
             "drift": np.stack([t.shift for t in targets])[ids],
             "u_hat": np.zeros((ids.size, n) + shape, dtype=complex),
             "v_hat": np.zeros((ids.size, n) + shape, dtype=complex),
             "I0": I_start[ids].copy(),
             "best": np.full(ids.size, math.inf),
             "stall": np.zeros(ids.size, dtype=int)}
    del L_Omega        # only the state's copy, cut as samples drop out, stays

    def drop(fail: np.ndarray, error, *sweep) -> list:
        """Give each sample flagged in `fail` the exception error(i) (none
        when `error` is None), keep the others in the state, and return the
        arrays of `sweep` cut to them."""
        if not fail.any():
            return list(sweep)
        for i in np.flatnonzero(fail):
            if error is not None:
                outcomes[state["ids"][i]].error = error(i)
        for key, value in state.items():
            state[key] = value[~fail]
        return [a[~fail] for a in sweep]

    def cohomological(rhs: np.ndarray) -> np.ndarray:
        """Coefficients of the zero-mean w with L_Omega w = rhs, (S, grid^n, n)."""
        c = _hat(np.swapaxes(rhs, 1, 2).reshape((rhs.shape[0], n) + shape), n)
        c /= state["denom"]
        c[..., dead] = 0.0
        return c

    comp = spec.perturbation(include_extra=True).compile()

    def checked(iteration: int) -> Optional[tuple]:
        """Defects of the samples still iterating, each appended to its
        history; a converged sample keeps its solution, and a stalled one or
        one with a degenerate twist drops out with its exception.  Returns
        E_ang, E_act, the twist T = d2H/dI2 (K) (S, pts, n, n) and its grid
        mean for the samples left, or None when none is; the grid points of
        K die here, once T is built."""
        theta, acts, E_ang, E_act = _defect(comp, state["u_hat"], state["v_hat"],
                                            state["I0"], state["L_Omega"],
                                            state["drift"], grid)
        ang = np.max(np.abs(E_ang), axis=(1, 2))
        act = np.max(np.abs(E_act), axis=(1, 2))
        defect = np.where(act > ang, act, ang)      # max(ang, act) as Python takes it
        done = defect <= tol
        for i, s in enumerate(state["ids"]):
            outcomes[s].history.append(float(defect[i]))
            if done[i]:
                outcomes[s].u_hat, outcomes[s].v_hat, outcomes[s].I0 = (
                    state[key][i].copy() for key in ("u_hat", "v_hat", "I0"))
        theta, acts, E_ang, E_act, defect = drop(done, None, theta, acts,
                                                 E_ang, E_act, defect)
        # a sweep that fails to shave 5% off the best defect counts as
        # stalled; three in a row and the iteration is going nowhere
        state["stall"] = np.where(defect > 0.95 * state["best"], state["stall"] + 1, 0)
        state["best"] = np.where(defect < state["best"], defect, state["best"])
        theta, acts, E_ang, E_act = drop(
            state["stall"] >= 3,
            lambda i: NonConvergence(
                f"defect stagnated at {defect[i]:.3e} after {iteration + 1} sweeps "
                f"(history {['%.1e' % h for h in outcomes[state['ids'][i]].history]})"),
            theta, acts, E_ang, E_act)
        if not state["ids"].size:
            return None
        T, = _evaluate_blocks(lambda th, a: (comp.batch_hess_II(th, a),),
                              theta, acts)                     # (S, pts, n, n)
        T_mean = T.mean(axis=1)
        cond = np.linalg.cond(T_mean)
        twisted = drop(
            ~np.isfinite(cond) | (cond > COND_MAX),
            lambda i: KolmogorovDegenerate(
                f"averaged twist matrix has condition {cond[i]:.3e} "
                f"(limit {COND_MAX:g}); counterterm is unreliable"),
            E_ang, E_act, T, T_mean)
        return twisted if state["ids"].size else None

    def correct(twisted: Optional[tuple]) -> None:
        """Move u_hat, v_hat and I0 of the samples left by one quasi-Newton
        correction, in place; E_ang and E_act become its right-hand sides.
        Every temporary of the sweep dies when this returns, before the next
        defect."""
        if twisted is None:
            return
        E_ang, E_act, T, T_mean = twisted
        # action correction: L_Omega dv = -(E_act - <E_act>)
        E_act -= E_act.mean(axis=1, keepdims=True)
        dv_hat = cohomological(np.negative(E_act, out=E_act))

        # counterterm from Kolmogorov non-degeneracy
        Tdv = np.einsum("spij,spj->spi", T, _grid_values(dv_hat, grid, 1))
        rhs_mean = E_ang.mean(axis=1) + Tdv.mean(axis=1)
        # every <T> left has cond <= COND_MAX, far below the ~1e13 at which
        # LU could meet an exactly zero pivot
        dI0 = -np.linalg.solve(T_mean, rhs_mean[..., None])[..., 0]

        # angle correction: L_Omega du = E_ang + T (dv + dI0), mean removed
        ang_rhs = E_ang
        ang_rhs += Tdv
        ang_rhs += np.einsum("spij,sj->spi", T, dI0)
        ang_rhs -= ang_rhs.mean(axis=1, keepdims=True)

        state["u_hat"] += cohomological(ang_rhs)
        state["v_hat"] += dv_hat
        state["I0"] += dI0

    for iteration in range(max_iter):
        if not state["ids"].size:
            break
        correct(checked(iteration))
    for s in state["ids"]:
        outcomes[s].error = NonConvergence(
            f"defect {outcomes[s].history[-1]:.3e} above tol {tol:g} "
            f"after {max_iter} sweeps")
    return outcomes


def _floored_symbols(spec: HamiltonianSpec, targets: list, K: np.ndarray,
                     knorm: np.ndarray, live: np.ndarray, outcomes: list) -> tuple:
    """The divisor check of a Newton stack: the indices of the targets whose
    divisors k.Omega at every live mode keep half the certified floor
    (transported to the fast frame), and their symbols L_Omega = 2 pi i
    k.Omega, (S',) + grid shape.  Every other target's outcome gets the
    SmallDivisorBreakdown solve_torus raises for it."""
    S, shape = len(targets), knorm.shape
    kdot = compensated_dot(K, np.stack([t.Omega for t in targets], axis=1)).T.reshape(
        (S,) + shape)
    with np.errstate(divide="ignore"):
        decay = {tau: knorm.astype(float) ** (-tau) for tau in {t.tau for t in targets}}
    floor = np.stack([0.5 * t.gamma * decay[t.tau] for t in targets]) / spec.epsilon
    bad = (live & (np.abs(kdot) < floor)).reshape(S, -1)
    for s in np.flatnonzero(bad.any(axis=1)):
        kb = K[np.argmax(bad[s])]
        outcomes[s].error = SmallDivisorBreakdown(
            f"divisor at k={tuple(int(v) for v in kb)} below half the "
            f"certified floor")
    ids = np.flatnonzero(~bad.any(axis=1))
    return ids, 2j * math.pi * kdot[ids]


def _post_diagnostics(spec: HamiltonianSpec, emb: TorusEmbedding,
                      history: list) -> dict:
    theta, acts = emb.grid_points()
    full = spec.combined_series().compile()
    energies = full.batch_value(theta, acts)
    e_scale = max(1.0, float(np.max(np.abs(energies))))
    diag = {
        "newton_defects": history,
        "iterations": len(history),
        "final_defect": history[-1],
        "sup_u": emb.sup_u(),
        "sup_v": emb.sup_v(),
        "energy_variation": float(np.ptp(energies)) / e_scale,
        "lagrangian_defect": lagrangian_defect(emb),
        "mean_u": float(np.max(np.abs(emb.u_hat.reshape(emb.n, -1)[:, 0].real))),
        "mean_v": float(np.max(np.abs(emb.v_hat.reshape(emb.n, -1)[:, 0].real))),
    }
    return diag


def lagrangian_defect(emb: TorusEmbedding) -> float:
    """Max antisymmetric defect of (Id+Du)^T Dv over the grid.

    An exact invariant torus of a Hamiltonian flow is Lagrangian, which for
    this parametrization means (Id+Du)^T Dv symmetric; the residual decays
    with the Newton defect."""
    n, grid = emb.n, emb.grid
    # dK[l] is the symbol 2 pi i k_l of d/dphi_l; D[:, j, l] = d_l of component j
    dK = (2j * math.pi * _wavevectors(grid, n)).T.reshape((n,) + (grid,) * n)
    Du = _grid_values(emb.u_hat[:, None], grid, symbol=dK)
    Dv = _grid_values(emb.v_hat[:, None], grid, symbol=dK)
    A = Du + np.eye(n)[None, :, :]
    M = np.einsum("pji,pjl->pil", A, Dv)
    asym = M - np.transpose(M, (0, 2, 1))
    return float(np.max(np.abs(asym)))


# ---------------------------------------------------------------------------
# verification, defect evaluation, pull-back
# ---------------------------------------------------------------------------

def invariance_defect(spec: HamiltonianSpec, emb: TorusEmbedding,
                      grid: Optional[int] = None) -> float:
    """Sup norm of X_H(K(phi)) - DK(phi) Omega on an evaluation grid.

    Works for either frame; the linear part of H enters only through the
    drift Omega - frequency_vector().  A scaled-frame torus carries Omega
    with drift target.shift, as in the Newton sweep, so on its own grid this
    is emb.defect_norm exactly; a pulled-back physical torus carries
    omega_slow.  Passing a finer grid than the embedding's own re-evaluates
    the defect between collocation points (spectral-accuracy check)."""
    if grid is not None:
        check_grid(grid, emb.n)
    if emb.frame == "physical":
        Omega = emb.target.omega_slow
        drift = Omega - spec.frequency_vector()
    else:
        Omega, drift = emb.target.Omega, emb.target.shift
    L_Omega = (2j * math.pi * compensated_dot(_wavevectors(emb.grid, emb.n), Omega)
               ).reshape((emb.grid,) * emb.n)
    _, _, E_ang, E_act = _defect(spec.perturbation(include_extra=True).compile(),
                                 emb.u_hat[None], emb.v_hat[None], emb.I0[None],
                                 L_Omega[None], drift[None],
                                 emb.grid if grid is None else grid)
    return max(float(np.max(np.abs(E_ang))), float(np.max(np.abs(E_act))))


def verify_by_integration(spec: HamiltonianSpec, emb: TorusEmbedding,
                          t_final: float = 1e3, step: float = 1e-2,
                          n_points: int = 8, method: str = "dop853") -> dict:
    """Track trajectories started on the torus in the slow frame.

    The fast frame has frequencies of size 1/eps, so the flow is integrated
    for H_slow = eps * H, where the torus carries frequency omega_slow and
    t_final is an honest multiple of the rotation period.  Reported errors
    compare the trajectory with the rigid rotation carried to the embedding.
    All n_points trajectories are integrated as one stacked system; with
    dop853 the step-size control therefore takes the RMS norm of the local
    error over all points together, not per trajectory.
    """
    h_slow = spec.combined_series(scale=spec.epsilon)
    w_slow = emb.target.omega_slow
    phi0 = np.repeat((np.arange(n_points) + 0.5)[:, None] / n_points, emb.n, axis=1)
    th0, I0 = emb.embed(phi0)
    res = integrate_flow(h_slow, th0, I0, t_final, step,
                         method=method, record_every=VERIFY_RECORD_EVERY)
    # the rigid rotation of every start angle at every recorded time, (T, N, n)
    rotated = phi0[None] + np.outer(res.times, w_slow)[:, None]
    th_exp, act_exp = (a.reshape(rotated.shape)
                       for a in emb.embed(rotated.reshape(-1, emb.n)))
    dth = res.thetas - th_exp
    dth -= np.round(dth)                         # compare on the torus
    worst_theta = float(np.max(np.abs(dth)))
    worst_act = float(np.max(np.abs(res.actions - act_exp)))
    return {
        "t_final": t_final,
        "step": step,
        "method": method,
        "n_points": n_points,
        "max_theta_error": worst_theta,
        "max_action_error": worst_act,
        "max_deviation": max(worst_theta, worst_act),
        "energy_drift": res.energy_drift,
    }


def pull_back(emb: TorusEmbedding, physical_radius: float,
              nf=None) -> TorusEmbedding:
    """Map the torus to original coordinates: undo the normal-form change of
    variables (when its result is given), then the action scaling.

    The normalized Hamiltonian satisfies H_nf(z) = H(Phi(z)) with Phi the
    time-1 flow of the generator, so the original-coordinate torus is
    Phi(K(phi)) refit on the collocation grid.  The refit is re-gauged
    exactly in Fourier space: a constant angle offset is absorbed into the
    parametrization and the action average into I0.

    Raises OutsideImage when the scaled torus sits closer to the unit action
    boundary than PULLBACK_MARGIN_COEFF * sqrt(mu) (nf given), or when the
    pulled-back actions leave PULLBACK_MARGIN of the physical domain."""
    eps = emb.epsilon
    n = emb.n
    grid = emb.grid
    u_hat, v_hat, I0 = emb.u_hat, emb.v_hat, emb.I0
    if nf is not None:
        theta, acts = emb.grid_points()
        sup_norm = float(np.max(np.linalg.norm(acts, axis=1)))
        margin = PULLBACK_MARGIN_COEFF * math.sqrt(nf.mu)
        if 1.0 - sup_norm < margin:
            raise OutsideImage(
                f"scaled torus is {1.0 - sup_norm:.6g} from the unit action "
                f"boundary, inside the sqrt(mu) margin {margin:.6g}")
        flow = integrate_flow(nf.flow_generator(), theta, acts, 1.0, PULLBACK_FLOW_STEP)
        stack = (n,) + (grid,) * n
        u_hat = _hat((flow.thetas[-1] - emb.grid_phis()).T.reshape(stack), n)
        v_hat = _hat(flow.actions[-1].T.reshape(stack), n)
        # re-gauge: move the angle means into the parameter origin and the
        # action means into I0 (exact phase shift, no interpolation)
        mean = (slice(None),) + (0,) * n
        u_bar = u_hat[mean].real.copy()
        I0 = v_hat[mean].real
        phase = np.exp(-2j * math.pi * (_wavevectors(grid, n) @ u_bar)).reshape(stack[1:])
        u_hat = u_hat * phase
        v_hat = v_hat * phase
        u_hat[mean] = 0.0
        v_hat[mean] = 0.0
    sup_act = float(np.max(np.abs(I0))) + float(np.max(np.abs(_grid_values(v_hat, grid))))
    if eps * sup_act > PULLBACK_MARGIN * physical_radius:
        raise OutsideImage(
            f"pulled-back actions reach {eps * sup_act:.6g}, beyond "
            f"{PULLBACK_MARGIN:g} * {physical_radius:g}")
    out = TorusEmbedding(
        grid=grid, I0=eps * I0, u_hat=u_hat.copy(),
        v_hat=eps * v_hat, target=emb.target, epsilon=eps,
        frame="physical", diagnostics=dict(emb.diagnostics))
    out.diagnostics["pullback_sup_action"] = eps * sup_act
    return out
