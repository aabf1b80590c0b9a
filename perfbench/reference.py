"""Reference computations the benchmark checks kamlab's outputs against.

Nothing here imports kamlab.  Each routine takes another route than the
package to the same quantity:

* divisor minima come from a nearest-integer candidate set (n = 2) or a full
  lattice ball walked slab by slab (n = 3), never from the package's
  half-lattice shell tables.  The compensated dot product is written out
  again, op for op, so the minima are comparable bit for bit;
* exact Delta values come from continued-fraction convergents computed here
  with Fraction arithmetic;
* the Diophantine minimum comes from an exact integer scan over the same
  nearest-integer candidates;
* Halton points come from the radical inverse written out here;
* series values, gradients and flows come from the (k, m, re, im) term lists
  of series records, evaluated with plain numpy and classical RK4.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# divisor arithmetic
# ---------------------------------------------------------------------------

def neumaier_abs_dot(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|K @ w| per row with Neumaier-compensated summation in column order."""
    Kf = K.astype(np.float64)
    s = Kf[:, 0] * w[0]
    err = np.zeros_like(s)
    for j in range(1, w.size):
        p = Kf[:, j] * w[j]
        t = s + p
        big = np.abs(s) >= np.abs(p)
        err += np.where(big, (s - t) + p, (p - t) + s)
        s = t
    return np.abs(s + err)


def min_divisor_curve_n2(w: np.ndarray, q: int) -> np.ndarray:
    """Smallest |k . w| over 0 < |k|_1 <= Q for Q = 1..q, for w = (1, a), |a| < 1.

    For each k2 > 0 only the two integers around -k2*a can hold the
    smallest divisor of their row; a row's other entries are at least 1 away
    from -k2*a, and k = (1, 0) already has divisor 1.  So the prefix minima
    over the ball come from O(q) candidates, each entering at |k|_1.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size != 2 or w[0] != 1.0 or not 0.0 < abs(w[1]) < 1.0:
        raise ValueError("the n=2 route needs w = (1, a) with 0 < |a| < 1")
    k2 = np.arange(1, q + 1, dtype=np.int64)
    floor = np.floor(-k2 * w[1]).astype(np.int64)
    k1 = np.concatenate([floor, floor + 1, [1]])
    k2 = np.concatenate([k2, k2, [0]])
    entry = np.abs(k1) + np.abs(k2)
    keep = entry <= q
    K = np.stack([k1[keep], k2[keep]], axis=1)
    per_shell = np.full(q, np.inf)
    np.minimum.at(per_shell, entry[keep] - 1, neumaier_abs_dot(K, w))
    return np.minimum.accumulate(per_shell)


def min_divisor_curve_ball(w: np.ndarray, q: int) -> np.ndarray:
    """Smallest |k . w| over 0 < |k|_1 <= Q for Q = 1..q, by walking the ball.

    Slabs of fixed leading component k1 >= 0 cover one vector of every
    pair {k, -k}, and |(-k) . w| equals |k . w| exactly in IEEE arithmetic.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if n not in (2, 3):
        raise ValueError("the ball route is written for n = 2 and n = 3")
    per_shell = np.full(q, np.inf)
    axis = np.arange(-q, q + 1, dtype=np.int64)
    for k1 in range(0, q + 1):
        rem = q - k1
        tail = axis[np.abs(axis) <= rem]
        if n == 2:
            k_tail = tail[:, None]
        else:
            a, b = np.meshgrid(tail, tail, indexing="ij")
            inside = np.abs(a) + np.abs(b) <= rem
            k_tail = np.stack([a[inside], b[inside]], axis=1)
        K = np.concatenate(
            [np.full((k_tail.shape[0], 1), k1, dtype=np.int64), k_tail], axis=1)
        shells = np.abs(K).sum(axis=1)
        live = shells > 0
        np.minimum.at(per_shell, shells[live] - 1, neumaier_abs_dot(K[live], w))
    return np.minimum.accumulate(per_shell)


def delta_from_curve(curve: np.ndarray, x: float) -> int:
    """Largest D >= 1 with D * Psi(D) <= x, Psi(D) = 1 / curve[D-1].

    D * Psi(D) is evaluated as D / curve[D-1], the form whose rounding the
    definition fixes.  Raises ValueError when the curve is too short to show
    the crossing.
    """
    qpsi = np.arange(1, curve.size + 1, dtype=np.float64) / curve
    D = int(np.count_nonzero(qpsi <= x))
    if D < 1 or D >= curve.size:
        raise ValueError(f"curve of length {curve.size} cannot bracket x={x!r}")
    return D


def delta_bracket_holds(curve: np.ndarray, x: float, D: int) -> bool:
    """D * Psi(D) <= x < (D + 1) * Psi(D + 1) under the given curve."""
    if D < 1 or D + 1 > curve.size:
        return False
    return bool(D / curve[D - 1] <= x < (D + 1) / curve[D])


# ---------------------------------------------------------------------------
# exact continued fractions
# ---------------------------------------------------------------------------

def convergent_windows(alpha: Fraction) -> list:
    """[(Q_j, e_j)] for w = (1, alpha): convergent p_j/q_j enters the l1 ball
    at Q_j = p_j + q_j with divisor e_j = |q_j alpha - p_j|; the last entry
    has e_j = 0 (alpha is rational)."""
    num, den = alpha.numerator, alpha.denominator
    h, h_prev = 1, 0          # p_{-1}, p_{-2}
    k, k_prev = 0, 1          # q_{-1}, q_{-2}
    out = []
    while den:
        a, rem = divmod(num, den)
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append((h + k, abs(k * alpha - h)))
        num, den = den, rem
    return out


def exact_delta(alpha: Fraction, x: Fraction) -> int:
    """Largest Q with Q <= x * e(Q), e(Q) the smallest divisor over |k|_1 <= Q.

    e(Q) is the error of the last convergent entered by Q; past the final
    (exact) convergent the divisor is 0 and no Q qualifies.
    """
    windows = convergent_windows(alpha)
    best = 0
    for j, (Qj, ej) in enumerate(windows):
        if ej == 0:
            break
        hi = windows[j + 1][0] - 1
        cap = math.floor(x * ej)
        if cap >= Qj:
            best = max(best, min(hi, cap))
    if best < 1:
        raise ValueError("x is below 1 * Psi(1)")
    return best


def exact_min_divisor(alpha: Fraction, Q: int) -> Fraction:
    """Smallest divisor over 0 < |k|_1 <= Q from the convergent windows."""
    best = None
    for Qj, ej in convergent_windows(alpha):
        if Qj > Q:
            break
        best = ej
    if best is None:
        raise ValueError(f"no convergent enters by Q={Q}")
    return best


DIOPH_CHUNK = 20_000


def dioph_min_exact_n2(alpha: Fraction, tau: float, q_max: int):
    """min over 0 < |k|_1 <= q_max of |k . (1, alpha)| * |k|_1^tau, exactly.

    Per k2 > 0 the row is f(k1) = |k1 + k2 alpha| (|k1| + k2)^tau.  Between 0
    and -k2*alpha both factors are linear in k1, so log f is concave and the
    row minimum sits at 0 or at an integer next to -k2*alpha; beyond those
    both factors grow.  The candidates are screened in float64 with an error
    bound, and every candidate the bound cannot rule out is evaluated exactly
    as an integer over the denominator.  Returns (log of the minimum,
    minimizing k).
    """
    N, Dn = alpha.numerator, alpha.denominator
    a = float(alpha)
    da = float(abs(alpha - Fraction(a)))
    best = (math.inf, None)
    bound = math.inf          # smallest upper bound seen so far
    # rows in chunks, so the screen's arrays stay a few MB at q_max = 1e6
    for start in range(1, q_max + 1, DIOPH_CHUNK):
        k2 = np.arange(start, min(start + DIOPH_CHUNK, q_max + 1), dtype=np.int64)
        fl = np.floor(-k2 * a).astype(np.int64)
        lo, hi = -(q_max - k2), q_max - k2
        k1 = np.concatenate([np.clip(fl + s, lo, hi) for s in (-1, 0, 1, 2)]
                            + [np.zeros_like(k2)] + ([[1]] if start == 1 else []))
        k2 = np.concatenate([k2] * 5 + ([[0]] if start == 1 else []))
        norm = (np.abs(k1) + k2).astype(np.float64)
        d = np.abs(k1 + k2 * a)
        err = k2 * da + 4e-16 * (k2 * abs(a) + np.abs(k1) + 1.0)
        weight = norm ** tau
        bound = min(bound, float(((d + err) * weight).min()) * (1.0 + 1e-12))
        lower = np.maximum(d - err, 0.0) * weight * (1.0 - 1e-12)
        # the minimizer's lower bound is below every upper bound, so it is
        # never screened out, whichever chunk it is in
        for i in np.nonzero(lower <= bound)[0]:
            num = abs(int(k1[i]) * Dn + int(k2[i]) * N)
            if num == 0:
                return -math.inf, (int(k1[i]), int(k2[i]))
            val = math.log(num) - math.log(Dn) + tau * math.log(norm[i])
            if val < best[0]:
                best = (val, (int(k1[i]), int(k2[i])))
    return best


# ---------------------------------------------------------------------------
# Halton points
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)


def radical_inverse(base: int, index: np.ndarray) -> np.ndarray:
    out = np.zeros(index.shape, dtype=np.float64)
    i = index.astype(np.int64).copy()
    f = 1.0 / base
    while np.any(i > 0):
        out += f * (i % base)
        i //= base
        f /= base
    return out


def halton_ball(n: int, count: int) -> np.ndarray:
    """First `count` points of the unscrambled Halton sequence (index 0 is
    the origin of [0,1)^n), mapped to (-1,1)^n and kept inside the open unit
    ball, in sequence order."""
    total = 0
    chunks = []
    start = 0
    while total < count:
        idx = np.arange(start, start + 1024)
        pts = 2.0 * np.stack([radical_inverse(_PRIMES[j], idx) for j in range(n)],
                             axis=1) - 1.0
        inside = pts[np.linalg.norm(pts, axis=1) < 1.0]
        chunks.append(inside)
        total += inside.shape[0]
        start += 1024
    return np.concatenate(chunks)[:count]


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, closed form."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xm, ym = x.mean(), y.mean()
    return float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))


# ---------------------------------------------------------------------------
# series and flows from record terms
# ---------------------------------------------------------------------------

class RecordSeries:
    """Sum of c * exp(2 pi i k.theta) * I^m read from a series record."""

    def __init__(self, rec: dict):
        if rec.get("record") != "fourier_taylor_series":
            raise ValueError("not a series record")
        terms = rec["terms"]
        self.n = int(rec["n"])
        self.K = np.array([t[0] for t in terms], dtype=np.float64).reshape(-1, self.n)
        self.M = np.array([t[1] for t in terms], dtype=np.int64).reshape(-1, self.n)
        self.c = np.array([complex(t[2], t[3]) for t in terms])

    def _parts(self, theta, I):
        # phase and power per (point, term)
        ph = self.c[None, :] * np.exp(2j * math.pi * (theta @ self.K.T))
        pw = np.prod(I[:, None, :] ** self.M[None, :, :], axis=2)
        return ph, pw

    def value(self, theta: np.ndarray, I: np.ndarray) -> np.ndarray:
        ph, pw = self._parts(theta, I)
        return np.sum(ph * pw, axis=1).real

    def field(self, theta: np.ndarray, I: np.ndarray):
        """(dH/dI, -dH/dtheta) at each point."""
        ph, pw = self._parts(theta, I)
        d_theta = np.stack(
            [np.sum(ph * pw * (2j * math.pi * self.K[:, j]), axis=1).real
             for j in range(self.n)], axis=1)
        d_I = np.empty_like(d_theta)
        for j in range(self.n):
            lowered = self.M.copy()
            lowered[:, j] = np.maximum(lowered[:, j] - 1, 0)
            pw_j = np.prod(I[:, None, :] ** lowered[None, :, :], axis=2)
            d_I[:, j] = np.sum(ph * pw_j * self.M[:, j], axis=1).real
        return d_I, -d_theta


def rk4_flow(series: RecordSeries, theta: np.ndarray, I: np.ndarray,
             t: float, steps: int):
    """Classical RK4 time-t flow of `series` from every point at once."""
    h = t / steps
    th, ac = np.array(theta, dtype=np.float64), np.array(I, dtype=np.float64)
    for _ in range(steps):
        k1t, k1a = series.field(th, ac)
        k2t, k2a = series.field(th + 0.5 * h * k1t, ac + 0.5 * h * k1a)
        k3t, k3a = series.field(th + 0.5 * h * k2t, ac + 0.5 * h * k2a)
        k4t, k4a = series.field(th + h * k3t, ac + h * k3a)
        th = th + (h / 6) * (k1t + 2 * k2t + 2 * k3t + k4t)
        ac = ac + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
    return th, ac


def embed_from_record(rec: dict, phi: np.ndarray):
    """K(phi) = (phi + u(phi), I0 + v(phi)) summed from a torus record's
    sparse Fourier coefficients."""
    if rec.get("record") != "torus_embedding":
        raise ValueError("not a torus record")
    phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
    n = int(rec["n"])
    I0 = np.array([float(s) for s in rec["I0"]])

    def field(coeffs):
        out = np.zeros((phi.shape[0], n))
        if not coeffs:
            return out
        k = np.array([c[0] for c in coeffs], dtype=np.float64)
        comp = np.array([c[1] for c in coeffs], dtype=np.int64)
        c = np.array([complex(c[2], c[3]) for c in coeffs])
        vals = (np.exp(2j * math.pi * (phi @ k.T)) * c[None, :]).real
        for j in range(n):
            out[:, j] = vals[:, comp == j].sum(axis=1)
        return out

    return phi + field(rec["u_coeffs"]), I0[None, :] + field(rec["v_coeffs"])
