"""Independent brute-force oracles used by the test suite.

These deliberately do not import enumeration helpers from the package: the
full lattice ball is generated here by itertools-style recursion, and the
half-lattice rows of one shell by a numpy builder of their own, and the
minimum divisor is taken over every vector, so agreement with the package's
half-lattice shell tables is a two-route check.  The compensated dot product
is re-implemented inline, op for op, which makes the minima bit-identical
(|(-k) . w| equals |k . w| exactly in IEEE arithmetic).  The series jet
sums Fourier-Taylor terms one at a time in Python complex arithmetic, away
from the package's compiled evaluator; the series field does the same over
a stack of points with numpy.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def full_ball(n: int, Q: int):
    """Every k in Z^n with 0 < |k|_1 <= Q, as one int array."""
    pts = [k for k in itertools.product(range(-Q, Q + 1), repeat=n)
           if 0 < sum(abs(v) for v in k) <= Q]
    return np.array(pts, dtype=np.int64)


def neumaier_abs_dot(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|K @ w| per row, for one vector w (n,) or as many as the columns of
    an (n, S) array, giving (rows, S)."""
    Kf = K.astype(np.float64).reshape(K.shape + (1,) * (w.ndim - 1))
    s = Kf[:, 0] * w[0]
    err = np.zeros_like(s)
    for j in range(1, len(w)):
        p = Kf[:, j] * w[j]
        t = s + p
        big = np.abs(s) >= np.abs(p)
        err += np.where(big, (s - t) + p, (p - t) + s)
        s = t
    return np.abs(s + err)


def half_lattice(n: int, Q: int) -> list[tuple[int, ...]]:
    """k with 0 < |k|_1 <= Q and first nonzero component positive, ordered by
    the position of that component, then lexicographically."""
    def lead(k):
        return next(j for j, v in enumerate(k) if v)
    ks = [tuple(int(v) for v in k) for k in full_ball(n, Q)]
    return sorted((k for k in ks if k[lead(k)] > 0), key=lambda k: (lead(k), k))


def half_shell(n: int, s: int) -> np.ndarray:
    """k in Z^n with |k|_1 = s >= 1 and first nonzero component positive, as
    one int array in half_lattice order, built without a loop over points:
    for each position j of that component, k_j runs over 1..s, each later
    component but the last over what the earlier ones leave of s, and the
    last takes -left, then +left (once when nothing is left)."""
    blocks = []
    for j in range(n - 1):
        head = np.arange(1, s + 1, dtype=np.int64)[:, None]
        for _ in range(n - j - 2):
            left = s - np.abs(head).sum(axis=1)
            per = 2 * left + 1
            c = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per + left, per)
            head = np.column_stack([np.repeat(head, per, axis=0), c])
        left = s - np.abs(head).sum(axis=1)
        last = np.stack([-left, left], axis=1).ravel()
        once = np.stack([left > 0, np.ones(len(left), dtype=bool)], axis=1).ravel()
        rows = np.column_stack([np.repeat(head, 2, axis=0), last])[once]
        blocks.append(np.column_stack([np.zeros((len(rows), j), dtype=np.int64), rows]))
    blocks.append(np.array([[0] * (n - 1) + [s]], dtype=np.int64))
    return np.concatenate(blocks)


def shell_table(w: np.ndarray, Q: int) -> tuple[np.ndarray, ...]:
    """Per-shell minimum divisor and its first argmin in half_lattice order,
    the prefix minima and the first shell attaining each, by plain loops."""
    ks = half_lattice(w.size, Q)
    div = neumaier_abs_dot(np.array(ks, dtype=np.int64), w)
    shell_min = np.full(Q, np.inf)
    shell_arg = np.zeros((Q, w.size), dtype=np.int64)
    for k, d in zip(ks, div):
        s = sum(abs(v) for v in k) - 1
        if d < shell_min[s]:
            shell_min[s], shell_arg[s] = d, k
    prefix_arg = np.zeros(Q, dtype=np.int64)
    for s in range(1, Q):
        better = shell_min[s] < shell_min[prefix_arg[s - 1]]
        prefix_arg[s] = s if better else prefix_arg[s - 1]
    return shell_min, shell_arg, shell_min[prefix_arg], prefix_arg


def brute_min_divisor(w: np.ndarray, Q: int) -> tuple[float, tuple[int, ...]]:
    K = full_ball(w.size, Q)
    d = neumaier_abs_dot(K, w)
    i = int(np.argmin(d))
    return float(d[i]), tuple(int(v) for v in K[i])


def brute_psi(w: np.ndarray, Q: int) -> float:
    return 1.0 / brute_min_divisor(w, Q)[0]


def brute_delta(w: np.ndarray, x: float, q_cap: int = 4096) -> int:
    """Largest Q with Q * brute_psi(Q) <= x, by linear scan."""
    best = 0
    for Q in range(1, q_cap + 1):
        if Q * brute_psi(w, Q) <= x:
            best = Q
        else:
            # Q * psi(Q) is nondecreasing in Q, so the first failure is final
            break
    if best == 0:
        raise ValueError("x below 1*Psi(1)")
    return best


def brute_dioph_min(w: np.ndarray, tau: float, q_max: int):
    """min over the ball of |k.w| * |k|_1^tau, with argmin."""
    K = full_ball(w.size, q_max)
    d = neumaier_abs_dot(K, w)
    s = np.abs(K).sum(axis=1).astype(np.float64)
    prod = d * s ** tau
    i = int(np.argmin(prod))
    return float(prod[i]), tuple(int(v) for v in K[i])


def exact_min_divisor_n2(alpha: Fraction, Q: int) -> Fraction:
    """Exact min over 0<|k|_1<=Q of |k1 + k2*alpha| for w=(1, alpha), by scan.

    Only feasible for modest Q; used to validate the convergent-window code.
    """
    best = None
    for k1 in range(-Q, Q + 1):
        rem = Q - abs(k1)
        for k2 in range(-rem, rem + 1):
            if k1 == 0 and k2 == 0:
                continue
            v = abs(k1 + k2 * alpha)
            if best is None or v < best:
                best = v
    return best


def series_jet(terms: dict, theta, I):
    """Value, d/dtheta, d/dI and d2/dI2 of  sum c exp(2 pi i k.theta) I^m  at
    one point, term by term: d^d I^m = prod_j m_j!/(m_j-d_j)! I_j^(m_j-d_j)."""
    n = len(theta)

    def d_monomial(m, d):
        if any(dj > mj for mj, dj in zip(m, d)):
            return 0.0
        return math.prod(math.perm(mj, dj) * float(I[j]) ** (mj - dj)
                         for j, (mj, dj) in enumerate(zip(m, d)))

    def unit(*js):
        return tuple(sum(1 for j in js if j == i) for i in range(n))

    value, d_th, d_I = 0j, [0j] * n, [0j] * n
    hess = [[0j] * n for _ in range(n)]
    for (k, m), c in terms.items():
        w = c * cmath.exp(2j * math.pi * sum(kj * float(tj) for kj, tj in zip(k, theta)))
        value += w * d_monomial(m, unit())
        for j in range(n):
            d_th[j] += 2j * math.pi * k[j] * w * d_monomial(m, unit())
            d_I[j] += w * d_monomial(m, unit(j))
            for l in range(n):
                hess[j][l] += w * d_monomial(m, unit(j, l))
    return (value.real, np.array(d_th).real, np.array(d_I).real,
            np.array(hess).real)


def series_field(terms: dict, theta, I):
    """dH/dI and dH/dtheta of H = sum c exp(2 pi i k.theta) I^m at the points
    theta, I (N, n), each (N, n): vectorized over the points, summed term by
    term, d/dI_j I^m = m_j I^(m - e_j)."""
    d_I = np.zeros(np.shape(I))
    d_th = np.zeros(np.shape(theta))
    for (k, m), c in terms.items():
        k, m = np.array(k), np.array(m)
        w = c * np.exp(2j * np.pi * (theta @ k))
        d_th += (2j * np.pi * k * (w * np.prod(I ** m, axis=1))[:, None]).real
        for j in np.flatnonzero(m):
            m_j = m.copy()
            m_j[j] -= 1
            d_I[:, j] += (m[j] * w * np.prod(I ** m_j, axis=1)).real
    return d_I, d_th
