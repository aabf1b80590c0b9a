"""Small-divisor arithmetic for frequency vectors.

Conventions used throughout: a frequency vector ``w`` has sup-norm 1, lattice
vectors ``k`` are measured in the l1 norm, and the divisor of ``k`` is
``|k . w|``.  The central quantities are

* ``psi(w, Q)``: reciprocal of the smallest divisor over ``0 < |k|_1 <= Q``,
* ``delta(w, x)``: the largest integer ``Q >= 1`` with ``Q * psi(w, Q) <= x``,
* ``mu = 1/delta(w, c/eps)`` and the Gevrey companion
  ``nu = exp(-c_bar * mu**(-1/alpha))``.

Enumeration runs over the half lattice (first nonzero component positive)
with a compensated dot product; ``|(-k) . w| == |k . w|`` exactly in IEEE
arithmetic, so this is loss-free.  The dot product adds to the running sum
the exact rounding error of each of its steps (TwoSum), so its bits, on
which the tables' reproducibility rests, do not depend on how that error is
formed.  One walk makes every row: shell s pairs with each tail
t = (k3..kn) with |t|_1 < s, and with |t|_1 = s if t's first nonzero
component is positive, and the rows of a pair are the n=2 half shell that
(k1, k2) run over, of radius s - |t|_1.  Along each half of it the
divisor is linear in k2, with slope ``|w1 +- w2|``, so in candidate mode the
table evaluates only the rows around each half's root (at most eight per
pair) and gets the same per-shell minima and witnesses as the whole shell.
For n >= 3 it first values each pair's rows on the shell in plain float,
within a certified error, and makes rows only for the pairs that can reach
the shell's minimum.  Each computed divisor is within 2u s max|w| of the
exact one (the n rounded products add at most u s max|w|, the compensated
sum at most u |k . w| + O(n^2 u^2) s max|w|), so a slope above 4u s max|w|
rules out a rounding tie with a row left out; at or below that bound, and
for a table of S vectors stacked as columns (a scan slice's certification),
whole mode keeps every k2 of every pair, and a stack gives each column its
own table's bits.  Each block of rows holds whole shells, so each shell is
merged exactly once.  Of the rows that reach a shell's minimum the table
keeps the first by the position of their first nonzero component, then
lexicographically; each block carries its rows, and the merge computes this
from them.  One depth rule, in ``_DivisorTable.ensure``, bounds every float
table: a depth past ENUMERATION_CAP, or a growth past ROW_BUDGET divisors in
either mode, raises before the table grows; no caller keeps a cap of its
own.  Vectors built from continued fractions can carry an exact rational
tag; ``delta``/``diophantine_check`` then use exact convergent windows,
which stay meaningful far beyond float64 resolution and the cap.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BelowThreshold,
    ConstructionFailed,
    ResonanceDetected,
)
from .records import check_derived, check_record

# Divisors below RESONANCE_TOL * |k|_1 are treated as exact resonances.
RESONANCE_TOL = 1e-14

# Deepest float divisor table, one vector or a stack: _DivisorTable.ensure
# refuses a larger Q, whoever asks.  For n=2 the 8 rows per shell up to the
# cap (1.6M) stay within ROW_BUDGET, so the cap binds; for n >= 3 the budget
# binds first (about 8 Q^2 unscreened candidates of an n=3 table to depth Q,
# although the screen evaluates only a few rows per shell).
ENUMERATION_CAP = 200_000

# Divisors (rows times vectors) per merge pass of the divisor table.
_CHUNK = 65536

# Most divisors one growth of a divisor table may evaluate: ensure refuses more.
ROW_BUDGET = 2 ** 25


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

def _ball(d: int, m: int) -> np.ndarray:
    """Every t in Z^d with |t|_1 <= m, d >= 0, component-major (d, N), in
    lexicographic order: each component runs over what the earlier ones
    leave of m."""
    ball = np.zeros((0, 1), dtype=np.int64)
    for _ in range(d):
        left = m - np.abs(ball).sum(axis=0)
        per = 2 * left + 1
        last = np.arange(per.sum(), dtype=np.int64) - np.repeat(np.cumsum(per) - per + left, per)
        ball = np.vstack([np.repeat(ball, per, axis=1), last])
    return ball


def _ball_count(d: int, m: int) -> int:
    """Number of k in Z^d with |k|_1 <= m, for d, m >= 0."""
    return sum(2 ** j * math.comb(d, j) * math.comb(m, j) for j in range(d + 1))


class _Buffers:
    """Five float buffers that the chunks of one table growth share, so a
    chunk's arithmetic faults in no fresh memory; each grows on demand."""

    def __init__(self):
        self.flat = [np.empty(0)] * 5

    def shaped(self, shape: tuple) -> list[np.ndarray]:
        size = math.prod(shape)
        self.flat = [f if f.size >= size else np.empty(size) for f in self.flat]
        return [f[:size].reshape(shape) for f in self.flat]


def _compensated_sum(products: Iterator[np.ndarray], buffers: list[np.ndarray]) -> np.ndarray:
    """The products summed in order, plus the sum of each step's exact
    rounding error (TwoSum, which needs no comparison of magnitudes), in four
    buffers of the products' shape; each product may reuse the memory of the
    one before.  The result is one of the buffers."""
    s, err, t, e = buffers
    np.copyto(s, next(products))
    err.fill(0.0)
    for p in products:
        np.add(s, p, out=t)
        np.subtract(t, s, out=e)            # bb = t - s
        np.subtract(p, e, out=p)            # p - bb
        np.subtract(t, e, out=e)
        np.subtract(s, e, out=e)            # s - (t - bb)
        e += p                              # s + p - t, exactly
        err += e
        s, t = t, s
    return np.add(s, err, out=s)


def _column_products(K: np.ndarray, w: np.ndarray, out: np.ndarray) -> Iterator[np.ndarray]:
    """The products K[:, j] * w[j] in column order, each written into `out`
    (rows,) + w.shape[1:]."""
    col = K[:, :, None] if w.ndim == 2 else K
    return (np.multiply(col[:, j], w[j], out=out) for j in range(w.shape[0]))


def compensated_dot(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K @ w per row with Neumaier-compensated summation.

    `w` is one vector (n,), giving (rows,), or S vectors as the columns of an
    (n, S) array, giving (rows, S).  The products are summed in column order,
    and the running sum's rounding errors, each computed exactly by TwoSum,
    are summed beside it and added at the end.  Every step is exact or
    correctly rounded, so the result does not depend on how the error terms
    are formed: any code path that evaluates the same k and w through this
    sum, one vector or many, gets bit-identical divisors.
    """
    p, *sums = _Buffers().shaped((len(K),) + w.shape[1:])
    return _compensated_sum(_column_products(K, w, p), sums)


class _Block(NamedTuple):
    """Divisors |k . w| of a block of half-lattice rows, (m,) + columns,
    grouped by shell: the group of shell shells[j] starts at row starts[j],
    and holds every row of that shell the walk keeps, so no other block
    holds the shell.  rows holds the rows component-major, (n, m); of the
    rows reaching a shell's minimum the merge keeps the first by the
    position of their first nonzero component, then lexicographically.
    `div` may live in buffers that the next block of the same growth
    reuses."""
    div: np.ndarray
    starts: np.ndarray
    shells: np.ndarray
    rows: np.ndarray


def _shell_blocks(w: np.ndarray, lo: int, hi: int) -> Iterator[_Block]:
    """The blocks holding, for every shell s in (lo, hi], each half-lattice
    row that can carry the shell's first smallest compensated divisor, made
    as they are iterated.

    Write a row of shell s as (k1, k2, t) with tail t = (k3..kn) and
    r = s - |t|_1.  Shell s pairs with every tail with |t|_1 < s and with
    each tail with |t|_1 = s whose first nonzero component is positive.  The
    rows of a pair are the n=2 half shell of radius r, (r - |k2|, k2, t) for
    min(1 - r, 0) <= k2 <= r: -r < k2 <= r for r >= 1, and the one row
    (0, 0, t) for r = 0.  The divisor r*w1 + t.w_tail + k2*(w1 + w2)
    (k2 <= 0) or ... + k2*(w2 - w1) (k2 >= 0) is linear on each piece.

    Whole mode (vectors stacked as the columns of w, or a slope at most the
    bound used, 4u hi max|w|) yields every row of every pair, that is every
    half-lattice row of the shell.  Candidate mode keeps per pair the four
    integers around each piece's root, clipped to the piece (a root beyond it
    gives its end): at most 8 rows, and for r = 0 its one row.  A row not
    kept lies farther from its piece's root than some kept row on the same
    side, so its exact |k . w| exceeds that row's by at least the slope.
    Each computed |k . w| is within 2u s max|w| of the exact one: the rounded
    products add at most u s max|w|, the compensated sum at most
    u |k . w| + O(n^2 u^2) s max|w|.  So a slope above 4u s max|w| rules out
    a rounding tie with a row not kept, and the root, with t.w_tail summed
    by math.fsum, is within 1/2 of the exact one.  A growth whose divisors
    before the screen exceed ROW_BUDGET raises here, before any tail is built:
    in candidate mode 8 per pair with r >= 1 and 1 per pair with r = 0 (8
    per shell for n=2, 8(2s - 1) + 1 for n=3), in whole mode every row times
    the columns.

    The screen (candidate mode, n >= 3; for n = 2 a shell is one pair).  Of
    a shell's pairs only those whose rows can reach its minimum are made
    into rows.  With M = max|w|, L = r*w1 + t.w_tail as computed and
    a = w1 +- w2 rounded, let k^ be the integer nearest -L/a clipped to the
    piece, and V = |L + k^ a| in plain float.  A pair's value V_P is the
    smaller V of its two pieces, V_best the smallest V_P on the shell, and
    only the pairs with V_P <= V_best + 2 eta_s, eta_s = 16u s M, are kept.
    Write D(k) for the exact |k . w| and c(k) for the compensated one.  To
    first order in u:
    (1) |V - D(k^)| <= 7u s M.  L is within 3u s M of the exact level: the
        products t_j w_j and their fsum add 2u |t|_1 M, r*w1 and the sum
        u r M + u s M.  k^ a is within 4u r M of k^ times the exact slope
        (two roundings, |k^| <= r, |w1 +- w2| <= 2M).  The last sum adds
        u s M, since L + k^ a is within O(u) of a row's k . w, at most s M.
    (2) D(k^) exceeds the piece's smallest D by at most 10u s M.  The float
        root lies within delta of the exact one, where delta |slope| <=
        3u s M + 2u |L| <= 5u s M (the level's error, and the roundings of a
        and of the quotient), and k^, the piece's integer nearest the float
        root, is at most 2 delta farther from the exact root than the
        piece's integer nearest it.  For r = 0 both pieces are the one
        integer k^ = 0, and (1) and (2) hold with r = 0.
    (3) |c - D| <= 2u s M for every row, as above.
    So every row k of a dropped pair has c(k) >= V_P - 19u s M, while the
    best pair's row k^, one of its 8 slots, has c <= V_best + 9u s M: c(k)
    exceeds it by more than 2 eta_s - 28u s M = 4u s M, which covers the
    terms of second order in u and the rounding of V_best + 2 eta_s and,
    for a normal M, its underflow (a subnormal component adds no error of
    its own: integer multiples of it and float sums underflow exactly, and
    the quotient's underflow moves the root by less than 2^-1074).  A
    dropped row thus neither reaches nor ties the smallest divisor of the
    rows kept.  To depth Q this is O(Q^(n-1)) pair values in plain float
    and, for a vector without near ties, a few compensated rows per shell.

    The merge takes a block's minimum of a shell, and its first row there,
    as the table's, so a block holds every row the walk keeps of its shells:
    in whole mode the whole shell, in candidate mode every row that the
    argument above compares with the dropped ones.  A block holds whole
    shells, at most _CHUNK divisors before the screen or a single shell
    that alone holds more, and each shell lands in exactly one block.  The
    rows come out shell-major, then by pair, then by k2; of the rows
    reaching a shell's minimum the merge keeps the first by the position of
    their first nonzero component, then lexicographically, computed from
    the rows the block carries.
    """
    n, d, cols = w.shape[0], w.shape[0] - 2, w.size // w.shape[0]
    eps, scale = np.finfo(np.float64).eps, float(np.max(np.abs(w)))
    bound = 4 * eps * hi * scale
    whole = w.ndim != 1 or not min(abs(w[0] + w[1]), abs(w[1] - w[0])) > bound
    if whole:
        # half the lattice points with lo < |k|_1 <= hi, once per column
        divisors = (_ball_count(n, hi) - _ball_count(n, lo)) // 2 * cols
    else:
        # 8 per tail with |t|_1 < s before the screen, summed over s in
        # (lo, hi] (the sum of comb(s - 1, j) telescopes), plus the r = 0 rows
        pairs = sum(2 ** j * math.comb(d, j) * (math.comb(hi, j + 1) - math.comb(lo, j + 1))
                    for j in range(d + 1))
        divisors = 8 * pairs + (_ball_count(d, hi) - _ball_count(d, lo)) // 2
    if divisors > ROW_BUDGET:
        raise ConstructionFailed(
            f"{'whole' if whole else 'candidate'} rows of shells {lo + 1}..{hi} hold "
            f"{divisors} divisors, beyond the row budget {ROW_BUDGET}")
    # every tail with |t|_1 <= hi.  The ball is in lexicographic order and
    # symmetric under t -> -t, so the tails after its middle row t = 0 are
    # those whose first nonzero component is positive; ordered by norm, and
    # within a norm those first, shell s pairs with the first count[s - lo - 1]
    tails = _ball(d, hi)
    key = 2 * np.abs(tails).sum(axis=0) + (np.arange(tails.shape[1]) <= tails.shape[1] // 2)
    by_key = np.argsort(key, kind="stable")
    tails, key = tails[:, by_key], key[by_key]
    norms = key // 2
    shells = np.arange(lo + 1, hi + 1, dtype=np.int64)
    count = np.searchsorted(key, 2 * shells, side="right")
    below = np.searchsorted(key, 2 * shells, side="left")      # |t|_1 < s
    if whole:
        # 2r rows per pair with r >= 1 and one per pair with r = 0, per column
        cost = (2 * (shells * below - np.r_[0, np.cumsum(norms)][below]) + count - below) * cols
    else:
        cost = 8 * below + count - below
    ends = np.r_[0, np.cumsum(cost)]
    buffers = _Buffers()
    if not whole:
        w1, w2 = float(w[0]), float(w[1])
        offset = np.array([math.fsum(p) for p in (tails.T * w[2:]).tolist()])
        around = np.arange(-1, 3, dtype=np.int64)

    def pieces(r: np.ndarray) -> tuple:
        # the k2 <= 0 and k2 >= 0 pieces of the pairs' half shells: the
        # divisor's slope in k2, and the ends of k2
        return (w1 + w2, np.minimum(1 - r, 0), 0), (w2 - w1, 0, r)

    def block(start: int, stop: int) -> _Block:
        per = count[start:stop]
        first = np.cumsum(per) - per
        g = np.arange(per.sum(), dtype=np.int64) - np.repeat(first, per)
        r = np.repeat(shells[start:stop], per) - norms[g]
        if whole:
            # every k2 of each pair, from min(1 - r, 0) up to r
            low = np.minimum(1 - r, 0)
            lens = r + 1 - low
            pair = np.repeat(np.arange(len(g)), lens)
            rows = np.empty((n, len(pair)), dtype=np.int64)
            rows[1] = np.repeat(low + lens - np.cumsum(lens), lens)
            rows[1] += np.arange(len(pair))
        else:
            level = r * w1 + offset[g]
            if d:
                # the screen (see above): each pair's float value V_P, and
                # the pairs within 2 eta_s of their shell's best
                nearest = (np.minimum(np.maximum(np.rint(level / -rate), end_lo), end_hi) * rate
                           for rate, end_lo, end_hi in pieces(r))
                value = np.minimum(*(np.abs(level + step) for step in nearest))
                near = value <= np.repeat(np.minimum.reduceat(value, first)
                                          + 16 * eps * scale * shells[start:stop], per)
                per = np.add.reduceat(near, first, dtype=np.int64)
                g, r, level = g[near], r[near], level[near]
            # per pair, k2 ascending over the 8 slots: the k2 <= 0 piece,
            # then the k2 >= 0 piece
            slots = np.empty((len(g), 8), dtype=np.int64)
            for half, (rate, end_lo, end_hi) in enumerate(pieces(r)):
                root = np.clip(-level / rate, end_lo - 2, end_hi + 2)
                slots[:, 4 * half:4 * half + 4] = np.clip(
                    np.floor(root).astype(np.int64)[:, None] + around,
                    np.reshape(end_lo, (-1, 1)), np.reshape(end_hi, (-1, 1)))
            # a clipped repeat, or the k2 = 0 row of both pieces, follows its
            # twin
            fresh = np.empty(slots.shape, dtype=bool)
            fresh[:, 0] = True
            np.not_equal(slots[:, 1:], slots[:, :-1], out=fresh[:, 1:])
            kept = np.flatnonzero(fresh)
            pair = kept >> 3
            rows = np.empty((n, len(pair)), dtype=np.int64)
            np.take(slots, kept, out=rows[1])
        np.subtract(r[pair], np.abs(rows[1]), out=rows[0])
        np.take(tails, g[pair], axis=1, out=rows[2:])
        p, *sums = buffers.shaped((len(pair),) + w.shape[1:])
        div = _compensated_sum(_column_products(rows.T, w, p), sums)
        starts = np.searchsorted(pair, np.cumsum(per) - per)
        return _Block(np.abs(div, out=div), starts, shells[start:stop], rows)

    def blocks() -> Iterator[_Block]:
        start = 0
        while start < len(shells):
            # whole shells, at most _CHUNK divisors before the screen, or one
            stop = max(start + 1, int(np.searchsorted(ends, ends[start] + _CHUNK, "right")) - 1)
            yield block(start, stop)
            start = stop
    return blocks()


class _DivisorTable:
    """Per-shell minima of |k . w| over the half lattice, grown on demand.

    w is one vector (n,) or S vectors as the columns of an (n, S) array;
    shell_min has shape (Q,) + w.shape[1:] and shell_arg one more axis, n.
    Each column gets its own table's bits; prefix queries take one vector."""

    def __init__(self, components: np.ndarray):
        self.w = components
        self.n, self.cols = components.shape[0], components.shape[1:]
        self.q_built = 0
        self.shell_min = np.empty((0,) + self.cols)   # index s-1 -> min divisor on shell s
        self.shell_arg = np.empty((0,) + self.cols + (self.n,), dtype=np.int64)

    def ensure(self, Q: int) -> None:
        """Grow the table to exactly Q shells, enumerating only (q_built, Q]; a Q
        past ENUMERATION_CAP or a growth past ROW_BUDGET raises before it grows."""
        if Q <= self.q_built:
            return
        if Q > ENUMERATION_CAP:
            raise ConstructionFailed(f"enumeration beyond the enumeration cap Q={ENUMERATION_CAP} "
                                     f"(asked for Q={Q}); use an exact-tagged vector")
        blocks = _shell_blocks(self.w, self.q_built, Q)      # the row budget raises here
        grow = (Q - self.q_built,) + self.cols
        smin = np.concatenate([self.shell_min, np.full(grow, np.inf)])
        sarg = np.concatenate([self.shell_arg, np.zeros(grow + (self.n,), dtype=np.int64)])

        # one column per vector, as views of the new table
        table_min = smin.reshape(Q, -1)
        table_arg = sarg.reshape(Q, -1, self.n)

        def merge(block: _Block) -> None:
            # per shell and column, the block's smallest divisor and, of the
            # rows attaining it, the first in the order `_Block` states; a
            # block holds every row of its shells, so both are the table's
            div, starts = block.div.reshape(len(block.div), -1), block.starts
            low = np.fmin.reduceat(div, starts, axis=0)
            hit = div == np.repeat(low, np.diff(np.r_[starts, len(div)]), axis=0)
            i, col = np.divmod(np.flatnonzero(hit), div.shape[1])
            cell = (np.searchsorted(starts, i, side="right") - 1) * div.shape[1] + col
            rows = block.rows[:, i]
            order = np.lexsort((*rows[::-1], np.argmax(rows != 0, axis=0), cell))
            first = order[np.diff(cell[order], prepend=-1) != 0]
            table_min[block.shells - 1] = low
            table_arg[block.shells[cell[first] // div.shape[1]] - 1, col[first]] = rows[:, first].T

        for block in blocks:
            merge(block)
        self.shell_min, self.shell_arg, self.q_built = smin, sarg, Q
        self._prefix_min = np.minimum.accumulate(smin)
        # first shell attaining each prefix minimum
        record = np.ones(smin.shape, dtype=bool)
        record[1:] = smin[1:] < self._prefix_min[:-1]
        self._prefix_arg = np.maximum.accumulate(np.where(record.T, np.arange(Q), 0).T)

    def floor(self, q_max: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """min over shells s <= q_max of shell_min[s] * s**tau, with its argmin
        k, per column: 0-d and (n,) for one vector, (S,) and (S, n) for a
        stack."""
        self.ensure(q_max)
        prod = (self.shell_min[:q_max].T * np.arange(1, q_max + 1, dtype=np.float64) ** tau).T
        idx = np.argmin(prod, axis=0)[None]
        return (np.take_along_axis(prod, idx, 0)[0],
                np.take_along_axis(self.shell_arg[:q_max], idx[..., None], 0)[0])

    def prefix_minima(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Smallest divisor over 0 < |k|_1 <= Q and its first argmin k, for Q in
        (lo, hi]; raises ResonanceDetected at the first Q whose divisor is below
        RESONANCE_TOL * |k|_1."""
        self.ensure(hi)
        d, k = self._prefix_min[lo:hi], self.shell_arg[self._prefix_arg[lo:hi]]
        low = d < RESONANCE_TOL * np.abs(k).sum(axis=1)
        if low.any():
            i = int(np.argmax(low))
            raise ResonanceDetected(
                f"divisor {d[i]:.3e} at k={tuple(int(v) for v in k[i])} is below "
                f"tolerance {RESONANCE_TOL:g}*|k|_1"
            )
        return d, k

    def min_divisor(self, Q: int) -> tuple[float, np.ndarray]:
        d, k = self.prefix_minima(Q - 1, Q)
        return float(d[0]), k[0]

    def q_psi_array(self, Q: int) -> np.ndarray:
        """Array of Q'*Psi(Q') for Q' = 1..Q (strictly increasing)."""
        self.ensure(Q)
        qs = np.arange(1, Q + 1, dtype=np.float64)
        return qs / self._prefix_min[:Q]


# ---------------------------------------------------------------------------
# exact continued-fraction windows (for vectors tagged with a rational value)
# ---------------------------------------------------------------------------

def _cf_of_fraction(fr: Fraction) -> list[int]:
    """Continued fraction terms [a0; a1, a2, ...] of a rational by Euclid."""
    terms = []
    num, den = fr.numerator, fr.denominator
    while den:
        a, rem = divmod(num, den)
        terms.append(int(a))
        num, den = den, rem
    return terms


def _convergents(terms: Sequence[int]) -> list[tuple[int, int]]:
    p_prev, q_prev = 1, 0
    p, q = terms[0], 1
    out = [(p, q)]
    for a in terms[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def _log_fraction(fr: Fraction) -> float:
    """Natural log of a positive Fraction, safe for astronomically sized terms."""
    return math.log(fr.numerator) - math.log(fr.denominator)


def _int_to_str(v: int) -> str:
    """Decimal for small integers, hex for huge ones.

    CPython caps decimal int/str conversion (default 4300 digits); hex is
    exempt, so schedule integers of any size serialize losslessly.
    """
    if v.bit_length() <= 128:
        return str(v)
    return hex(v)


def _int_from_str(s: str) -> int:
    return int(s, 16) if s.startswith(("0x", "-0x")) else int(s)


class ExactCF:
    """Exact arithmetic companion for n=2 vectors w = (1, alpha), alpha in (0,1).

    Holds alpha as a Fraction and exposes Psi/Delta/Diophantine queries via
    best-approximation windows: the smallest divisor over |k|_1 <= Q is the
    error of the last convergent (p_j, q_j) with p_j + q_j <= Q.
    """

    def __init__(self, alpha: Fraction, use_for_delta: bool = True):
        if not 0 < alpha < 1:
            raise ConstructionFailed("exact tag expects alpha in (0, 1)")
        self.alpha = alpha
        self.use_for_delta = use_for_delta
        self.terms = _cf_of_fraction(alpha)
        convs = _convergents(self.terms)
        self.convergents = convs
        self.errors = [abs(q * alpha - p) for p, q in convs]
        self.entry_q = [p + q for p, q in convs]     # Q at which (p,-q) enters
        # horizon: alpha is rational, so the final convergent is exact
        self.horizon = self.entry_q[-1]

    def psi_windows(self) -> list[tuple[int, Fraction]]:
        """(Q_j, min divisor valid on [Q_j, Q_{j+1})) with e_j > 0."""
        out = []
        for Qj, ej in zip(self.entry_q, self.errors):
            if ej == 0:
                break
            out.append((Qj, ej))
        return out

    def min_divisor_exact(self, Q: int) -> Fraction:
        if Q >= self.horizon:
            return Fraction(0)
        best = None
        for Qj, ej in self.psi_windows():
            if Qj <= Q:
                best = ej
            else:
                break
        if best is None:
            raise BelowThreshold(f"no lattice vector with |k|_1 <= {Q}")
        return best

    def delta_exact(self, x: Fraction) -> int:
        """Largest Q with Q / e(Q) <= x, exact rational comparisons."""
        windows = self.psi_windows()
        best = 0
        for idx, (Qj, ej) in enumerate(windows):
            if Qj > x * ej:          # window start already violates
                break
            hi = windows[idx + 1][0] - 1 if idx + 1 < len(windows) else self.horizon - 1
            q_cap = int(x * ej)      # floor of the exact product
            best = min(hi, q_cap)
        if best < 1:
            raise BelowThreshold("x below 1*Psi(1)")
        return best

    def dioph_min_log(self, q_max: int, tau: float) -> tuple[float, tuple[int, int]]:
        """min over 0<|k|_1<=q_max of log(|k.w| * |k|_1^tau), with witness.

        Scans convergents plus the unimodal semiconvergent families; safe for
        windows whose partial quotients are too large to enumerate.
        """
        if q_max >= self.horizon:
            pj, qj = self.convergents[-1]
            return (float("-inf"), (pj, -qj))
        candidates: list[tuple[float, tuple[int, int]]] = [(0.0, (1, 0))]

        def add(err: Fraction, p: int, q: int) -> None:
            if err > 0 and 0 < p + q <= q_max:
                candidates.append((_log_fraction(err) + tau * math.log(p + q), (p, -q)))

        convs, errs = self.convergents, self.errors
        for j in range(len(convs)):
            p, q = convs[j]
            add(errs[j], p, q)
            if j + 1 >= len(convs):
                continue
            # semiconvergents between convergent j and j+1:
            #   (m p_j + p_{j-1}, m q_j + q_{j-1}),  err = e_{j-1} - m e_j
            p_prev, q_prev = convs[j - 1] if j >= 1 else (1, 0)
            e_prev = errs[j - 1] if j >= 1 else Fraction(1)
            a_next = self.terms[j + 1]
            if errs[j] == 0:
                break
            m_hi = min(a_next, (q_max - (p_prev + q_prev)) // (p + q)) if p + q <= q_max else 0
            if m_hi < 1:
                continue
            # minimize (E - mF)(G + mH)^tau over integer m in [1, m_hi]
            E, F = e_prev, errs[j]
            G, H = p_prev + q_prev, p + q
            ms = {1, m_hi}
            denom = float(F) * H * (1.0 + tau)
            if denom > 0 and math.isfinite(float(F)):
                m_star = (tau * H * float(E) - float(F) * G) / denom
                for m in (math.floor(m_star), math.ceil(m_star)):
                    if 1 <= m <= m_hi:
                        ms.add(int(m))
            for m in ms:
                add(E - m * F, m * p + p_prev, m * q + q_prev)
        return min(candidates, key=lambda t: t[0])


# ---------------------------------------------------------------------------
# public record types
# ---------------------------------------------------------------------------

class DivisorRecord(NamedTuple):
    """Smallest divisor over the lattice ball of l1 radius Q."""
    Q: int
    min_divisor: float
    argmin_k: tuple[int, ...]
    psi: float


@dataclass(frozen=True)
class ArithmeticProfile:
    """Truncation order and smallness scales attached to (omega, eps, c)."""
    epsilon: float
    c: float
    Delta: int
    mu: float
    alpha: Optional[float] = None
    c_bar: Optional[float] = None
    nu: Optional[float] = None


@dataclass(frozen=True)
class DiophReport:
    ok: bool
    gamma: float
    tau: float
    q_max: int
    witness: Optional[tuple[int, ...]]
    margin_log10: float
    method: str

    @property
    def margin(self) -> float:
        """min(|k.w| |k|_1^tau) / gamma; 0.0 if it underflows float64."""
        return 10.0 ** self.margin_log10 if self.margin_log10 > -300 else 0.0


def _decimal_string(x: float, digits: int = 36) -> str:
    """Exact decimal expansion of a binary64, padded to >= `digits` digits."""
    d = Decimal(x)
    s = format(d, "f")
    mantissa = s.replace("-", "").replace(".", "").lstrip("0")
    if len(mantissa) < digits:
        if "." not in s:
            s += "."
        s += "0" * (digits - len(mantissa))
    return s


class FrequencyVector:
    """Sup-normalized frequency vector with lazy divisor tables.

    Parameters
    ----------
    components : sequence of float
        Raw components; normalized so the largest absolute value is 1.
    kind : str
        Construction tag ("golden", "diophantine", "liouville", "explicit", ...).
    q_check : int
        Non-resonance witness radius checked at construction.
    decimal_components : list of str, optional
        High-precision decimal strings (>= 30 significant digits). Derived
        from the float components when omitted.
    exact : ExactCF, optional
        Exact rational tag enabling the convergent-window query paths.
    construction : dict, optional
        Construction metadata (continued-fraction terms, schedules, ...).
    """

    def __init__(self, components, kind: str = "explicit", q_check: int = 30,
                 decimal_components: Optional[list[str]] = None,
                 exact: Optional[ExactCF] = None,
                 construction: Optional[dict] = None):
        arr = np.asarray(components, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ConstructionFailed("frequency vector needs n >= 2 components")
        if not np.all(np.isfinite(arr)):
            raise ConstructionFailed(f"frequency vector has a non-finite component: "
                                     f"{arr.tolist()}")
        sup = np.max(np.abs(arr))
        if sup == 0:
            raise ConstructionFailed("zero frequency vector")
        arr /= sup
        arr.flags.writeable = False
        self.components = arr
        self.n = arr.size
        self.kind = kind
        self.exact = exact
        self.construction = dict(construction or {})
        self.decimal_components = (
            list(decimal_components) if decimal_components is not None
            else [_decimal_string(float(v)) for v in arr]
        )
        self._table = _DivisorTable(arr)
        self.q_checked = 0
        if q_check and q_check > 0:
            self._table.min_divisor(q_check)   # raises ResonanceDetected on failure
            self.q_checked = q_check

    def __repr__(self) -> str:
        comps = ", ".join(f"{v:.6f}" for v in self.components)
        return f"FrequencyVector(kind={self.kind!r}, n={self.n}, [{comps}])"

    def to_record(self) -> dict:
        rec = {
            "record": "frequency_vector",
            "n": self.n,
            "kind": self.kind,
            "components": self.decimal_components,
            "q_checked": self.q_checked,
            "resonance_tolerance": RESONANCE_TOL,
        }
        if self.construction:
            rec["construction"] = self.construction
        if self.exact is not None:
            rec["exact_rational"] = {
                "num": _int_to_str(self.exact.alpha.numerator),
                "den": _int_to_str(self.exact.alpha.denominator),
                "use_for_delta": self.exact.use_for_delta,
            }
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "FrequencyVector":
        # resonance_tolerance, the writer's RESONANCE_TOL, is read only to be accepted
        check_record(rec, "frequency_vector", ("n", "kind", "components", "q_checked",
                                               "resonance_tolerance", "construction",
                                               "exact_rational"))
        exact = None
        if "exact_rational" in rec:
            ex = check_record({"record": "exact_rational", **rec["exact_rational"]},
                              "exact_rational", ("num", "den", "use_for_delta"))
            exact = ExactCF(Fraction(_int_from_str(ex["num"]), _int_from_str(ex["den"])),
                            use_for_delta=bool(ex.get("use_for_delta", True)))
        return check_derived(cls([float(s) for s in rec["components"]],
                                 kind=rec.get("kind", "explicit"),
                                 q_check=rec.get("q_checked", 30),
                                 decimal_components=list(rec["components"]),
                                 exact=exact, construction=rec.get("construction")),
                             rec, "frequency_vector")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def psi(omega: FrequencyVector, Q: int) -> DivisorRecord:
    """Reciprocal smallest divisor over 0 < |k|_1 <= Q (float enumeration)."""
    if Q < 1:
        raise BelowThreshold("psi needs Q >= 1")
    d, k = omega._table.min_divisor(int(Q))
    return DivisorRecord(Q=int(Q), min_divisor=d,
                         argmin_k=tuple(int(v) for v in k), psi=1.0 / d)


def psi_table(omega: FrequencyVector, Q: int) -> list[DivisorRecord]:
    """`psi(omega, Q')` for every Q' = 1..Q, read off the prefix minima at once.

    Raises as the calls would, at the first Q' that fails: a resonance, then
    the enumeration cap."""
    Q = int(Q)
    if Q < 1:
        return []
    d, k = omega._table.prefix_minima(0, min(Q, ENUMERATION_CAP))
    omega._table.ensure(Q)
    return [DivisorRecord(q, dq, tuple(kq), 1.0 / dq)
            for q, dq, kq in zip(range(1, Q + 1), d.tolist(), k.tolist())]


def delta(omega: FrequencyVector, x: float) -> int:
    """Largest integer Q >= 1 with Q * Psi(Q) <= x.

    Uses the exact convergent-window path when the vector carries a rational
    tag marked for it; otherwise doubles the enumeration radius, clipped at
    ENUMERATION_CAP, and reads the crossing off the strictly increasing table
    of Q * Psi(Q): every Delta below the cap is answered, a larger one refused.
    """
    if omega.exact is not None and omega.exact.use_for_delta:
        return omega.exact.delta_exact(Fraction(x))
    if not x <= sys.float_info.max:      # NaN, infinite, or beyond float range
        raise ConstructionFailed("delta needs x finite in float64")
    x, table, q_hi = float(x), omega._table, 1
    while (arr := table.q_psi_array(q_hi))[-1] <= x:
        q_hi = min(2 * q_hi, max(q_hi + 1, ENUMERATION_CAP))
    if arr[0] > x:
        raise BelowThreshold(f"x={x:g} is below 1*Psi(1)={arr[0]:.12g}")
    D = int(np.searchsorted(arr, x, side="right"))
    table.min_divisor(min(D + 1, q_hi))   # refuse answers built on resonant shells
    return D


def check_delta_invariant(omega: FrequencyVector, x, D: int) -> bool:
    """Verify D*Psi(D) <= x < (D+1)*Psi(D+1), in the arithmetic delta used.

    Exact-tagged vectors get rational comparisons (D <= x*e(D), with
    Psi = infinity past the rational horizon); pass x as a Fraction to match
    an exact query precisely.  Float vectors reuse the very expression
    delta() searched over, so the check is bit-consistent.
    """
    if D < 1:
        return False
    if omega.exact is not None and omega.exact.use_for_delta:
        xf = x if isinstance(x, Fraction) else Fraction(x)
        e_here = omega.exact.min_divisor_exact(D)
        if e_here == 0 or Fraction(D) > xf * e_here:
            return False
        e_next = omega.exact.min_divisor_exact(D + 1)
        return e_next == 0 or Fraction(D + 1) > xf * e_next
    arr = omega._table.q_psi_array(D + 1)
    return bool(arr[D - 1] <= float(x) < arr[D])


def mu_nu(omega: FrequencyVector, epsilon: float, c: float = 1.0,
          alpha: Optional[float] = None, c_bar: Optional[float] = None) -> ArithmeticProfile:
    """Arithmetic profile at eps: Delta = delta(w, c/eps), mu = 1/Delta.

    When `alpha` (and optionally `c_bar`, default 1) are given, attaches the
    Gevrey scale nu = exp(-c_bar * mu**(-1/alpha)); both must be finite and
    positive.  Where mu**(-1/alpha) overflows a float, nu is 0.0: exp is 0.0
    below -746, which the exponent passes for any c_bar above 1e-305.
    """
    if not (0 < epsilon < math.inf and 0 < c < math.inf):
        raise BelowThreshold(f"mu_nu needs finite epsilon > 0 and c > 0, "
                             f"got epsilon={epsilon!r}, c={c!r}")
    D = delta(omega, Fraction(c) / Fraction(epsilon))
    mu = 1.0 / D
    if alpha is not None:
        check_gevrey(alpha, c_bar)
        cb = 1.0 if c_bar is None else float(c_bar)
        try:
            nu = math.exp(-cb * mu ** (-1.0 / alpha))
        except OverflowError:
            nu = 0.0
        return ArithmeticProfile(epsilon=float(epsilon), c=float(c), Delta=D, mu=mu,
                                 alpha=float(alpha), c_bar=cb, nu=nu)
    return ArithmeticProfile(epsilon=float(epsilon), c=float(c), Delta=D, mu=mu)


def check_gevrey(alpha, c_bar) -> None:
    """Raise ConstructionFailed unless the Gevrey alpha and c_bar are each
    None or a finite positive real number."""
    for value in (alpha, c_bar):
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Real)
                                  or not 0 < value < math.inf):
            raise ConstructionFailed(f"Gevrey alpha and c_bar must be finite and "
                                     f"positive, got alpha={alpha!r}, c_bar={c_bar!r}")


def diophantine_check(omega: FrequencyVector, gamma: float, tau: float,
                      q_max: int, method: str = "auto") -> DiophReport:
    """Certify |k . w| >= gamma * |k|_1^(-tau) for all 0 < |k|_1 <= q_max.

    method "enumerate" walks the lattice ball (float divisors); "cf" uses the
    exact rational tag; "auto" picks "cf" when the tag exists and is marked for
    delta or the divisor table refuses q_max, and "enumerate" otherwise.
    """
    if not (0 < gamma < math.inf and 0 < tau < math.inf) or q_max < 1:
        raise ConstructionFailed("diophantine_check needs finite gamma, tau > 0, "
                                 "q_max >= 1")
    exact = omega.exact
    if method != "cf" and not (method == "auto" and exact is not None and exact.use_for_delta):
        try:
            prod, k = omega._table.floor(q_max, tau)
        except ConstructionFailed:
            if method != "auto" or exact is None:
                raise
        else:
            ok = float(prod) >= gamma
            return DiophReport(ok=ok, gamma=gamma, tau=tau, q_max=q_max,
                               witness=None if ok else tuple(int(v) for v in k),
                               margin_log10=math.log10(prod / gamma) if prod > 0 else -math.inf,
                               method="enumerate")
    if exact is None:
        raise ConstructionFailed("cf method requires an exact rational tag")
    log_min, witness = exact.dioph_min_log(q_max, tau)
    margin_log10 = (log_min - math.log(gamma)) / math.log(10.0)
    return DiophReport(ok=margin_log10 >= 0, gamma=gamma, tau=tau, q_max=q_max,
                       witness=witness if margin_log10 < 0 else None,
                       margin_log10=margin_log10, method="cf")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _golden() -> FrequencyVector:
    with localcontext() as ctx:
        ctx.prec = 50
        alpha = (Decimal(5).sqrt() - 1) / 2
        ctx.prec = 36
        dec = format(+alpha, "f")
    return FrequencyVector(
        [1.0, float(dec)],
        kind="golden",
        q_check=200,
        decimal_components=[_decimal_string(1.0), dec],
        construction={"cf_terms": "[0; 1, 1, 1, ...]"},
    )


def _diophantine(tau: float) -> FrequencyVector:
    """n=2 vector with continued-fraction quotients a_{j+1} ~ q_j^(tau-1),
    up to the first convergent denominator beyond 10^6.

    The convergent errors then satisfy e_j ~ q_j^(-tau), giving an effective
    (gamma, tau) Diophantine vector; gamma is measured and recorded.
    """
    if tau < 1:
        raise ConstructionFailed("diophantine construction needs tau >= 1")
    terms = [0, 2]
    while (q := _convergents(terms)[-1][1]) <= 10 ** 6:
        terms.append(max(1, int(round(q ** (tau - 1.0)))))
    p, q = _convergents(terms)[-1]
    alpha = Fraction(p, q)
    exact = ExactCF(alpha, use_for_delta=False)
    log_min, _ = exact.dioph_min_log(exact.horizon - 1, tau)
    gamma_eff = math.exp(log_min)
    return FrequencyVector(
        [1.0, p / q],
        kind="diophantine",
        q_check=200,
        decimal_components=[_decimal_string(1.0), _decimal_string(p / q)],
        exact=exact,
        construction={"tau": tau, "cf_terms": [str(t) for t in terms],
                      "gamma_effective": gamma_eff},
    )


def _liouville_n2() -> FrequencyVector:
    """Continued-fraction Liouville vector with Psi(Q_j) >= Q_j^p at jump points,
    p = 22, over 3 levels.

    Partial quotients a_{j+1} = ceil(Q_j^p / q_j) + 1 make the convergent
    error at level j smaller than Q_j^(-p).  The value is kept as an exact
    rational (levels beyond the first are far below float64 resolution); the
    scale sequence records, per level, the largest eps whose truncation-order
    window starts at Q_j, i.e. eps_j = c / (Q_j * Psi(Q_j)) with c = 1.
    """
    p, levels = 22, 3
    terms = [0, 2]
    for _ in range(levels):
        pc, qc = _convergents(terms)[-1]
        Qj = pc + qc
        terms.append(-(-Qj ** p // qc) + 1)
    pc, qc = _convergents(terms)[-1]
    alpha = Fraction(pc, qc)
    exact = ExactCF(alpha, use_for_delta=True)
    windows = exact.psi_windows()
    sequence = []
    for Qj, ej in windows:
        if float(ej) == 0.0 and Qj > 1:
            # below float64: keep the exact record only
            eps_f = 0.0
        else:
            eps_f = float(ej / Qj)
        if Qj > 1:
            # schedule certification, exact: 1/e_j >= Q_j^p
            if ej * Qj ** p > 1:
                raise ConstructionFailed(
                    f"schedule Psi(Q) >= Q^{p:g} violated at Q={Qj}"
                )
        entry = {"Q": _int_to_str(Qj), "mu": float(Fraction(1, Qj)),
                 "x_log10": (_log_fraction(Fraction(Qj, 1) / ej) / math.log(10.0)
                             if ej else None)}
        if eps_f > 0.0:
            entry["eps"] = math.nextafter(eps_f, 0.0)
        sequence.append(entry)
    usable = [e for e in sequence if "eps" in e]
    if len(usable) < 2:
        raise ConstructionFailed("scale sequence has fewer than 2 float-representable points")
    return FrequencyVector(
        [1.0, pc / qc],
        kind="liouville",
        q_check=200,
        decimal_components=[_decimal_string(1.0), _decimal_string(pc / qc)],
        exact=exact,
        construction={
            "schedule_exponent": float(p),
            "levels": levels,
            "c": 1.0,
            "cf_terms": [_int_to_str(t) for t in terms],
            "scale_sequence": sequence,
        },
    )


def _liouville_constant(truncation_level: int = 4) -> FrequencyVector:
    """(1, sum over j of 10^(-j!)) truncated; exact rational tag attached.

    The tag is not used for delta (enumeration stays authoritative at small
    Q) but enables exact Diophantine queries at |k|_1 ~ 10^6, where the 10^-j!
    structure first bites.
    """
    L = Fraction(0)
    for j in range(1, truncation_level + 1):
        L += Fraction(1, 10 ** math.factorial(j))
    exact = ExactCF(L, use_for_delta=False)
    dec = format(Decimal(L.numerator) / Decimal(10) ** 24, "f")
    return FrequencyVector(
        [1.0, float(L)],
        kind="liouville_constant",
        q_check=200,
        decimal_components=[_decimal_string(1.0), dec + "0" * max(0, 36 - len(dec))],
        exact=exact,
        construction={"series": "sum of 10^(-j!)", "truncation_level": truncation_level},
    )


def _liouville_lacunary(n: int) -> FrequencyVector:
    """n=3 Liouville vector from lacunary decimal series with schedule
    exponent p = 3 (first level verifiable)."""
    p = 3.0
    comps = [Fraction(1)]
    seqs = []
    for i in range(n - 1):
        s0 = 2 + i
        s1 = int(math.ceil((p + 1) * s0)) + 1
        s2 = int(math.ceil((p + 1) * s1)) + 1
        val = Fraction(1, 10 ** s0) + Fraction(1, 10 ** s1) + Fraction(1, 10 ** s2)
        comps.append(val)
        seqs.append({"exponents": [s0, s1, s2]})
    floats = [float(v) for v in comps]
    return FrequencyVector(
        floats, kind="liouville", q_check=100,
        decimal_components=[_decimal_string(v) for v in floats],
        construction={"lacunary": seqs, "schedule_exponent": p,
                      "note": "only the first scale level is enumeration-verifiable"},
    )


def make_test_frequency(kind: str, n: int = 2, tau: float = 2.0) -> FrequencyVector:
    """Construct a frequency vector of the requested arithmetic type.

    kind "golden": (1, (sqrt(5)-1)/2), n=2.
    kind "diophantine": continued-fraction vector with exponent tau, n=2.
    kind "liouville": prescribed-growth vector, n = 2 or 3; continued
        fractions for n=2 (exact rational tag, scale sequence in construction
        metadata), lacunary decimal series for n=3.  For n >= 4 the lacunary
        components are within 1e-13 of a 10:1 ratio, a resonance at
        k = (0, 0, 1, -10), so n >= 4 is refused.
    kind "liouville_constant": truncated sum of 10^(-j!), n=2.
    A vector of given components is FrequencyVector(components).
    """
    if kind == "golden":
        if n != 2:
            raise ConstructionFailed("golden construction is n=2")
        return _golden()
    if kind == "diophantine":
        if n != 2:
            raise ConstructionFailed("diophantine construction implemented for n=2")
        return _diophantine(tau)
    if kind == "liouville":
        if n not in (2, 3):
            raise ConstructionFailed(f"liouville construction is n = 2 or 3, not n = {n}: "
                                     "for n >= 4 its lacunary components are resonant")
        if n == 2:
            return _liouville_n2()
        return _liouville_lacunary(n)
    if kind == "liouville_constant":
        if n != 2:
            raise ConstructionFailed("liouville_constant is n=2")
        return _liouville_constant()
    raise ConstructionFailed(f"unknown frequency kind {kind!r}")
