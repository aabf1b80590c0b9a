"""Small-divisor arithmetic: frozen values, brute-force agreement, invariants."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamlab import (
    BelowThreshold,
    ConstructionFailed,
    FrequencyVector,
    ResonanceDetected,
    check_delta_invariant,
    delta,
    diophantine_check,
    make_test_frequency,
    mu_nu,
    psi,
    psi_table,
)
from kamlab import freq_arith as fa
from kamlab.freq_arith import ExactCF, _DivisorTable

from oracles import (
    brute_delta,
    brute_dioph_min,
    brute_min_divisor,
    exact_min_divisor_n2,
    half_lattice,
    half_shell,
    neumaier_abs_dot,
    shell_table,
)


@pytest.fixture(scope="module")
def golden():
    return make_test_frequency("golden")


# -- frozen golden-ratio values -------------------------------------------------

def test_golden_psi_1(golden):
    rec = psi(golden, 1)
    assert rec.min_divisor == 0.6180339887498949
    assert rec.psi == 1.6180339887498947
    assert rec.argmin_k in ((0, 1), (0, -1))


def test_golden_psi_2(golden):
    rec = psi(golden, 2)
    assert rec.psi == 2.6180339887498953
    assert rec.argmin_k in ((1, -1), (-1, 1))
    assert 2 * rec.psi == 5.236067977499791


def test_golden_delta_examples(golden):
    assert delta(golden, 5.24) == 2
    assert delta(golden, 12.70) == 2      # just under 3*Psi(3) = 12.708...
    assert delta(golden, 12.71) == 3
    with pytest.raises(BelowThreshold):
        delta(golden, 1.0)


def test_golden_delta_table(golden):
    # frozen from an independent run; brute-force-checked below for small x
    expected = {10: 2, 100: 9, 1000: 33, 10**4: 88, 10**5: 310, 10**6: 986}
    for x, D in expected.items():
        assert delta(golden, float(x)) == D
        assert check_delta_invariant(golden, float(x), D)


def test_golden_mu_nu(golden):
    prof = mu_nu(golden, 0.1, c=1.0)
    assert prof.Delta == 2 and prof.mu == 0.5
    prof = mu_nu(golden, 0.1, c=1.0, alpha=1.0, c_bar=1.0)
    assert prof.nu == 0.1353352832366127       # exp(-2)
    assert prof.nu == pytest.approx(math.exp(-1.0 / prof.mu), rel=1e-15)


def test_mu_nu_gevrey_overflow_and_refusals(golden):
    # mu = 1/33 at eps 1e-3: mu**(-1/alpha) = 33**1000 overflows a float,
    # and exp of anything that far below zero is 0.0
    with pytest.raises(OverflowError):
        (1 / 33) ** (-1.0 / 0.001)
    assert mu_nu(golden, 1e-3, alpha=0.001).nu == 0.0
    assert mu_nu(golden, 1e-3, alpha=0.001, c_bar=1e-300).nu == 0.0
    # a finite nu keeps its value
    assert mu_nu(golden, 1e-3, alpha=1.0).nu == math.exp(-33.0)
    for alpha, c_bar in [(0.0, None), (-1.0, None), (math.nan, None), (math.inf, None),
                         (1.0, 0.0), (1.0, -1e6), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ConstructionFailed, match="finite and positive"):
            mu_nu(golden, 1e-3, alpha=alpha, c_bar=c_bar)


def test_golden_mu_scaling_slope(golden):
    # Psi(Q) ~ Q for golden, so Q*Psi ~ Q^2 and mu(eps) ~ sqrt(eps)
    eps = np.logspace(-1, -5, 9)
    mus = [mu_nu(golden, e).mu for e in eps]
    slope = np.polyfit(np.log(eps), np.log(mus), 1)[0]
    assert 0.45 < slope < 0.6


# -- brute-force agreement ------------------------------------------------------

@pytest.mark.parametrize("Q", [1, 2, 3, 5, 8, 13, 21, 40])
def test_psi_matches_brute_force_bitwise(golden, Q):
    d_brute, _ = brute_min_divisor(golden.components, Q)
    assert psi(golden, Q).min_divisor == d_brute


def test_psi_matches_brute_force_n3():
    w = FrequencyVector([1.0, 1 / math.sqrt(2), 1 / math.sqrt(3)], q_check=10)
    for Q in (1, 3, 7, 12):
        d_brute, _ = brute_min_divisor(w.components, Q)
        assert psi(w, Q).min_divisor == d_brute


def test_psi_random_vectors_match_brute_force():
    rng = np.random.default_rng(20260814)
    for _ in range(6):
        comps = rng.uniform(0.3, 1.0, size=2)
        w = FrequencyVector(comps, q_check=5)
        for Q in (2, 9, 17):
            d_brute, _ = brute_min_divisor(w.components, Q)
            assert psi(w, Q).min_divisor == d_brute


def test_delta_matches_brute_force(golden):
    for x in (5.24, 10.0, 47.3, 100.0, 316.0):
        assert delta(golden, x) == brute_delta(golden.components, x)


def test_psi_monotone_and_q_psi_increasing(golden):
    recs = psi_table(golden, 60)
    psis = [r.psi for r in recs]
    assert all(b >= a for a, b in zip(psis, psis[1:]))
    qpsi = [(i + 1) * r.psi for i, r in enumerate(recs)]
    assert all(b > a for a, b in zip(qpsi, qpsi[1:]))


def test_delta_invariant_random_x(golden):
    rng = np.random.default_rng(7)
    for x in rng.uniform(2.0, 5000.0, size=12):
        D = delta(golden, float(x))
        assert check_delta_invariant(golden, float(x), D)
        assert not check_delta_invariant(golden, float(x), D + 1)


# -- resonance handling ---------------------------------------------------------

def test_resonant_vector_detected():
    w = FrequencyVector([1.0, 0.5], q_check=2)
    with pytest.raises(ResonanceDetected) as exc:
        psi(w, 3)
    assert "(1, -2)" in str(exc.value)


def test_resonant_construction_rejected_at_q_check():
    with pytest.raises(ResonanceDetected):
        FrequencyVector([1.0, 0.5], q_check=3)


def test_rational_vector_wider_check():
    with pytest.raises(ResonanceDetected):
        FrequencyVector([1.0, 2.0 / 7.0], q_check=30)


# -- diophantine_check ----------------------------------------------------------

def test_golden_dioph_pass(golden):
    rep = diophantine_check(golden, gamma=0.38, tau=1.0, q_max=200)
    assert rep.ok and rep.witness is None and rep.method == "enumerate"
    assert rep.margin == pytest.approx(0.6180339887498949 / 0.38, rel=1e-12)


def test_golden_dioph_fail_large_gamma(golden):
    rep = diophantine_check(golden, gamma=0.7, tau=1.0, q_max=200)
    assert not rep.ok
    assert rep.witness in ((0, 1), (0, -1))


def test_dioph_matches_brute_force(golden):
    prod, _ = brute_dioph_min(golden.components, tau=1.5, q_max=40)
    rep = diophantine_check(golden, gamma=prod * 0.999, tau=1.5, q_max=40)
    assert rep.ok
    rep = diophantine_check(golden, gamma=prod * 1.001, tau=1.5, q_max=40)
    assert not rep.ok


def test_enumerated_dioph_values_frozen(golden):
    # frozen before the table and the torus certificate shared one floor routine
    rep = diophantine_check(golden, 1.0, 0.5, 200, method="enumerate")
    assert rep.witness == (55, -89) and rep.margin_log10 == -1.2196827967018768
    w = FrequencyVector([1.0, 0.7548776662466927, 0.5698402909980532])
    rep = diophantine_check(w, 1.0, 1.0, 40, method="enumerate")
    assert rep.witness == (1, 10, -15) and rep.margin_log10 == -1.515988814637004


def test_liouville_constant_dioph_exact_path():
    lc = make_test_frequency("liouville_constant")
    # passes at modest radius: the 10^-j! structure has not entered yet
    rep = diophantine_check(lc, gamma=0.1, tau=2.0, q_max=10_000)
    assert rep.ok and rep.method == "enumerate"
    # fails once |k|_1 can reach (110001, -10^6): divisor 1e-18 at |k| ~ 1.1e6
    rep = diophantine_check(lc, gamma=0.1, tau=2.0, q_max=1_200_000)
    assert not rep.ok and rep.method == "cf"
    assert rep.witness == (110001, -1000000)
    assert rep.margin_log10 == pytest.approx(-4.909, abs=0.01)


def test_exact_dioph_agrees_with_enumeration():
    lc = make_test_frequency("liouville_constant")
    for tau in (1.0, 2.0):
        prod, _ = brute_dioph_min(lc.components, tau=tau, q_max=500)
        rep = diophantine_check(lc, gamma=0.987 * prod, tau=tau, q_max=500, method="cf")
        assert rep.ok
        rep = diophantine_check(lc, gamma=1.013 * prod, tau=tau, q_max=500, method="cf")
        assert not rep.ok


# -- exact continued-fraction windows -------------------------------------------

def test_exact_windows_match_exact_scan():
    alpha = Fraction(113, 355)   # near 1/pi
    ex = ExactCF(alpha)
    for Q in (1, 2, 3, 5, 9, 20, 57, 150):
        if Q >= ex.horizon:
            continue
        assert ex.min_divisor_exact(Q) == exact_min_divisor_n2(alpha, Q)


def test_exact_delta_matches_float_delta():
    alpha = Fraction(2, 7) + Fraction(1, 7 ** 6)
    ex = ExactCF(alpha)
    w = FrequencyVector([1.0, float(alpha)], q_check=6)
    for x in (4.0, 10.0, 30.0, 55.0):
        assert ex.delta_exact(Fraction(x)) == delta(w, x)


# -- liouville construction -----------------------------------------------------

@pytest.fixture(scope="module")
def liouville():
    return make_test_frequency("liouville")


def test_liouville_schedule_certified(liouville):
    seq = liouville.construction["scale_sequence"]
    assert len([e for e in seq if "eps" in e]) >= 3
    # frozen: the three float-representable scale points
    eps = [e["eps"] for e in seq if "eps" in e]
    assert eps[0] == pytest.approx(0.5, rel=1e-9)
    assert eps[1] == pytest.approx(1.0622118483062494e-11, rel=1e-12)
    assert eps[2] == pytest.approx(3.361600908263964e-246, rel=1e-12)


def test_liouville_mu_collapse(liouville):
    # mu(eps_j) = 1/Q_j stays huge relative to any power of eps
    seq = [e for e in liouville.construction["scale_sequence"] if "eps" in e]
    pts = []
    for e in seq:
        prof = mu_nu(liouville, e["eps"], c=1.0)
        assert prof.mu == pytest.approx(e["mu"], rel=1e-12)
        assert prof.mu >= e["eps"] ** 0.05
        pts.append((e["eps"], prof.mu))
    for (e1, m1), (e2, m2) in zip(pts, pts[1:]):
        slope = (math.log(m1) - math.log(m2)) / (math.log(e1) - math.log(e2))
        assert slope < 0.05


def test_liouville_exact_delta_invariant(liouville):
    for e in liouville.construction["scale_sequence"]:
        if "eps" not in e:
            continue
        prof = mu_nu(liouville, e["eps"], c=1.0)
        x = Fraction(prof.c) / Fraction(prof.epsilon)   # matches mu_nu's arithmetic
        assert check_delta_invariant(liouville, x, prof.Delta)
        assert not check_delta_invariant(liouville, x, prof.Delta + 1)


def test_liouville_float_psi_agrees_at_small_q(liouville):
    d_brute, _ = brute_min_divisor(liouville.components, 3)
    assert psi(liouville, 3).min_divisor == d_brute


def test_liouville_gevrey_nu_below_mu_squared(liouville):
    seq = [e for e in liouville.construction["scale_sequence"] if "eps" in e]
    prof = mu_nu(liouville, seq[1]["eps"], c=1.0, alpha=1.0)
    assert prof.nu <= prof.mu ** 2


def test_liouville_lacunary_n3():
    w = make_test_frequency("liouville", n=3)
    assert w.n == 3 and w.kind == "liouville"
    assert "lacunary" in w.construction and w.q_checked == 100
    # n >= 4 is refused up front: the n = 4 components are resonant at
    # k = (0, 0, 1, -10), below the q_check radius
    for n in (1, 4, 5):
        with pytest.raises(ConstructionFailed, match="n = 2 or 3"):
            make_test_frequency("liouville", n=n)


# -- diophantine construction ---------------------------------------------------

def test_diophantine_construction():
    w = make_test_frequency("diophantine", tau=2.0)
    gamma_eff = w.construction["gamma_effective"]
    assert gamma_eff > 0
    rep = diophantine_check(w, gamma=0.9 * gamma_eff, tau=2.0, q_max=5_000)
    assert rep.ok
    # the (gamma, tau) certificate forces Psi(Q) <= Q^tau / gamma, hence
    # mu(eps) <= 1 / ((gamma/eps)^(1/(1+tau)) - 1); the staircase between
    # convergent jumps keeps the fitted slope between that envelope and 1
    eps = np.logspace(-2, -6, 9)
    mus = [mu_nu(w, e).mu for e in eps]
    for e, m in zip(eps, mus):
        assert m <= 1.0 / ((gamma_eff / e) ** (1.0 / 3.0) - 1.0) * (1 + 1e-9)
    slope = np.polyfit(np.log(eps), np.log(mus), 1)[0]
    assert 0.2 < slope < 0.8


# -- construction hygiene and records -------------------------------------------

def test_components_sup_normalized_and_frozen():
    w = FrequencyVector([3.0, 3.0 / math.sqrt(7)], q_check=5)
    assert np.max(np.abs(w.components)) == 1.0
    with pytest.raises(ValueError):
        w.components[0] = 3.0


def test_decimal_components_reconstruct_floats(golden):
    for s, v in zip(golden.decimal_components, golden.components):
        digits = s.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) >= 30
        assert float(s) == v


def test_golden_digits_frozen_without_mpmath(fresh_python):
    # 36 digits of (sqrt(5) - 1) / 2, as mpmath printed them at 50-digit
    # working precision; the construction must not import mpmath
    code = ("import sys; from kamlab import make_test_frequency; "
            "w = make_test_frequency('golden'); "
            "print(w.decimal_components, 'mpmath' in sys.modules)")
    out = fresh_python(code).stdout
    assert out.split() == ["['1.00000000000000000000000000000000000',",
                           "'0.618033988749894848204586834365638118']", "False"]


def test_record_round_trip(golden):
    rec = golden.to_record()
    clone = FrequencyVector.from_record(json.loads(json.dumps(rec)))
    assert np.array_equal(clone.components, golden.components)
    assert clone.kind == "golden"


def test_record_round_trip_exact_liouville(liouville):
    rec = liouville.to_record()
    clone = FrequencyVector.from_record(json.loads(json.dumps(rec)))
    assert clone.exact is not None
    assert clone.exact.alpha == liouville.exact.alpha
    assert np.array_equal(clone.components, liouville.components)


def test_record_of_another_kind_or_key_is_refused(liouville):
    # another kind used to raise ConstructionFailed, where every other reader
    # raises ValueError; a misspelled key of the exact tag used to be dropped
    rec = liouville.to_record()
    with pytest.raises(ValueError, match="not a frequency_vector record"):
        FrequencyVector.from_record({**rec, "record": "frequency_vectr"})
    exact = {**rec["exact_rational"], "use_for_dleta": False}
    with pytest.raises(ValueError, match="exact_rational record has no field 'use_for_dleta'"):
        FrequencyVector.from_record({**rec, "exact_rational": exact})


def test_bad_constructions_rejected():
    with pytest.raises(ConstructionFailed):
        make_test_frequency("explicit")
    with pytest.raises(ConstructionFailed):
        make_test_frequency("nonsense")
    with pytest.raises(ConstructionFailed):
        make_test_frequency("golden", n=3)
    with pytest.raises(ConstructionFailed):
        FrequencyVector([0.0, 0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ConstructionFailed, match="non-finite"):
            FrequencyVector([bad, 1.0])


@pytest.mark.parametrize("gamma, tau", [(math.nan, 1.5), (math.inf, 1.5), (0.1, math.nan),
                                        (0.1, math.inf), (0.0, 1.5), (0.1, -1.0)])
def test_diophantine_check_refuses_gamma_or_tau_not_finite_and_positive(gamma, tau):
    # a nan gamma used to give ok=False and margin nan, a nan tau margin -inf
    with pytest.raises(ConstructionFailed, match="diophantine_check needs"):
        diophantine_check(make_test_frequency("golden"), gamma, tau, 10)


# -- divisor table growth -----------------------------------------------------------

# (1, 0.5) and (1, 0.25, 0.5) are resonant: exact divisor ties on every shell
# exercise the argmin order
_GROWTH_VECTORS = [(1.0, 0.5), (1.0, 0.25, 0.5), (1.0, 0.6180339887498949),
                   (0.81, -1.0, 0.37), (1.0, 0.3, -0.55, 0.71), (1.0, 0.5, 0.25, 0.125)]
_GROWTH_DEPTH = {2: 120, 3: 20, 4: 9}


def _table_state(table: _DivisorTable) -> list[bytes]:
    return [a.tobytes() for a in (table.shell_min, table.shell_arg,
                                  table._prefix_min, table._prefix_arg)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_growth_order_is_irrelevant(data):
    w = np.array(data.draw(st.one_of(
        st.sampled_from(_GROWTH_VECTORS),
        st.integers(2, 4).flatmap(lambda n: st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n)))))
    Q = data.draw(st.integers(1, _GROWTH_DEPTH[w.size]))
    steps = sorted(data.draw(st.sets(st.integers(1, Q), max_size=6)) | {Q})
    grown, once = _DivisorTable(w), _DivisorTable(w)
    for q in steps:
        grown.ensure(q)
        assert grown.q_built == q
    once.ensure(Q)
    assert _table_state(grown) == _table_state(once)
    assert _table_state(once) == [a.tobytes() for a in shell_table(w, Q)]


@pytest.mark.parametrize("chunk", [7, 50, 1000])
@pytest.mark.parametrize("w, Q", [((1.0, 1.0), 60), ((1.0, 0.25, 0.5), 16),
                                  ((1.0, 0.5, 0.5, 0.25), 8), ((1.0, 0.5, 0.25, 0.25), 8)])
def test_table_ties_across_merge_chunks_match_loop_reference(monkeypatch, chunk, w, Q):
    # small merge chunks, down to blocks of one shell that alone outgrows
    # the chunk: exact ties within a shell keep its first row; at n = 4 the
    # tied rows' first nonzero components sit at index 0, 1 and 2
    monkeypatch.setattr(fa, "_CHUNK", chunk)
    w = np.array(w)
    table = _DivisorTable(w)
    table.ensure(Q)
    assert _table_state(table) == [a.tobytes() for a in shell_table(w, Q)]


@pytest.mark.parametrize("chunk", [7, 50, 65536])
def test_n3_ties_across_tails_and_halves_keep_the_first_row(monkeypatch, chunk):
    # on 12 shells of (1, 1/2, 3/8) to Q = 24 the smallest divisor is reached
    # exactly by rows of several tails k3 and of both pieces, k2 < 0 and
    # k2 > 0 (on two shells the tied minimum is not zero): of those rows the
    # table keeps the first in half_lattice order, merge chunks of any size
    w, Q = np.array([1.0, 0.5, 0.375]), 24
    K = np.array(half_lattice(3, Q))
    div, shells = neumaier_abs_dot(K, w), np.abs(K).sum(axis=1)
    tied = []
    for s in range(1, Q + 1):
        reach = K[(shells == s) & (div == div[shells == s].min())]
        if len(set(reach[:, 2])) > 1 and (reach[:, 1] < 0).any() and (reach[:, 1] > 0).any():
            tied.append(div[shells == s].min())
    assert len(tied) == 12 and sum(d > 0 for d in tied) == 2
    monkeypatch.setattr(fa, "_CHUNK", chunk)
    table = _DivisorTable(w)
    for q in (5, 13, Q):
        table.ensure(q)
    assert _table_state(table) == [a.tobytes() for a in shell_table(w, Q)]


@pytest.mark.parametrize("chunk", [7, 65536])
@pytest.mark.parametrize("n, q_max", [(2, 40), (3, 12), (4, 6)])
def test_stacked_table_floors_match_a_table_per_column(monkeypatch, chunk, n, q_max):
    # tie-rich columns (resonant, or with equal components: exact divisor
    # ties within a shell, and a zero floor on many shells) next to generic
    # ones; with chunks of 7 divisors every merge holds a single shell
    monkeypatch.setattr(fa, "_CHUNK", chunk)
    rng = np.random.default_rng(n)
    columns = ([w for w in _GROWTH_VECTORS if len(w) == n]
               + [(1.0,) * n, (0.5,) * (n - 1) + (0.25,)] + list(rng.uniform(-1, 1, (4, n))))
    W = np.array(columns, dtype=np.float64).T
    for tau in (1.0, 1.5, 2.75):
        floors, witnesses = _DivisorTable(W).floor(q_max, tau)
        assert floors.shape == (W.shape[1],) and witnesses.shape == (W.shape[1], n)
        for s in range(W.shape[1]):
            floor, k = _DivisorTable(W[:, s].copy()).floor(q_max, tau)
            assert floors[s].tobytes() == floor.tobytes()
            assert witnesses[s].tolist() == k.tolist()


def test_compensated_dot_columns_equal_single_vectors():
    K = np.array(half_lattice(3, 9))
    W = np.random.default_rng(5).uniform(-1, 1, (3, 6))
    W[:, 0] = (1.0, 0.25, 0.5)
    stacked = fa.compensated_dot(K, W)
    assert stacked.shape == (K.shape[0], 6)
    for s in range(6):
        assert stacked[:, s].tobytes() == fa.compensated_dot(K, W[:, s].copy()).tobytes()


def test_compensated_dot_matches_the_branchy_oracle_bytewise():
    # the TwoSum error term against the oracle's magnitude-compared one: both
    # are the exact rounding error of each step, so the divisors agree in
    # every bit, for rows up to the enumeration cap, near-ties and stacks
    rng = np.random.default_rng(1412)
    cap = fa.ENUMERATION_CAP
    for n in (2, 3, 4):
        for scale in (3, 200, cap):
            K = rng.integers(-scale, scale + 1, (4000, n))
            w = rng.uniform(-1, 1, n)
            assert np.abs(fa.compensated_dot(K, w)).tobytes() == \
                neumaier_abs_dot(K, w).tobytes()
        W = rng.uniform(-1, 1, (n, 5))
        W[:, 0] = np.r_[1.0, 0.5, 0.25, 0.125][:n]
        stacked = np.abs(fa.compensated_dot(K, W))
        for s in range(W.shape[1]):
            assert stacked[:, s].tobytes() == neumaier_abs_dot(K, W[:, s].copy()).tobytes()
    K = np.array(half_lattice(2, 60) + [(cap - 1, cap - 1), (cap // 2, 1 - cap // 2)])
    for k in range(3, 15):
        w = np.array([1.0, -1 + 10.0 ** -k])
        assert np.abs(fa.compensated_dot(K, w)).tobytes() == neumaier_abs_dot(K, w).tobytes()


def _candidate_bound(n: int, Q: int) -> int:
    """Sum over shells s <= Q of 8 rows per tail t in Z^(n-2) with |t|_1 < s,
    plus half the tails with |t|_1 = s, counted point by point."""
    norms = [sum(map(abs, t)) for t in itertools.product(range(-Q, Q + 1), repeat=n - 2)]
    return sum(8 * sum(m < s for m in norms) + sum(m == s for m in norms) // 2
               for s in range(1, Q + 1))


def _evaluated_rows(monkeypatch, w, steps) -> list[tuple[int, ...]]:
    """The rows the shell blocks yield while a table of w grows through
    `steps`, in yield order."""
    blocks, rows = fa._shell_blocks, []

    def recording_blocks(w, lo, hi):
        for block in blocks(w, lo, hi):
            rows.extend(map(tuple, block.rows.T.tolist()))
            yield block

    with monkeypatch.context() as patch:
        patch.setattr(fa, "_shell_blocks", recording_blocks)
        table = _DivisorTable(np.array(w))
        for q in steps:
            table.ensure(q)
    return rows


@pytest.mark.parametrize("w, steps", [((1.0, 0.6180339887498949), (3, 16, 17, 40)),
                                      ((1.0, 0.25, 0.5), (1, 2, 9, 12)),
                                      ((1.0, 0.3, -0.55, 0.71), (7,)),
                                      ((1.0, 0.3, -0.55, 0.71), (2, 5, 6, 7))])
def test_table_growth_enumerates_each_vector_once(monkeypatch, w, steps):
    grown, lattice = _evaluated_rows(monkeypatch, w, steps), half_lattice(len(w), steps[-1])
    assert sorted(grown) == sorted(_evaluated_rows(monkeypatch, w, steps[-1:]))
    if len(w) == 2:
        # the n=2 route evaluates at most 8 candidate rows per shell
        assert len(set(grown)) == len(grown) <= 8 * steps[-1]
        assert set(grown) <= set(lattice)
    else:
        # on each shell s, at most 8 candidate rows per tail t = (k3..kn) with
        # |t|_1 < s and every row (0, 0, t) with |t|_1 = s
        assert len(set(grown)) == len(grown) <= _candidate_bound(len(w), steps[-1])
        assert set(grown) <= set(lattice)


_CUBIC = (1.0, 0.7548776662466927, 0.5698402909980532)


@pytest.mark.parametrize("chunk", [7, 65536])
@pytest.mark.parametrize("w, steps", [
    ((1.0, 0.6180339887498949), (5, 17, 18, 400)), ((1.0, -1 + 1e-12), (1000, 1200)),
    (_CUBIC, (3, 40, 41, 60)), ((1.0, 1.0, 1.0), (2, 30)), ((1.0, 0.3, -0.55, 0.71), (5, 12)),
    (tuple(zip(_CUBIC, (1.0, 1.0, 1.0))), (3, 20))])
def test_each_shell_lands_in_exactly_one_block(monkeypatch, chunk, w, steps):
    # candidate rows with the rows (0, 0, t), whole shells (a slope of 0, or
    # of 1e-12 past Q ~ 1100) and a stack: the shells of a growth's blocks,
    # in yield order, run over lo + 1..hi once each, and every row of a
    # block's group of a shell lies on that shell
    blocks, growths = fa._shell_blocks, []

    def recording_blocks(w, lo, hi):
        shells = []
        growths.append((lo, hi, shells))
        for block in blocks(w, lo, hi):
            sizes = np.diff(np.r_[block.starts, len(block.div)])
            assert block.starts[0] == 0 and (sizes > 0).all()
            assert np.abs(block.rows).sum(axis=0).tolist() == \
                np.repeat(block.shells, sizes).tolist()
            shells.extend(block.shells.tolist())
            yield block

    monkeypatch.setattr(fa, "_CHUNK", chunk)
    monkeypatch.setattr(fa, "_shell_blocks", recording_blocks)
    table = _DivisorTable(np.array(w))
    for q in steps:
        table.ensure(q)
    assert [(lo, hi) for lo, hi, _ in growths] == list(zip((0,) + steps[:-1], steps))
    for lo, hi, shells in growths:
        assert shells == list(range(lo + 1, hi + 1))


@pytest.mark.parametrize("w, steps", [
    (_CUBIC, (200,)), (_CUBIC, (3, 200, 201, 640, 1000)),
    *((tuple(np.random.default_rng(seed).uniform(-1, 1, 3)), (300,)) for seed in (1, 2)),
    (tuple(np.random.default_rng(3).uniform(-1, 1, 4)), (30,))])
def test_screen_leaves_few_candidate_rows_per_shell(monkeypatch, w, steps):
    # without near ties only the (shell, tail) pairs whose float value comes
    # within 2 eta_s of the shell's best are made into rows: at most 16 per
    # shell besides the rows (0, 0, t), and at most 16 in all for n=3
    K = np.array(_evaluated_rows(monkeypatch, w, steps))
    shells = np.abs(K).sum(axis=1)
    candidates = np.bincount(shells[(K[:, :2] != 0).any(axis=1)], minlength=steps[-1] + 1)
    assert candidates[0] == 0 and candidates[1:].max() <= 16
    if len(w) == 3:
        assert np.bincount(shells)[1:].max() <= 16


# decimal and small-denominator rationals (random vectors showed no pair near
# the slack at these depths): on some shells a runner-up pair's smallest
# divisor ties the best pair's exactly or comes within a few ulps of it, where
# the screen's float values may order the pairs wrongly; and components of
# very different sizes, down to a subnormal one
_SLACK_VECTORS = [(1.0, 0.1, 0.3), (1.0, 0.3, 0.7), (1.0, 1 / 3, 1 / 9), (1.0, 1 / 7, 3 / 7),
                  (0.7, 1.0, 0.1), (1.0, 0.4, -0.3)]
_SIZE_VECTORS = [(1.0, 1e-9, 0.5), (1.0, 0.5, 1e-17), (1.0, 0.5, 5e-324)]
_SLACK_DEPTH = 24


@pytest.fixture(scope="module")
def slack_reference():
    """Per vector: the loop oracle's table, and per shell the gap between the
    two smallest of its pairs' smallest compensated divisors, a pair being the
    rows of one tail k3 with (k1, k2) != (0, 0)."""
    K = np.array(half_lattice(3, _SLACK_DEPTH))
    K = K[(K[:, :2] != 0).any(axis=1)]
    shells = np.abs(K).sum(axis=1)
    reference = {}
    for w in _SLACK_VECTORS + _SIZE_VECTORS:
        best = {}
        for s, k3, d in zip(shells.tolist(), K[:, 2].tolist(), neumaier_abs_dot(K, np.array(w))):
            best[s, k3] = min(best.get((s, k3), math.inf), d)
        values = {}
        for (s, _), d in best.items():
            values.setdefault(s, []).append(d)
        gaps = {s: np.diff(sorted(v))[0] for s, v in values.items() if len(v) > 1}
        reference[w] = shell_table(np.array(w), _SLACK_DEPTH), gaps
    return reference


@pytest.mark.parametrize("chunk", [7, 50, 65536])
def test_screen_keeps_the_pairs_inside_its_slack(monkeypatch, slack_reference, chunk):
    # each of _SLACK_VECTORS has a shell whose runner-up pair lies within
    # 2 eta_s = 32u s max|w| of its best pair; among them are exact ties and
    # gaps of a few ulps
    inside = [[g for s, g in slack_reference[w][1].items()
               if g <= 32 * 2.0 ** -53 * s * max(map(abs, w))] for w in _SLACK_VECTORS]
    assert all(inside)
    assert min(map(min, inside)) == 0 < max(map(max, inside))
    monkeypatch.setattr(fa, "_CHUNK", chunk)
    for w, (reference, _) in slack_reference.items():
        for steps in ((_SLACK_DEPTH,), (1, 5, 13, _SLACK_DEPTH)):
            table = _DivisorTable(np.array(w))
            for q in steps:
                table.ensure(q)
            assert _table_state(table) == [a.tobytes() for a in reference], (w, steps)


def test_n3_mu_spans_the_two_decades_a_fit_needs():
    # the cubic-field vector's Delta to eps = 1e-9 (tables to Q=2048): mu
    # falls by 2 decades, and every Delta meets its invariant; eps = 1e-10
    # would grow the table to Q=4096, which the row budget refuses
    w = FrequencyVector(_CUBIC)
    eps = [10.0 ** -e for e in range(3, 10)]
    profiles = [mu_nu(w, e) for e in eps]
    assert [p.Delta for p in profiles] == [11, 24, 48, 95, 233, 560, 1118]
    for e, p in zip(eps, profiles):
        assert check_delta_invariant(w, Fraction(1) / Fraction(e), p.Delta)
    assert math.log10(profiles[0].mu / profiles[-1].mu) >= 2
    with pytest.raises(ConstructionFailed, match="row budget"):
        mu_nu(w, 1e-10)
    assert w._table.q_built == 2048


# -- the n=2 candidate route ----------------------------------------------------------

# resonant, degenerate, swapped and negative vectors, slopes |w1 +- w2| of 1e-9,
# and the fallback vectors (1, +-1) (a zero slope), next to random ones; on
# (1, -1/7) the first smallest divisor of some shells is a tie that (0, s),
# yielded last, must lose
_N2_VECTORS = [(1.0, 0.5), (1.0, 1 / 3), (1.0, 2 / 7), (1.0, -1 / 7), (1.0, 0.0), (-0.7, 1.0),
               (0.25, -1.0), (1.0, 1 - 1e-9), (1.0, -(1 - 1e-9)), (1.0, 1.0), (1.0, -1.0),
               (1.0, -1 + 1e-12), (1.0, 0.6180339887498949)]
_N2_DEPTH = 3000


def _shell_minima(W: np.ndarray, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per shell and column of W (n, S): the smallest compensated divisor over
    the whole shell, from the oracle's rows and sum, and its first row in
    half_lattice order."""
    n, S = W.shape
    shell_min, shell_arg = np.empty((Q, S)), np.empty((Q, S, n), dtype=np.int64)
    for s in range(1, Q + 1):
        K = half_shell(n, s)
        div = neumaier_abs_dot(K, W)
        arg = np.argmin(div, axis=0)
        shell_min[s - 1], shell_arg[s - 1] = div[arg, np.arange(S)], K[arg]
    return shell_min, shell_arg


@pytest.fixture(scope="module")
def n2_reference():
    W = np.concatenate([np.array(_N2_VECTORS).T,
                        np.random.default_rng(3000).uniform(-1, 1, (2, 20))], axis=1)
    return W, _shell_minima(W, _N2_DEPTH)


@pytest.mark.parametrize("steps", [(), (7, 64)])
def test_n2_table_matches_whole_shell_minima(n2_reference, steps):
    W, (shell_min, shell_arg) = n2_reference
    for col in range(W.shape[1]):
        table = _DivisorTable(W[:, col].copy())
        for q in steps + (_N2_DEPTH,):
            table.ensure(q)
        assert table.shell_min.tobytes() == shell_min[:, col].tobytes(), W[:, col]
        assert table.shell_arg.tolist() == shell_arg[:, col].tolist(), W[:, col]


def test_n2_route_falls_back_when_a_slope_is_too_small():
    # (1, -1 + 1e-12) has slope 1e-12: candidates up to Q ~ 1100, every row after
    def rows(w, Q):
        return sum(len(b.div) for b in fa._shell_blocks(np.array(w), 0, Q))

    assert rows((1.0, -1 + 1e-12), 1000) <= 8 * 1000
    for w in ((1.0, 1.0), (1.0, -1.0), (1.0, -1 + 1e-12)):
        assert rows(w, 1200) == 1200 * 1201        # the whole half lattice
    # a stack's columns need different candidates: golden and (1, 1/4) alone
    # take the candidate route, stacked they walk whole shells
    assert rows([[1.0, 1.0], [0.6180339887498949, 0.25]], 1200) == 1200 * 1201


# -- the candidate route for n >= 3 ----------------------------------------------------

# resonant and tie-rich vectors (equal divisors on many rows of a shell, so the
# first row in enumeration order decides the witness), zero components, slopes
# |w1 + w2| of 0 and 1e-14 (whole shells from Q = 1 and Q ~ 10) and of 1e-12
# (candidate rows throughout), and random ones
_N3_VECTORS = [(1.0, 0.5, 0.25), (1.0, 1 / 3, 1 / 9), (1.0, 0.5, -0.5), (0.3, 1.0, 0.7),
               (1.0, 0.0, 0.5), (0.0, 1.0, 0.5), (1.0, 1.0, 1.0), (1.0, -1 + 1e-14, 0.3),
               (1.0, -1 + 1e-12, 0.3), (1.0, 0.7548776662466927, 0.5698402909980532)]
_N4_VECTORS = [(1.0, 0.5, 0.25, 0.125), (1.0, 0.3, -0.55, 0.71), (1.0, 0.5, -0.5, 0.5),
               (0.0, 1.0, 1 / 3, 0.25), (1.0, -1 + 1e-12, 0.3, 0.2)]
_N_DEPTH = {3: 120, 4: 30}


@pytest.fixture(scope="module", params=[3, 4])
def n_reference(request):
    n = request.param
    vectors = _N3_VECTORS if n == 3 else _N4_VECTORS
    W = np.concatenate([np.array(vectors).T,
                        np.random.default_rng(n).uniform(-1, 1, (n, 6))], axis=1)
    return W, _shell_minima(W, _N_DEPTH[n])


@pytest.mark.parametrize("steps", [(), (1, 9, 10, 47)])
def test_n3_table_matches_whole_shell_minima(n_reference, steps):
    W, (shell_min, shell_arg) = n_reference
    Q = shell_min.shape[0]
    for col in range(W.shape[1]):
        table = _DivisorTable(W[:, col].copy())
        for q in tuple(q for q in steps if q < Q) + (Q,):
            table.ensure(q)
        assert table.shell_min.tobytes() == shell_min[:, col].tobytes(), W[:, col]
        assert table.shell_arg.tolist() == shell_arg[:, col].tolist(), W[:, col]
    # and the loop oracle, prefix arrays included
    w, Q = {3: ((1.0, 0.5, 0.25), 14), 4: ((1.0, 0.5, -0.5, 0.5), 7)}[W.shape[0]]
    table = _DivisorTable(np.array(w))
    for q in tuple(q for q in steps if q < Q) + (Q,):
        table.ensure(q)
    assert _table_state(table) == [a.tobytes() for a in shell_table(np.array(w), Q)]


def test_whole_shells_beyond_the_row_budget_raise_before_enumerating(monkeypatch):
    # the budget counts the half-lattice rows of the growth times the columns
    for n, Q in ((2, 30), (3, 12), (4, 6)):
        rows = len(half_lattice(n, Q))
        monkeypatch.setattr(fa, "ROW_BUDGET", 3 * rows)
        _DivisorTable(np.ones((n, 3))).ensure(Q)
        with pytest.raises(ConstructionFailed, match="row budget"):
            _DivisorTable(np.ones((n, 4))).ensure(Q)
    # the near-tie vector takes candidate rows to Q=1024 and whole shells
    # after; a refused growth leaves the table as it was
    monkeypatch.undo()
    table = _DivisorTable(np.array([1.0, -0.999999999999]))
    table.ensure(1024)
    state = _table_state(table)
    monkeypatch.setattr(fa, "ROW_BUDGET", 2048 * 2049 - 1024 * 1025 - 1)
    with pytest.raises(ConstructionFailed, match="row budget"):
        table.ensure(2048)
    assert table.q_built == 1024 and _table_state(table) == state
    # an n=3 vector's candidate rows count 8 (2s - 1) + 1 per shell s
    table = _DivisorTable(np.array([1.0, 0.7548776662466927, 0.5698402909980532]))
    table.ensure(40)
    state = _table_state(table)
    rows = sum(8 * (2 * s - 1) + 1 for s in range(41, 81))
    assert sum(len(b.div) for b in fa._shell_blocks(table.w, 40, 80)) <= rows
    monkeypatch.setattr(fa, "ROW_BUDGET", rows - 1)
    with pytest.raises(ConstructionFailed, match="row budget"):
        table.ensure(80)
    assert table.q_built == 40 and _table_state(table) == state
    monkeypatch.setattr(fa, "ROW_BUDGET", rows)
    table.ensure(80)


def test_enumeration_cap_fits_the_n2_row_budget():
    assert 8 * fa.ENUMERATION_CAP <= fa.ROW_BUDGET


def test_delta_answers_every_depth_below_the_enumeration_cap():
    # the doubling search used to stop at 2^17: golden's Delta 131,071 was
    # answered, and 131,072 to 199,999 refused
    w = make_test_frequency("golden")
    arr = w._table.q_psi_array(fa.ENUMERATION_CAP)
    for D in (131_071, 131_072, 199_999):
        x = float(arr[D - 1])
        assert delta(w, x) == D and check_delta_invariant(w, x, D)
    with pytest.raises(ConstructionFailed, match="enumeration beyond the enumeration cap"):
        delta(w, float(arr[-1]))
    assert w._table.q_built == fa.ENUMERATION_CAP


def test_a_resonance_check_or_enumerated_floor_past_the_cap_is_refused():
    # both used to build tables past the cap
    golden = make_test_frequency("golden")
    with pytest.raises(ConstructionFailed, match="enumeration beyond the enumeration cap"):
        FrequencyVector(golden.components, q_check=300_000)
    with pytest.raises(ConstructionFailed, match="enumeration beyond the enumeration cap"):
        diophantine_check(golden, 0.1, 1.5, 400_000, method="enumerate")
    assert golden._table.q_built == 200


def test_a_refused_growth_allocates_nothing_and_leaves_the_table():
    # the n=3 table used to allocate its grown shell_min and shell_arg before
    # the refusal: 8.0 MB to Q=150,000 and 106.8 MB to Q=2*10^6
    table = _DivisorTable(np.array(_CUBIC))
    table.ensure(40)
    state = _table_state(table)
    for Q, text in ((150_000, "row budget"), (2_000_000, "enumeration cap")):
        tracemalloc.start()
        try:
            with pytest.raises(ConstructionFailed, match=text):
                table.ensure(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (Q, peak)
        assert table.q_built == 40 and _table_state(table) == state


def test_enumerated_dioph_floor_matches_whole_shells():
    lc = make_test_frequency("liouville_constant")
    shell_min, shell_arg = _shell_minima(lc.components[:, None].copy(), 2000)
    prod = shell_min[:, 0] * np.arange(1, 2001, dtype=np.float64) ** 1.5
    idx = int(np.argmin(prod))
    for gamma in (0.2, 1.0):
        rep = diophantine_check(lc, gamma, 1.5, 2000, method="enumerate")
        assert rep.margin_log10 == math.log10(prod[idx] / gamma)
        assert rep.witness == (None if rep.ok else tuple(shell_arg[idx, 0].tolist()))
    assert not rep.ok


def test_psi_table_equals_psi_per_q(golden):
    w3 = FrequencyVector([1.0, 0.7548776662466927, 0.5698402909980532])
    for w, Q in ((golden, 500), (w3, 40)):
        assert psi_table(w, Q) == [psi(w, q) for q in range(1, Q + 1)]
    assert psi_table(golden, 0) == []
    # the first failing Q' raises, with its own message
    resonant = FrequencyVector([1.0, 2 / 7], q_check=0)
    assert psi_table(resonant, 8) == [psi(resonant, q) for q in range(1, 9)]
    with pytest.raises(ResonanceDetected) as first:
        psi(resonant, 9)
    with pytest.raises(ResonanceDetected) as table:
        psi_table(resonant, 40)
    assert str(table.value) == str(first.value)
    with pytest.raises(ConstructionFailed, match="enumeration beyond"):
        psi_table(golden, fa.ENUMERATION_CAP + 1)
