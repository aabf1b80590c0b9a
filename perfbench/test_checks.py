"""Each benchmark check accepts a right answer and refuses a deliberately
wrong one; the reference routines agree with slower direct computations.

    python3 -m pytest perfbench/test_checks.py -q

Needs no kamlab: every input here is built by hand.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import checks
import reference as ref
from checks import CheckFailed

GOLDEN = np.array([1.0, (math.sqrt(5.0) - 1.0) / 2.0])


def brute_curve(w: np.ndarray, q: int) -> np.ndarray:
    pts = np.array([k for k in itertools.product(range(-q, q + 1), repeat=w.size)
                    if 0 < sum(abs(v) for v in k) <= q], dtype=np.int64)
    shells = np.abs(pts).sum(axis=1)
    per_shell = np.full(q, np.inf)
    np.minimum.at(per_shell, shells - 1, ref.neumaier_abs_dot(pts, w))
    return np.minimum.accumulate(per_shell)


# -- reference routines ------------------------------------------------------------

def test_divisor_routes_agree_with_direct_enumeration():
    rng = np.random.default_rng(7)
    w2 = np.array([1.0, rng.uniform(0.1, 0.9)])
    assert np.array_equal(ref.min_divisor_curve_n2(w2, 40), brute_curve(w2, 40))
    assert np.array_equal(ref.min_divisor_curve_ball(w2, 40), brute_curve(w2, 40))
    w3 = np.array([1.0, *rng.uniform(0.1, 0.9, size=2)])
    assert np.array_equal(ref.min_divisor_curve_ball(w3, 12), brute_curve(w3, 12))


def test_exact_delta_agrees_with_scan():
    alpha = Fraction(1, 10) + Fraction(1, 100) + Fraction(1, 10 ** 6)
    for Q in (1, 2, 5, 9, 30):
        best = min(abs(k1 + k2 * alpha) for k1 in range(-Q, Q + 1)
                   for k2 in range(-Q, Q + 1) if 0 < abs(k1) + abs(k2) <= Q)
        assert ref.exact_min_divisor(alpha, Q) == best
    x = Fraction(500)
    D = ref.exact_delta(alpha, x)
    assert D <= x * ref.exact_min_divisor(alpha, D)
    assert D + 1 > x * ref.exact_min_divisor(alpha, D + 1)


@pytest.mark.parametrize("chunk", [ref.DIOPH_CHUNK, 5])
def test_dioph_minimum_agrees_with_scan(monkeypatch, chunk):
    # with chunks of 5 rows the minimizer, k = (-3, 7), is in the second chunk
    monkeypatch.setattr(ref, "DIOPH_CHUNK", chunk)
    alpha, tau, q = Fraction(3, 7) + Fraction(1, 10 ** 5), 1.5, 60
    want = min(math.log(abs(k1 + k2 * alpha)) + tau * math.log(abs(k1) + abs(k2))
               for k1 in range(-q, q + 1) for k2 in range(-q, q + 1)
               if 0 < abs(k1) + abs(k2) <= q and k1 + k2 * alpha != 0)
    got, k = ref.dioph_min_exact_n2(alpha, tau, q)
    assert abs(got - want) < 1e-12
    assert abs(math.log(abs(k[0] + k[1] * alpha)) + tau * math.log(abs(k[0]) + abs(k[1]))
               - want) < 1e-12


def test_halton_points_are_radical_inverses():
    pts = ref.halton_ball(2, 5)
    first = 2.0 * np.array([[0.5, 1 / 3], [0.25, 2 / 3], [0.75, 1 / 9],
                            [0.125, 4 / 9], [0.625, 7 / 9]]) - 1.0
    assert np.allclose(pts, first[np.linalg.norm(first, axis=1) < 1.0][:5], atol=0)
    assert np.all(np.linalg.norm(ref.halton_ball(2, 96), axis=1) < 1.0)


def test_record_series_field_and_flow():
    # H = 0.7 I1 + 0.2 I2 + 0.3 cos(2 pi theta1) I2^2
    terms = [[[0, 0], [1, 0], 0.7, 0.0], [[0, 0], [0, 1], 0.2, 0.0],
             [[1, 0], [0, 2], 0.15, 0.0], [[-1, 0], [0, 2], 0.15, 0.0]]
    series = ref.RecordSeries({"record": "fourier_taylor_series", "n": 2, "terms": terms})
    th, I = np.array([[0.3, 0.1]]), np.array([[0.2, -0.4]])
    dI, minus_dth = series.field(th, I)
    h = 1e-6
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = h
        fd_I = (series.value(th, I + e) - series.value(th, I - e)) / (2 * h)
        fd_th = (series.value(th + e, I) - series.value(th - e, I)) / (2 * h)
        assert abs(dI[0, j] - fd_I[0]) < 1e-8
        assert abs(-minus_dth[0, j] - fd_th[0]) < 1e-8
    linear = ref.RecordSeries({"record": "fourier_taylor_series", "n": 2,
                               "terms": terms[:2]})
    th1, I1 = ref.rk4_flow(linear, th, I, 2.0, 10)
    assert np.allclose(th1, th + 2.0 * np.array([0.7, 0.2]), atol=1e-14)
    assert np.array_equal(I1, I)


# -- checks refuse wrong inputs -----------------------------------------------------

def test_psi_off_by_one_ulp_is_refused():
    curve = ref.min_divisor_curve_n2(GOLDEN, 200)
    psis, divs = 1.0 / curve, curve.copy()
    checks.psi_bitwise(psis, divs, curve)
    psis[137] = np.nextafter(psis[137], np.inf)
    with pytest.raises(CheckFailed, match="Q=138"):
        checks.psi_bitwise(psis, divs, curve)
    divs[3] = np.nextafter(divs[3], 0.0)
    with pytest.raises(CheckFailed):
        checks.psi_bitwise(1.0 / curve, divs, curve)


def test_wrong_delta_is_refused():
    curve = ref.min_divisor_curve_n2(GOLDEN, 4096)
    x = 1e4
    D = ref.delta_from_curve(curve, x)
    checks.delta_matches(D, 1.0 / D, x, curve)
    with pytest.raises(CheckFailed):
        checks.delta_matches(D + 1, 1.0 / (D + 1), x, curve)
    with pytest.raises(CheckFailed):
        checks.delta_matches(D, np.nextafter(1.0 / D, 1.0), x, curve)


def test_wrong_exact_delta_is_refused():
    alpha = Fraction(1, 10) + Fraction(1, 100) + Fraction(1, 10 ** 6)
    x = Fraction(500)
    D = ref.exact_delta(alpha, x)
    checks.exact_delta_matches(D, 1.0 / D, alpha, x)
    with pytest.raises(CheckFailed):
        checks.exact_delta_matches(D - 1, 1.0 / (D - 1), alpha, x)


class _Report:
    def __init__(self, margin_log10, ok, witness):
        self.margin_log10, self.ok, self.witness = margin_log10, ok, witness


def test_wrong_diophantine_margin_or_witness_is_refused():
    alpha, tau, gamma = Fraction(3, 7) + Fraction(1, 10 ** 5), 1.5, 0.5
    log_min, k = ref.dioph_min_exact_n2(alpha, tau, 60)
    margin = (log_min - math.log(gamma)) / math.log(10.0)
    checks.dioph_matches(_Report(margin, margin >= 0, k), alpha, log_min, gamma, tau)
    with pytest.raises(CheckFailed):
        checks.dioph_matches(_Report(margin + 1e-9, margin >= 0, k),
                             alpha, log_min, gamma, tau)
    with pytest.raises(CheckFailed):
        checks.dioph_matches(_Report(margin, margin >= 0, (k[0] + 1, k[1])),
                             alpha, log_min, gamma, tau)


def _slice(points, mu):
    margin = int(np.count_nonzero(np.linalg.norm(points, axis=1) > 1.0 - math.sqrt(mu)))
    samples = points.shape[0]
    converged = samples - margin - 1
    return {"epsilon": 1e-3, "mu": mu, "samples": samples,
            "selected": samples - margin - 1, "converged": converged,
            "complement_fraction": (samples - converged) / samples,
            "detail": {"margin_rejected": margin, "dioph_rejected": 1, "newton_failed": 0}}


def test_wrong_scan_counts_are_refused():
    points = ref.halton_ball(2, 96)
    good = _slice(points, 1.0 / 33)
    checks.scan_slice(good, points, 33)
    off = json.loads(json.dumps(good))
    off["detail"]["margin_rejected"] += 1
    off["detail"]["dioph_rejected"] -= 1
    with pytest.raises(CheckFailed, match="Halton recount"):
        checks.scan_slice(off, points, 33)
    broken = json.loads(json.dumps(good))
    broken["detail"]["newton_failed"] = 1
    with pytest.raises(CheckFailed, match="samples"):
        checks.scan_slice(broken, points, 33)
    with pytest.raises(CheckFailed, match="not 1/34"):
        checks.scan_slice(good, points, 34)


def test_wrong_fit_is_refused():
    mus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    fractions = 0.3 * mus ** 0.5
    checks.scan_fit(0.5, mus, fractions)
    with pytest.raises(CheckFailed):
        checks.scan_fit(0.5 + 1e-6, mus, fractions)
    with pytest.raises(CheckFailed, match="outside"):
        checks.scan_fit(0.7, mus, 0.3 * mus ** 0.7)


def test_stalled_newton_history_is_refused():
    checks.newton_history([1e-4, 1e-8, 1e-13], 1e-11)
    with pytest.raises(CheckFailed):
        checks.newton_history([1e-4, 1e-8, 1e-8, 1e-13], 1e-11)
    with pytest.raises(CheckFailed):
        checks.newton_history([1e-4, 1e-8, 1e-10], 1e-11)


def test_trajectory_shifted_by_1e6_is_refused():
    rng = np.random.default_rng(3)
    traj = rng.uniform(0.0, 1.0, size=(8, 2))
    checks.within("angles", traj + 1.0, traj, 1e-8, on_torus=True)
    with pytest.raises(CheckFailed):
        checks.within("angles", traj + 1e-6, traj, 1e-8, on_torus=True)
    with pytest.raises(CheckFailed):
        checks.within("actions", traj + 1e-6, traj, 1e-8)


def _artifacts():
    stamp = "0123456789abcdef"
    csv = f"# kamlab 0.1.0 config={stamp}\na,b\n1,2\n".encode()
    js = json.dumps({"x": 1, "_meta": {"tool": "kamlab 0.1.0", "config": stamp}}).encode()
    return {"t.csv": csv, "t.json": js}


def test_flipped_artifact_byte_is_refused():
    files = _artifacts()
    checks.command_artifacts("cmd", 0, files, {"t.csv", "t.json"})
    checks.identical("cmd", files, _artifacts())
    flipped = dict(files)
    data = bytearray(flipped["t.csv"])
    data[-2] ^= 0x01
    flipped["t.csv"] = bytes(data)
    with pytest.raises(CheckFailed, match="differ"):
        checks.identical("cmd", flipped, _artifacts())
    with pytest.raises(CheckFailed):
        checks.command_artifacts("cmd", 1, files, {"t.csv", "t.json"})
    with pytest.raises(CheckFailed):
        checks.command_artifacts("cmd", 0, files, {"t.csv"})
    unstamped = dict(files, **{"t.csv": b"a,b\n1,2\n"})
    with pytest.raises(CheckFailed, match="stamp"):
        checks.command_artifacts("cmd", 0, unstamped, {"t.csv", "t.json"})


def test_error_command_needs_code_2_and_only_error_json():
    checks.error_record_only("bad", 2, {"error.json": b"{}"})
    with pytest.raises(CheckFailed, match="exit code 1"):
        checks.error_record_only("bad", 1, {})
    with pytest.raises(CheckFailed, match="only error.json"):
        checks.error_record_only("bad", 2, {"error.json": b"{}", "psi_table.csv": b""})


def test_psi_csv_off_by_one_ulp_is_refused():
    curve = ref.min_divisor_curve_n2(GOLDEN, 60)
    div = [float(d) for d in curve]
    rows = [f"{q},{1.0 / div[q - 1]!r},{div[q - 1]!r},0;1" for q in range(1, 61)]
    text = "# kamlab 0.1.0 config=0123456789abcdef\nQ,psi,min_divisor,argmin_k\n"
    checks.psi_csv((text + "\n".join(rows) + "\n").encode(), curve)
    bad = list(rows)
    bad[41] = f"42,{float(np.nextafter(1.0 / div[41], 0.0))!r},{div[41]!r},0;1"
    with pytest.raises(CheckFailed, match="Q=42"):
        checks.psi_csv((text + "\n".join(bad) + "\n").encode(), curve)
