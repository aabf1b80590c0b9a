"""Checks of kamlab's outputs against the reference computations.

Every check takes plain data and raises CheckFailed with the measured
numbers when the output is wrong, so each can be fed a deliberately wrong
input in the tests.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

import reference as ref


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- arithmetic ----------------------------------------------------------------

def psi_bitwise(psis, min_divisors, curve: np.ndarray) -> None:
    """psi(Q) and the smallest divisor for Q = 1..len equal the reference bit
    for bit."""
    psis = np.asarray(psis, dtype=np.float64)
    divs = np.asarray(min_divisors, dtype=np.float64)
    require(psis.size <= curve.size, f"table of {psis.size} rows exceeds the reference")
    want = curve[:psis.size]
    bad = np.nonzero((divs != want) | (psis != 1.0 / want))[0]
    require(bad.size == 0,
            f"{bad.size} of {psis.size} rows differ from the brute force; first at "
            f"Q={bad[0] + 1 if bad.size else 0}")


def delta_matches(D: int, mu: float, x: float, curve: np.ndarray) -> None:
    """Delta brackets x under the reference psi and mu == 1/Delta."""
    want = ref.delta_from_curve(curve, x)
    require(D == want, f"Delta {D} at x={x!r}, brute force gives {want}")
    require(ref.delta_bracket_holds(curve, x, D),
            f"D psi(D) <= x < (D+1) psi(D+1) fails at D={D}, x={x!r}")
    require(mu == 1.0 / D, f"mu {mu!r} is not 1/{D}")


def exact_delta_matches(D: int, mu: float, alpha: Fraction, x: Fraction) -> None:
    want = ref.exact_delta(alpha, x)
    require(D == want, f"exact Delta differs from the convergent computation "
                       f"({D} against {want})")
    e_here = ref.exact_min_divisor(alpha, D)
    require(D <= x * e_here, f"D psi(D) <= x fails at D={D}")
    e_next = ref.exact_min_divisor(alpha, D + 1)
    require(e_next == 0 or D + 1 > x * e_next, f"(D+1) psi(D+1) > x fails at D={D}")
    require(mu == 1.0 / D, f"mu {mu!r} is not 1/{D}")


def dioph_matches(report, alpha: Fraction, log_min: float, gamma: float,
                  tau: float) -> None:
    """A Diophantine report agrees with the exact minimum of |k.w| |k|^tau,
    and a failing report's witness reaches that minimum."""
    want = (log_min - math.log(gamma)) / math.log(10.0)
    require(abs(report.margin_log10 - want) <= 1e-12 * max(1.0, abs(want)),
            f"margin_log10 {report.margin_log10!r}, exact minimum gives {want!r}")
    require(report.ok == (want >= 0), f"ok={report.ok} with margin {want!r}")
    if not report.ok:
        k1, k2 = report.witness
        divisor = abs(k1 + k2 * alpha)
        require(divisor > 0, f"witness {report.witness} is an exact resonance")
        got = (math.log(divisor.numerator) - math.log(divisor.denominator)
               + tau * math.log(abs(k1) + abs(k2)))
        require(abs(got - log_min) <= 1e-12 * max(1.0, abs(log_min)),
                f"witness {report.witness} gives {got!r}, minimum is {log_min!r}")


# -- scan ------------------------------------------------------------------------

def scan_slice(rec: dict, points: np.ndarray, D: int) -> None:
    """One measure_report record: counting identity, margin rejections
    recounted from the Halton points, mu == 1/Delta."""
    d = rec["detail"]
    parts = d["margin_rejected"] + d["dioph_rejected"] + d["newton_failed"] + rec["converged"]
    require(parts == rec["samples"],
            f"eps={rec['epsilon']}: margin+dioph+newton+converged = {parts}, "
            f"samples = {rec['samples']}")
    require(rec["selected"] == rec["samples"] - d["margin_rejected"] - d["dioph_rejected"],
            f"eps={rec['epsilon']}: selected {rec['selected']} breaks the identity")
    require(rec["mu"] == 1.0 / D, f"eps={rec['epsilon']}: mu {rec['mu']!r} is not 1/{D}")
    radii = np.linalg.norm(points[:rec["samples"]], axis=1)
    margin = np.count_nonzero(radii > 1.0 - math.sqrt(rec["mu"]))
    require(d["margin_rejected"] == margin,
            f"eps={rec['epsilon']}: margin_rejected {d['margin_rejected']}, "
            f"Halton recount {margin}")
    require(rec["complement_fraction"] == (rec["samples"] - rec["converged"]) / rec["samples"],
            f"eps={rec['epsilon']}: complement fraction disagrees with the counts")


def scan_fit(exponent: float, mus, fractions) -> None:
    want = ref.fit_slope(np.log(mus), np.log(fractions))
    require(abs(exponent - want) <= 1e-9, f"exponent {exponent!r}, least squares {want!r}")
    require(0.4 <= exponent <= 0.6, f"exponent {exponent:.4f} outside [0.4, 0.6]")


# -- torus -------------------------------------------------------------------------

def newton_history(history, tol: float) -> None:
    require(len(history) >= 1, "empty Newton history")
    require(all(b < a for a, b in zip(history, history[1:])),
            f"Newton defects do not decrease: {history}")
    require(history[-1] <= tol, f"final defect {history[-1]:.3e} above tol {tol:g}")


def within(name: str, got: np.ndarray, want: np.ndarray, tol: float,
           on_torus: bool = False) -> None:
    """sup |got - want| <= tol; angle differences taken modulo 1."""
    diff = np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64)
    if on_torus:
        diff -= np.round(diff)
    err = float(np.max(np.abs(diff)))
    require(err <= tol, f"{name}: deviation {err:.3e} above {tol:g}")


# -- cli ---------------------------------------------------------------------------

_CSV_STAMP = re.compile(r"^# kamlab (\S+) config=([0-9a-f]{16})$")


def stamp_of(name: str, data: bytes) -> str:
    """The config hash an artifact carries; CheckFailed if unstamped."""
    text = data.decode()
    if name.endswith(".csv"):
        match = _CSV_STAMP.match(text.split("\n", 1)[0])
        require(match is not None, f"{name}: first line is not a kamlab stamp")
        return match.group(2)
    meta = json.loads(text).get("_meta", {})
    require(str(meta.get("tool", "")).startswith("kamlab ")
            and re.fullmatch(r"[0-9a-f]{16}", str(meta.get("config", ""))) is not None,
            f"{name}: no kamlab stamp under _meta")
    return meta["config"]


def command_artifacts(cmd: str, exit_code: int, files: dict, expected: set) -> None:
    """A command exited 0, wrote exactly the expected files, and stamped them
    all with one config hash."""
    require(exit_code == 0, f"{cmd}: exit code {exit_code}")
    require(set(files) == expected, f"{cmd}: wrote {sorted(files)}, expected {sorted(expected)}")
    hashes = {stamp_of(name, data) for name, data in files.items()}
    require(len(hashes) == 1, f"{cmd}: artifacts carry {len(hashes)} config hashes")


def identical(cmd: str, files: dict, first: dict) -> None:
    differ = sorted(name for name in first if files.get(name) != first[name])
    require(set(files) == set(first) and not differ,
            f"{cmd}: {len(differ)} artifacts differ from the first pass: {differ}")


def error_record_only(cmd: str, exit_code: int, files: dict) -> None:
    require(exit_code == 2, f"{cmd}: exit code {exit_code}, expected 2")
    require(set(files) == {"error.json"},
            f"{cmd}: left {sorted(files)}, expected only error.json")


def psi_csv(data: bytes, curve: np.ndarray) -> None:
    """psi_table.csv rows equal the reference psi and divisors bit for bit."""
    lines = data.decode().splitlines()
    require(len(lines) >= 3 and lines[1] == "Q,psi,min_divisor,argmin_k",
            "psi_table.csv has no rows")
    rows = [line.split(",") for line in lines[2:]]
    require([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)),
            "psi_table.csv rows are not Q = 1..qmax")
    psi_bitwise([float(r[1]) for r in rows], [float(r[2]) for r in rows], curve)
