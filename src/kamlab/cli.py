"""Batch driver: freq / nf / torus / scan / probe subcommands over JSON
configs, emitting CSV tables and JSON records.

Every artifact starts with (or embeds) a header carrying the tool version
and a hash of the configuration: the command name and every option, with
each input file as the JSON that was parsed and --out left out.  Each input
file is read once.  Numeric cells are written in round-trip precision, and
runs are deterministic end to end: the same inputs give byte-identical
outputs.  On any failure, of reading or of the command, the partial artifacts
are removed and a machine-readable `error.json` is written with exit status 2.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import freq_arith as fa
from . import measure_scan as ms
from .errors import InsufficientSpan, KamlabError
from .fourier_taylor import (
    FLOW_STEP_BUDGET,
    PHYSICAL,
    HamiltonianSpec,
    flow_steps,
    integrate_flow,
)
from .freq_arith import FrequencyVector
from .normal_form import one_step_normal_form, prepare_time_scaled, verify_estimates
from .records import check_record, whole
from .torus_solver import check_grid, solve_torus, verify_by_integration


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _stamped(path: Path) -> bool:
    """Whether the file at `path` carries kamlab's stamp: a JSON record with
    `_meta.tool`, or a CSV table under the `# kamlab` header."""
    try:
        with open(path) as fh:
            if path.suffix == ".csv":
                return fh.readline().startswith("# kamlab ")
            meta = json.load(fh).get("_meta")
    except (OSError, UnicodeDecodeError, ValueError, AttributeError):
        return False
    return isinstance(meta, dict) and str(meta.get("tool", "")).startswith("kamlab ")


class _Sink:
    """Artifact writer: atomic, stamped, and removable as a group.  The output
    directory is made on the first write.  `names` are every artifact the
    command can write besides error.json, and the only ones it may write; a
    stale one an earlier run left is removed if it carries the stamp and is
    none of the `inputs`."""

    def __init__(self, out_dir: str, cfg_hash: str, names: tuple, inputs: set):
        self.dir = Path(out_dir)
        self.cfg_hash = cfg_hash
        self.names = names + ("error.json",)
        self.inputs = inputs
        self.written: list[Path] = []

    @property
    def stamp(self) -> str:
        return f"kamlab {__version__} config={self.cfg_hash}"

    def _commit(self, name: str, text: str) -> Path:
        if name not in self.names:
            raise ValueError(f"{name} is not among the command's artifacts {self.names}")
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(text)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
        self.written.append(path)
        return path

    def write_json(self, name: str, obj: dict) -> Path:
        body = dict(obj)
        body["_meta"] = {"tool": f"kamlab {__version__}", "config": self.cfg_hash}
        return self._commit(name, json.dumps(body, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name: str, columns: list, rows: list) -> Path:
        lines = [f"# {self.stamp}", ",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        return self._commit(name, "\n".join(lines) + "\n")

    def remove_stale(self):
        """Remove what an earlier run left beside this run's artifacts: an
        artifact of the command, or error.json, that this run did not write."""
        for path in (self.dir / name for name in self.names):
            if path.is_file() and path not in self.written \
                    and path.resolve() not in self.inputs and _stamped(path):
                path.unlink(missing_ok=True)

    def discard(self):
        """Remove this run's artifacts and the stale ones."""
        self.remove_stale()
        for path in self.written:
            path.unlink(missing_ok=True)
        self.written.clear()


def _load_record(path: str):
    """Read the JSON file at `path` once.  Returns the record and `parse`,
    which runs a parser on it, turning a missing field or a value of the
    wrong type or size into a ValueError.  A missing field is named; for a
    bad value the message names the last field the parser read, which the
    record's objects note as they are indexed."""
    read = []

    class Fields(dict):
        def __getitem__(self, key):
            read.append(key)
            return dict.__getitem__(self, key)

    try:
        with open(path) as fh:
            record = json.load(fh, object_hook=Fields)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc

    def parse(parser):
        try:
            return parser(record)
        except KeyError as exc:
            raise ValueError(f"{path}: record lacks the field {exc.args[0]!r}") from exc
        except (TypeError, AttributeError, IndexError, OverflowError) as exc:
            where = f" at or after the field {read[-1]!r}" if read else ""
            raise ValueError(f"{path}: malformed record{where}: {exc}") from exc

    return record, parse


def _frequency(rec: dict) -> FrequencyVector:
    """A frequency record, or with a name the shorthand for a built-in vector,
    of kind "frequency_named" whether or not it says so."""
    if "name" not in rec:
        return FrequencyVector.from_record(rec)
    check_record({"record": "frequency_named", **rec}, "frequency_named", ("name", "n", "tau"))
    return fa.make_test_frequency(rec["name"], **{k: rec[k] for k in ("n", "tau") if k in rec})


# the parser of each input-file option, by option name; the methods are
# looked up per call, so a parser patched on its class is the one that runs
_PARSERS = {"omega": _frequency,
            "spec": lambda rec: HamiltonianSpec.from_record(rec),
            "plan": lambda rec: ms.ScanPlan.from_record(rec)}


def _action(i0: str | None, n: int) -> np.ndarray:
    """The comma-separated --i0 as an action of n components; absent, zero."""
    act = np.zeros(n) if i0 is None else np.array([float(v) for v in i0.split(",")])
    if act.size != n:
        raise ValueError(f"--i0 needs {n} components, got {act.size}")
    return act


@click.group()
@click.version_option(version=__version__, prog_name="kamlab")
def main():
    """Small-divisor arithmetic, normal forms, torus continuation, scans."""


def _command(*names):
    """Register `fn(sink, **options)`, which writes artifacts among `names`,
    as a subcommand with an --out option.

    `options` are the options click parsed, less --out, with each input file
    (an option named in _PARSERS) read once and parsed.  The config hash
    covers the command name and every option, each input as the JSON read,
    so identical inputs stamp identical artifacts.  A run leaves in --out
    either its own artifacts or only error.json: a success removes a stale
    error.json and the command's artifacts it did not write.  Any failure
    (a pipeline or Python error, an unwritable output) removes the command's
    artifacts and keeps error.json, stamped `unresolved` if an input could not
    be read and written if it can be; the exit status is 2.  A stale file is
    removed only if it carries kamlab's stamp and is not one of the run's inputs.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(out, **options):
            sink = None
            given = {Path(path).resolve() for key, path in options.items()
                     if key in _PARSERS and path is not None}
            try:
                inputs = {key: _load_record(path) for key, path in options.items()
                          if key in _PARSERS and path is not None}
                config = {**options, **{key: rec for key, (rec, _) in inputs.items()}}
                sink = _Sink(out, _config_hash({"cmd": fn.__name__, **config}),
                             names, given)
                parsed = {key: parse(_PARSERS[key]) for key, (_, parse) in inputs.items()}
                fn(sink, **{**options, **parsed})
                sink.remove_stale()
            except Exception as exc:
                sink = sink or _Sink(out, "unresolved", names, given)
                try:
                    sink.discard()
                    sink.write_json("error.json",
                                    {"record": "error", **KamlabError.as_record(exc)})
                except OSError:
                    pass        # --out cannot take error.json either; stderr reports it
                click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
                raise SystemExit(2)
            for path in sink.written:
                click.echo(str(path))

        out = click.option("--out", default=".", show_default=True, type=click.Path())
        return main.command()(out(run))
    return register


@_command("psi_table.csv", "profile_table.csv")
@click.option("--omega", required=True, type=click.Path(),
              help="frequency record, or {\"name\": ...} for a built-in")
@click.option("--qmax", default=50, show_default=True, help="table depth")
@click.option("--eps", multiple=True, type=float,
              help="epsilon values for the profile table (repeatable)")
@click.option("--alpha", default=None, type=float,
              help="regularity index attaching the nu column")
@click.option("--cbar", default=None, type=float, help="nu rate constant")
def freq(sink, omega, qmax, eps, alpha, cbar):
    """Tabulate the reciprocal smallest divisor and the smallness scales."""
    records = fa.psi_table(omega, whole(qmax, "--qmax", least=1))
    rows = [(r.Q, r.psi, r.min_divisor,
             ";".join(str(v) for v in r.argmin_k)) for r in records]
    sink.write_csv("psi_table.csv", ["Q", "psi", "min_divisor", "argmin_k"], rows)
    if eps:
        cols = ["eps", "Delta", "mu"] + (["nu"] if alpha is not None else [])
        prows = []
        for e in eps:
            prof = fa.mu_nu(omega, e, alpha=alpha, c_bar=cbar)
            row = [e, prof.Delta, prof.mu]
            if alpha is not None:
                row.append(prof.nu)
            prows.append(row)
        sink.write_csv("profile_table.csv", cols, prows)


@_command("normal_form.json", "estimates.json")
@click.option("--spec", required=True, type=click.Path())
@click.option("--eps", default=None, type=float,
              help="override the template epsilon")
@click.option("--c", default=1.0, show_default=True,
              help="truncation constant in Delta(c/eps)")
@click.option("--omega", default=None, type=click.Path(),
              help="frequency record; defaults to the spec components")
@click.option("--alpha", default=None, type=float)
@click.option("--cbar", default=None, type=float)
def nf(sink, spec, eps, c, omega, alpha, cbar):
    """One normal-form step plus its independent estimate checks."""
    if eps is not None:
        # a scaled spec's coefficients and prefactor carry its own epsilon
        if spec.state != PHYSICAL:
            raise ValueError(f"--eps overrides the epsilon of a {PHYSICAL!r} spec only; "
                             f"this spec is in state {spec.state!r}")
        spec = replace(spec, epsilon=eps)
    freq_vec = FrequencyVector(spec.omega) if omega is None else omega
    result = one_step_normal_form(prepare_time_scaled(spec), freq_vec, c=c,
                                  gevrey_alpha=alpha, gevrey_c_bar=cbar)
    sink.write_json("normal_form.json", result.to_record())
    sink.write_json("estimates.json",
                    {"record": "nf_estimates", **verify_estimates(result)})


@_command("torus.json", "torus_surface.csv", "verification.json")
@click.option("--spec", required=True, type=click.Path())
@click.option("--i0", required=True, help="target action, comma-separated")
@click.option("--gamma", default=None, type=float,
              help="Diophantine constant; omitted means auto-calibrated")
@click.option("--tau", default=1.5, show_default=True, type=float)
@click.option("--tol", default=1e-11, show_default=True, type=float)
@click.option("--grid", default=64, show_default=True, type=int)
@click.option("--t-final", default=1e3, show_default=True, type=float,
              help="integration-verification horizon")
def torus(sink, spec, i0, gamma, tau, tol, grid, t_final):
    """Continue the invariant torus at a target action and verify it."""
    I_target = _action(i0, spec.n)
    # a horizon the verification cannot step, or a grid beyond the budget,
    # is refused before the solve
    step = 1e-2
    flow_steps(t_final, step)
    check_grid(grid, spec.n)
    # non-resonance guard on the base frequency, depth = solve grid
    FrequencyVector(spec.omega, q_check=grid)
    h3 = prepare_time_scaled(spec)
    emb = solve_torus(h3, I_target, gamma=gamma, tau=tau, grid=grid, tol=tol)
    sink.write_json("torus.json", emb.to_record())
    phis = emb.grid_phis()
    theta, act = emb.grid_points()
    n = emb.n
    cols = ([f"phi_{j + 1}" for j in range(n)]
            + [f"theta_{j + 1}" for j in range(n)]
            + [f"I_{j + 1}" for j in range(n)])
    rows = [tuple(map(float, np.concatenate(triple)))
            for triple in zip(phis, theta, act)]
    sink.write_csv("torus_surface.csv", cols, rows)
    report = verify_by_integration(h3, emb, t_final=t_final, step=step,
                                   method="dop853")
    sink.write_json("verification.json",
                    {"record": "torus_verification", **report})


@_command("scan_reports.csv", "scan_fit.json", "gevrey_forecast.csv")
@click.option("--plan", required=True, type=click.Path())
def scan(sink, plan):
    """Run the measure sweep of a plan and fit the complement scaling."""
    reports = ms.run_plan(plan)
    rows = [(r.epsilon, r.mu, r.gamma_used, r.tau_used, r.samples,
             r.selected, r.converged, r.complement_fraction, r.wall_time)
            for r in reports]
    sink.write_csv("scan_reports.csv",
                   ["eps", "mu", "gamma", "tau", "samples", "selected",
                    "converged", "complement_fraction", "wall_time"], rows)
    try:
        fit = ms.fit_scaling(reports)
        sink.write_json("scan_fit.json", fit.to_record())
    except InsufficientSpan as exc:
        # the sweep itself succeeded; record why the fit is absent
        sink.write_json("scan_fit.json",
                        {"record": "fit_skipped", "reason": str(exc)})
    if plan.gevrey_alpha is not None:
        frows = ms.gevrey_forecast(plan.freq, plan.epsilons, c=plan.c,
                                   alpha=plan.gevrey_alpha,
                                   c_bar=plan.gevrey_c_bar)
        sink.write_csv("gevrey_forecast.csv",
                       ["eps", "mu", "nu", "sqrt_mu", "predicted_complement"],
                       [(f["eps"], f["mu"], f["nu"], f["sqrt_mu"],
                         f["predicted_complement"]) for f in frows])


@_command("probe_trajectories.csv", "probe_summary.json")
@click.option("--spec", required=True, type=click.Path())
@click.option("--t", required=True, type=float, help="flow horizon")
@click.option("--h", required=True, type=float, help="midpoint step")
@click.option("--i0", default=None, help="start action, comma-separated (default 0)")
@click.option("--points", default=4, show_default=True,
              help="number of trajectories, staggered start angles")
def probe(sink, spec, t, h, i0, points):
    """Integrate trajectories and report drift diagnostics."""
    n = spec.n
    act0 = _action(i0, n)
    steps = flow_steps(t, h)
    # at most what the torus command's verification may take: 8 trajectories
    # of FLOW_STEP_BUDGET steps
    if whole(points, "--points", least=1) * steps > 8 * FLOW_STEP_BUDGET:
        raise ValueError(f"--points {points} at {steps} steps takes {points * steps} "
                         f"trajectory steps, beyond the budget of {8 * FLOW_STEP_BUDGET}")
    every = max(1, steps // 256)
    theta0 = np.repeat((np.arange(points) + 0.5)[:, None] / points, n, axis=1)
    flow = integrate_flow(spec.combined_series(), theta0, np.tile(act0, (points, 1)),
                          t, h, record_every=every)
    rows = []
    summary = []
    for p in range(points):
        energies = flow.energies[:, p]
        for time, th, act, en in zip(flow.times, flow.thetas[:, p],
                                     flow.actions[:, p], energies):
            rows.append((p, float(time), *map(float, th),
                         *map(float, act), float(en)))
        summary.append({
            "trajectory": p,
            "energy_drift": float(np.max(np.abs(energies - energies[0]))),
            "max_action_deviation":
                float(np.max(np.abs(flow.actions[:, p] - act0[None, :]))),
            "rotation_estimate":
                [float(v) for v in (flow.thetas[-1, p] - theta0[p]) / t],
        })
    cols = (["traj", "t"] + [f"theta_{j + 1}" for j in range(n)]
            + [f"I_{j + 1}" for j in range(n)] + ["energy"])
    sink.write_csv("probe_trajectories.csv", cols, rows)
    sink.write_json("probe_summary.json",
                    {"record": "probe_summary", "trajectories": summary})


if __name__ == "__main__":
    main()
