"""Benchmark of the kamlab pipeline: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

kamlab is imported from the `src/` beside this directory, never
from an installed copy.  The run builds the workload's input records
(set-up), computes the reference values its checks need, then runs whole
passes back to back, at least two, for about S seconds (a pass starts only
if it should end within half a pass of the deadline).  S defaults to
run_seconds of BENCHMARK.json.  Every pass makes the same operations, so the
share that fails does not depend on the seed or the run length.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, starting and ending with an untraced one, and reports the
per-layer metrics of the traced ones, the tracing overhead (the median over
traced passes of the traced time minus the next untraced one), and writes the
spans to .perfbench_run/trace-NAME.jsonl.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, Pass

MIN_PASSES = 2
# untraced, traced, untraced: the first pass pays first-call costs, so each
# traced pass is compared with the untraced pass after it
MIN_TRACED_PASSES = 3


def process_age() -> float | None:
    """Seconds since this process started, from /proc (10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def machine_record() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def import_kamlab(root: Path, with_cli: bool):
    src = root / "src"
    if not (src / "kamlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no kamlab package; run from a checkout root")
    sys.path.insert(0, str(src))
    import kamlab
    if with_cli:
        import kamlab.cli  # noqa: F401  (binds kamlab.cli)
    if Path(kamlab.__file__).resolve().parent != (src / "kamlab").resolve():
        raise SystemExit(f"error: imported kamlab from {kamlab.__file__}, not {src}")
    return kamlab


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    age = process_age()
    t_main = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    kamlab = import_kamlab(root, with_cli=args.workload == "cli-artifacts")
    state = root / ".perfbench_run"
    run_dir = state / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    workload = WORKLOADS[args.workload](kamlab, args.seed, run_dir)
    records = workload.build_records()
    # process start to the inputs built, first-call costs included; the
    # reference values prepare() computes for the checks are not set-up
    setup_s = (age if age is not None else 0.0) + (time.perf_counter() - t_main)
    workload.prepare(records)

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    lengths = []          # wall time of each pass, checks included
    t_loop = time.perf_counter()
    least = MIN_PASSES if tracer is None else MIN_TRACED_PASSES
    # a pass starts only if it should end within half a pass of the deadline;
    # a traced run ends with an untraced pass
    while len(passes) < least or (tracer is not None and len(passes) % 2 == 0) or (
            time.perf_counter() - t_loop + 0.5 * median(lengths) < args.seconds):
        t_pass = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        p = Pass(len(passes), tracer if traced else None)
        if traced:
            tracer.pass_id = p.index
            tracer.install(kamlab)
        try:
            workload.run_pass(p)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(p)
        lengths.append(time.perf_counter() - t_pass)
    shutil.rmtree(run_dir, ignore_errors=True)

    plain = [p for p in passes if p.tracer is None]
    traced_passes = [p for p in passes if p.tracer is not None]
    attempted = sum(p.attempted for p in passes)
    failures = [(p.index, name, msg) for p in passes for name, msg in p.failures]
    correct = all(name in workload.known_faults for _, name, _ in failures)
    summary = workload.summary(plain)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({len(traced_passes)} traced) in {time.perf_counter() - t_loop:.1f} s")
    print("pass seconds: " + " ".join(
        f"{p.seconds:.3f}{'T' if p.tracer is not None else ''}" for p in passes))
    print("machine " + json.dumps(machine_record()))
    print(f"operations: {attempted} attempted, {len(failures)} failed "
          f"({len(failures) // len(passes)} per pass of {passes[0].attempted})")
    for name in dict.fromkeys(name for _, name, _ in failures):
        msg = next(m for _, n, m in failures if n == name)
        known = " [known fault]" if name in workload.known_faults else ""
        print(f"  failed{known}: {name}: {msg}")

    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (median([p.seconds for p in plain]), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        shown = {**metrics, **summary}
    else:
        metrics = per_layer(tracer, traced_passes, plain, summary)
        tracer.write(state / f"trace-{args.workload}.jsonl")
        shown = metrics
        print_layer_table(metrics)
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


# units of the per-pass profile figures; the rest are seconds
UNITS = {"calls": "count", "compiles": "count", "point_evals": "count",
         "batch_evals": "count", "steps": "count", "certifies": "count",
         "solves": "count", "newton_sweeps": "count", "samples": "count",
         "converged": "count", "lie_order": "order", "converged_ratio": "ratio",
         "newton_yield": "ratio", "point_eval_us": "us",
         "batch_eval_ns_per_point": "ns/point", "verify_periods_per_s": "periods/s"}


def per_layer(tracer, traced: list, plain: list, summary: dict) -> dict:
    """Median over traced passes of each per-layer figure, with units."""
    profiles = [tracing.pass_profile(tracer.spans, p.index, p.seconds) for p in traced]
    out = {}
    for key in profiles[0]:
        unit = UNITS.get(key.split(".", 1)[1], "s")
        out[key] = (median([prof[key] for prof in profiles]), unit)
    stats = [p.stats for p in traced]
    out["cli.artifacts"] = (median([s.get("artifacts", 0) for s in stats]), "count")
    out["cli.artifact_bytes"] = (median([s.get("artifact_bytes", 0) for s in stats]), "bytes")
    for name, unit in (("scan_samples_per_s", "samples/s"), ("torus_to_verified_s", "s")):
        out[name] = summary.get(name, (0.0, unit))
    # each traced pass against the untraced pass right after it, so drift
    # over the run cancels
    after = {p.index: p.seconds for p in plain}
    diffs = [p.seconds - after[p.index + 1] for p in traced]
    shares = [(p.seconds - after[p.index + 1]) / after[p.index + 1] for p in traced]
    out["trace.wall_s"] = (median([p.seconds for p in traced]), "s")
    out["trace.overhead_s"] = (median(diffs), "s")
    out["trace.overhead_share"] = (median(shares), "ratio")
    return out


def print_layer_table(metrics: dict) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"per-layer self time of the median traced pass ({wall:.3f} s):")
    total = 0.0
    for layer in tracing.LAYERS + ("bench",):
        value = metrics[f"{layer}.self_s"][0]
        total += value
        print(f"  {layer:<15} {value:9.4f} s  {100 * value / wall:6.2f} %")
    print(f"  {'sum':<15} {total:9.4f} s  {100 * total / wall:6.2f} %  "
          f"(tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s, "
          f"{100 * metrics['trace.overhead_share'][0]:+.2f} %)")


if __name__ == "__main__":
    sys.exit(main())
