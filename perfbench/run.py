"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_survey --seed 20040722 \\
        --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  The loop is
closed: iterations run back to back until ``--seconds`` have passed (at
least one, or two with ``--trace 1``).  ``--trace 0`` times untraced
iterations and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations, reports the per-layer metrics of the
traced ones (times as medians over them) and writes every span as Chrome
trace-event JSON under ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "survey_names_per_s": "names/s",
    "epoch_s_p50": "s",
    "churn_epochs_per_s": "1/s",
    "stored_kb": "KiB",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}
#: Set-up samples a ``--trace 0`` run takes at least (extra set-ups are
#: timed and discarded when fewer iterations fit in ``--seconds``).
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_survey", "churn_store",
                                 "socket_survey"))
    parser.add_argument("--seed", type=int, default=20040722,
                        help="world seed of cold_survey and socket_survey "
                             "(held out: 20040723)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--churn-seed", type=int, default=7,
                        help="churn_store event seed (held out: 11)")
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def emit(metrics, units, correct, attempted, failed) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads
    from repro.core import atomic
    from tracer import Tracer

    atomic.set_fsync(True)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.churn_seed, workdir)
    started_at = datetime.datetime.now(datetime.timezone.utc)
    run_id = f"{args.workload}-{args.seed}-{started_at:%Y%m%dT%H%M%S}"
    tracer = Tracer(run_id) if args.trace else None

    iterations = []
    traced_layers = []
    untraced_walls = []
    setups = []
    error = None
    deadline = time.perf_counter() + args.seconds
    minimum = 2 if tracer is not None else 1
    try:
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            if traced:
                first_span = len(tracer.spans)
                layers.install(tracer)
            work_started = time.perf_counter()
            try:
                if traced:
                    with tracer.span("bench.iteration"):
                        iteration = workload.work(index)
                else:
                    iteration = workload.work(index)
            finally:
                if traced:
                    tracer.unwrap_all()
            iteration.wall_s = time.perf_counter() - work_started
            workload.check(index, iteration)
            print(f"iteration {index}{' traced' if traced else ''}: "
                  f"setup {iteration.setup_s:.3f}s, {iteration.names} names "
                  f"in {iteration.survey_s:.3f}s, {len(iteration.cycles_s)} "
                  f"cycles in {sum(iteration.cycles_s):.3f}s, wall "
                  f"{iteration.wall_s:.3f}s", flush=True)
            iterations.append(iteration)
            setups.append(iteration.setup_s)
            if traced:
                traced_layers.append(layers.iteration_layers(
                    tracer, tracer.spans[first_span:], iteration.counters))
            else:
                untraced_walls.append(iteration.wall_s)
            index += 1
            if index >= minimum and time.perf_counter() >= deadline:
                break
        if tracer is None:
            while len(setups) < SETUP_SAMPLES:
                setups.append(workload.setup_only())
        workload.finish()
    except Exception:  # a program failure: report it as failed work
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = workload.checks
    if tracer is not None:
        metrics = traced_metrics(workload, traced_layers, untraced_walls)
        units = layers.per_layer_units()
    attempted = sum(iteration.ops for iteration in iterations) + \
        checks.attempted
    failed = len(checks.failed)
    if error is not None:
        # The iteration that raised attempted its names and produced none.
        attempted += max(workload.world_names, 1)
        failed += max(workload.world_names, 1)
    for problem in checks.failed:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end_metrics(iterations, setups, attempted, failed)
        units = END_TO_END

    provenance = {
        "run_id": run_id, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "timestamp": started_at.isoformat(), "workload": args.workload,
        "why": workloads.WHY[args.workload], "seed": args.seed,
        "world_names": workload.world_names,
        "world_servers": workload.world_servers,
        "parameters": workloads.parameters(args.workload, args.seed,
                                           args.churn_seed),
        "seconds": args.seconds, "trace": args.trace,
        "iterations": len(iterations), "setups": len(setups),
        "traced_iterations": len(traced_layers),
        "counters": iterations[0].counters if iterations else {},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if tracer is not None:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace(provenance)))
        print(f"{len(tracer.spans)} spans written to "
              f"{trace_path.relative_to(ROOT)}")
    emit(metrics, units, error is None and not checks.failed,
         attempted, failed)
    return 0


def end_to_end_metrics(iterations, setups, attempted, failed):
    """The user-visible metrics of an untraced run."""
    from workloads import median
    cycles = [cycle for iteration in iterations
              for cycle in iteration.cycles_s]
    return {
        "setup_s": median(setups),
        "survey_names_per_s": median([iteration.names / iteration.survey_s
                                      for iteration in iterations]),
        "epoch_s_p50": median(cycles),
        "churn_epochs_per_s": len(cycles) / sum(cycles) if cycles else 0.0,
        "stored_kb": (iterations[0].stored_bytes / 1024.0
                      if iterations else 0.0),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def traced_metrics(workload, traced_layers, untraced_walls):
    """Per-layer metrics: counts from the first traced iteration (checked
    equal in every other), times as medians over the traced iterations."""
    import layers
    from workloads import median
    units = layers.per_layer_units()
    checks = workload.checks
    metrics = {name: 0.0 for name in units}
    if traced_layers:
        first = traced_layers[0]
        counted = [name for name, unit in units.items()
                   if unit in ("count", "B", "ratio") and name in first
                   and name != "trace.spans"]
        for index, values in enumerate(traced_layers[1:], start=1):
            checks.expect(all(values[name] == first[name]
                              for name in counted),
                          f"traced iteration {index}: work counters differ")
        for name in first:
            metrics[name] = first[name] if name in counted else median(
                [values[name] for values in traced_layers])
        for values in traced_layers:
            checks.expect(abs(values["trace.self_sum_s"]
                              - values["trace.wall_s"]) <= 1e-6,
                          "self times do not add up to the traced wall time")
        metrics["trace.untraced_wall_s"] = median(untraced_walls)
        metrics["trace.overhead_frac"] = (
            median([values["trace.wall_s"] for values in traced_layers])
            / median(untraced_walls) - 1.0)
    metrics["distrib.worker_peak_rss_mb"] = workload.worker_peak_rss_mb
    return metrics


if __name__ == "__main__":
    sys.exit(main())
