"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload churn_store --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The summary is also
written to ``perfbench/out/spread-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed ({completed.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}
        print(f"  {name:34s} median {median:14.6f}  q1 {q1:14.6f}  "
              f"q3 {q3:14.6f}  spread {summary[name]['spread']:7.4f}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload,
                               "seconds": seconds, "runs": runs,
                               "summary": summary}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
