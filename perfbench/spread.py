"""Run-to-run spread of the benchmark: one run per seed, back to back.

Usage:
  python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 40]
                              [--trace 0|1] [--record SET]

Run from the repository root. For each metric the run prints reports, this
prints the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the IQR share (q3 - q1 over the median). With --record SET it
stores that summary, the per-command wall times and the runs' environment
in perfbench/baseline.json under the workload and SET; a traced set also
stores the self-time table of its first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SET")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for key, m in last["metrics"].items():
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
        print(f"seed {seed}: " + "  ".join(f"{k} {m['value']:.5g}"
                                           for k, m in last["metrics"].items()), flush=True)

    stats = {k: {**summary(v), "unit": units[k]} for k, v in values.items()}
    print(f"{args.workload}: correct {correct}, attempted {attempted}, failed {failed}")
    for key, s in stats.items():
        print(f"  {key:34s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
              f"q3 {s['q3']:10.5g}  IQR share {s['iqr_share']:.3f}")

    if args.record:
        runs = [json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json")
                           .read_text()) for seed in args.seeds]
        walls: dict[str, list[float]] = {}
        for run in runs:
            for key, c in run["commands"].items():
                walls.setdefault(key, []).append(c["wall"]["median"])
        entry = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                 "correct": correct, "attempted": attempted, "failed": failed,
                 "metrics": stats,
                 "command_median_wall_s": {k: summary(v) for k, v in walls.items()},
                 "environment": runs[0]["environment"]}
        if args.trace:
            entry["self_time_first_run"] = runs[0].get("self_time", [])[:20]
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline.setdefault("workloads", {}).setdefault(args.workload, {})[args.record] = entry
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
