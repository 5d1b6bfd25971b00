"""Run workloads over seeds and print every metric with its unit.

    python3 bench/report.py                       # every workload, seed 1, untraced + traced
    python3 bench/report.py --seeds 1-10 --trace 0 --workloads rank-serve

Each run is ``bench/run.py`` in a fresh process, one after another. With
several seeds the report adds, per end-to-end metric, the median and the
spread (interquartile range over the median, as the acceptance check uses
it) next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if values else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args()
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    declared = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (0, 1)
    }
    for workload in args.workloads.split(","):
        collected: dict[str, list[float]] = {}
        for trace in traces:
            for seed in seeds:
                lines = run_once(workload, seed, args.seconds, trace)
                result = lines[-1]
                print(
                    f"== {workload} seed={seed} trace={trace} correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']}"
                )
                for line in lines[:-1]:
                    for key in ("sizes", "named", "named_traced"):
                        if key in line:
                            print(f"   {key}: {json.dumps(line[key])}")
                for name, unit in declared[trace].items():
                    metric = result["metrics"].get(name)
                    if metric is None or metric["unit"] != unit:
                        print(f"   {name:<44} {'ABSENT':>14} {unit} (declared in BENCHMARK.json)")
                for name, metric in result["metrics"].items():
                    value = metric["value"]
                    shown = "MISSING" if metric.get("missing") else f"{value:.6g}"
                    extra = "" if name in declared[trace] else " (not in BENCHMARK.json)"
                    print(f"   {name:<44} {shown:>14} {metric['unit']}{extra}")
                    if trace == 0:
                        collected.setdefault(name, []).append(value)
        if len(seeds) >= 2 and collected:
            print(f"== {workload}: {len(seeds)} seeds, median and spread (IQR / median)")
            for name, values in collected.items():
                bound = bounds.get(name)
                flag = "" if bound is None or name == "setup_s" or spread(values) <= bound / 3 else "  <-- above bound/3"
                print(
                    f"   {name:<20} median {statistics.median(values):>12.6g}  "
                    f"spread {spread(values):.4f}  bound {bound}{flag}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
