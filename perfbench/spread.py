"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads estimate-q30-long --seeds 1,2,3 --trace 1

Each (workload, seed) pair is one ``run.py`` process, run one after the
other.  For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, which is the distance
between the quartiles as a share of the median, next to the metric's bound.
The summary, with every run's result, is written as JSON to ``--out``.
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
METRICS = json.loads((HERE / "metrics.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(METRICS["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "spread.json")
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                             if k in METRICS["end_to_end"]), flush=True)
        stats = {}
        for name, spec in METRICS[kind].items():
            stats[name] = summarise([r["metrics"][name]["value"] for r in runs])
            bound = spec.get("bound")
            flag = "" if bound is None else ("ok" if stats[name]["spread"] < bound / 3 else "WIDE")
            print(f"  {name:48s} median {stats[name]['median']:<12.6g} "
                  f"q1 {stats[name]['q1']:<12.6g} q3 {stats[name]['q3']:<12.6g} "
                  f"spread {stats[name]['spread']:.3f}"
                  + ("" if bound is None else f" bound {bound} {flag}"), flush=True)
        summary["workloads"][workload] = {"runs": runs, "stats": stats}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
