"""Steadiness mode: run each workload N times and summarize every metric.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads train-small]
        [--trace 0] [--out perfbench/baseline.json]

Run i of a set uses seed i (1..N); every set reuses the same seeds, and
every run measures BENCHMARK.json's run_seconds. For every workload and
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound. With two sets it also prints how
far the second median moved from the first, in the worse direction.

--out merges the summary into a baseline file: --trace 0 fills its
``end_to_end`` section and --trace 1 its ``per_layer`` section, so

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/baseline.json
    python3 perfbench/steady.py --runs 3 --trace 1 --out perfbench/baseline.json

rebuild perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import MF_THREADS

ROOT = Path(__file__).resolve().parent.parent

ABOUT = (
    "Baseline of the benchmark in BENCHMARK.json, written by perfbench/steady.py --out. "
    "Section end_to_end comes from untraced runs (--trace 0), per_layer from traced runs "
    "(--trace 1). Run i of a set uses seed i; every set reuses the same seeds. For each "
    "workload and metric, setN holds the median, the quartiles from "
    "statistics.quantiles(values, n=4), the spread (q3 - q1) / median and the values; "
    "second_vs_first is how much worse set 2's median is than set 1's, as a share of set 1's "
    "(negative = better)."
)


def one_run(workload: str, seed: int, seconds: int, trace: int, command: list[str]) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)), "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "MF_THREADS": MF_THREADS,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="baseline file to merge the summary into")
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    metric_specs = {m["name"]: m for m in spec[section]}
    seconds = spec["run_seconds"]
    summary: dict = {"runs": args.runs, "sets": args.sets, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.runs + 1):
                runs.append(one_run(workload, seed, seconds, args.trace, spec["command"]))
                print(f"{workload} set {s + 1} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
            sets.append({name: summarize([r[name] for r in runs]) for name in metric_specs})
        by_metric = {}
        for name, m in metric_specs.items():
            entry = {f"set{s + 1}": by_name[name] for s, by_name in enumerate(sets)}
            if len(sets) > 1:
                entry["second_vs_first"] = worsening(
                    sets[0][name]["median"], sets[1][name]["median"], m["better"]
                )
            by_metric[name] = entry
        summary["workloads"][workload] = by_metric

        print(f"\n{workload} ({args.runs} runs per set, {args.sets} set(s), {seconds} s each)")
        print(
            f"  {'metric':46s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
            f"{'spread':>8s} {'bound':>6s} {'2nd vs 1st':>10s}"
        )
        for name, m in metric_specs.items():
            for s in range(len(sets)):
                stats = by_metric[name][f"set{s + 1}"]
                bound = m.get("bound")
                moved = f"{by_metric[name]['second_vs_first']:+.4f}" if s == 1 else ""
                print(
                    f"  {name if s == 0 else '':46s} {stats['median']:14.6g} {stats['q1']:14.6g} "
                    f"{stats['q3']:14.6g} {stats['spread']:8.4f} "
                    f"{'' if bound is None else bound:>6} {moved:>10s}"
                )
    if args.out:
        out = Path(args.out)
        baseline = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
        baseline.update(about=ABOUT, environment=environment())
        baseline[section] = summary
        out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
