#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 1 2 ...]
                                    [--sets 2]

Runs run.py once per (set, seed, workload) — workloads interleaved, so a
slow spell of the machine hits all of them — with the run length from
BENCHMARK.json.  For every workload and end-to-end metric it prints each
set's median and spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) and each later set's median
shift against the first, next to the metric's bound.  Raw values go to
.bench_build/perfbench/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    delta = later - first if better == "lower" else first - later
    return delta / first


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    values = {}  # (set, workload) -> metric -> [value per seed]
    for s in range(args.sets):
        for seed in args.seeds:
            for w in args.workloads:
                got = run_once(w, seed, bench["run_seconds"])
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in got.items()), flush=True)
                for k, v in got.items():
                    values.setdefault((s, w), {}).setdefault(k, []).append(v)

    out = ROOT / ".bench_build" / "perfbench" / "steadiness.json"
    out.write_text(json.dumps(
        {f"{s}/{w}": m for (s, w), m in values.items()}, indent=1))
    print(f"\n{'workload':14s} {'metric':12s} {'bound':>6s}  per set: "
          "median  spread  shift")
    for w in args.workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            cells = []
            for s in range(args.sets):
                vals = values[(s, w)][name]
                med = statistics.median(vals)
                cell = f"{med:10.5g} {metrics.spread(vals):6.3f}"
                if s:
                    first = statistics.median(values[(0, w)][name])
                    cell += f" {worse_by(first, med, m['better']):+6.3f}"
                cells.append(cell)
            print(f"{w:14s} {name:12s} {m['bound']:6.2f}  " + " | ".join(cells))


if __name__ == "__main__":
    main()
