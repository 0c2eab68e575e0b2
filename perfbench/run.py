#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds libssamr and the perfbench binary from this checkout into
.bench_build/perfbench (the first run compiles; later runs only check),
then:

  --trace 0  launches the binary SETUP_SAMPLES - 1 times in set-up-only
             mode and once for the measured run, and reports the
             end-to-end metrics (setup_s is the median over all launches),
             in reference-host seconds (metrics.PROBE_REF_NS);
  --trace 1  launches it once with tracing and reports per-layer metrics
             in host seconds.

Every op's digest is checked against perfbench/reference/<workload>.json
when the seed has committed digests; every op also passes the binary's own
invariant checks.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
no op failed.  The binary's full output, spans included, stays in
.bench_build/perfbench/run-<workload>-seed<N>-trace<T>.json.

--update-reference records this run's digests as the seed's reference.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("paper-sensing", "particle-zoo", "scale-event")
SETUP_SAMPLES = 5
LAUNCH_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


class BenchError(Exception):
    pass


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"command failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", str(BUILD), "-j",
               str(min(4, os.cpu_count() or 1))])


def launch(workload, seed, extra, out):
    """Run the binary once; returns its JSON document."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SSAMR_")}
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--out", str(out)] + extra
    # The launch stamp: set-up time runs from here to the first timed op.
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0-ns", str(t0)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=LAUNCH_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"perfbench exited with {proc.returncode}")
    return json.loads(out.read_text())


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, seed):
    path = reference_path(workload)
    if not path.is_file():
        return {}
    digests = json.loads(path.read_text())["seeds"].get(str(seed), [])
    return dict(enumerate(digests))


def update_reference(workload, seed, ops):
    path = reference_path(workload)
    seeds = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    seeds[str(seed)] = [o["digest"] for o in ops]
    # One op's digest per line.
    blocks = [f'  "{k}": [\n    ' + ",\n    ".join(map(json.dumps, v)) + "\n  ]"
              for k, v in sorted(seeds.items())]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text('{"seeds": {\n' + ",\n".join(blocks) + "\n}}\n")


def report(args, doc, values, failed, setup_docs):
    ops = doc["ops"]
    f = metrics.host_factor(doc)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed, {doc['threads']} thread(s), "
          f"host factor {f:.4f}")
    for name, (value, unit) in values.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    walls = [(o["end_ns"] - o["start_ns"]) * 1e-9 for o in ops]
    p = metrics.tail_percentile(len(walls))
    tail = (f"op_s.p{p:g} {metrics.percentile(walls, p) * f:.6g} s" if p
            else f"op_s.p90 not reported ({len(walls)} ops < 100)")
    print(f"  {tail}")
    print(f"  failed_op_frac {len(failed) / len(ops):.6g}")
    print(f"  host seconds: iters_per_s {metrics.rate(ops):.6g}, "
          f"op_s.p50 {statistics.median(walls):.6g}")
    if setup_docs:
        print("  host set-up seconds "
              + " ".join(f"{d['setup_s']:.4f}" for d in setup_docs))
    for i in sorted(failed):
        print(f"  op {i} failed: {ops[i]['error'] or 'digest mismatch'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    out = BUILD / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        build()
        setup_docs = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_docs.append(launch(
                    args.workload, args.seed, ["--setup-only"],
                    BUILD / "setup.json"))
        doc = launch(args.workload, args.seed,
                     ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)], out)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if not args.trace:
        setup_docs.append(doc)

    ops = doc["ops"]
    failed = metrics.failed_ops(ops, load_reference(args.workload, args.seed))
    if args.update_reference and not any(o["error"] for o in ops):
        update_reference(args.workload, args.seed, ops)
        failed = metrics.failed_ops(ops, {})
    values = (metrics.layer_metrics(doc) if args.trace
              else metrics.end_to_end(doc, setup_docs))
    report(args, doc, values, failed, setup_docs)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
