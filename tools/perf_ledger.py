#!/usr/bin/env python3
"""Append one performance record of this checkout to BENCH_trajectory.json.

    python3 tools/perf_ledger.py

Runs every BENCHMARK.json workload once through perfbench (seed 1,
--trace 0, --seconds from BENCHMARK.json's run_seconds), then times the
tier-1 suite with `ctest --test-dir build -j4` (build/ must already be
built), and appends one record to the JSON list in BENCH_trajectory.json
at the repo root:

    {"commit": "<HEAD, 12 hex digits>[-dirty]",
     "workloads": {"<name>": {"host_factor": ..., "iters_per_s": ...,
                              "op_s.p50": ..., "setup_s": ...,
                              "peak_rss_mb": ...}, ...},
     "tier1_s": <ctest wall seconds>,
     "golden_exp_scale_s": <that test's own seconds in the same run>}

"-dirty" marks a record measured on uncommitted changes on top of HEAD.
The metrics are perfbench's own final JSON line, in reference-host units;
host_factor (perfbench/metrics.host_factor of the launch's raw run file)
says how fast the host ran against the reference.  The two test times are
host seconds.

Nothing is written when a run fails, an op fails its checks, or a test
fails; the exit code is then 1.  The trajectory is for reading:
BENCHMARK.json's bounds stay the only gate.  Stdlib only; takes no flags.
"""

import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = "BENCH_trajectory.json"
SEED = 1
METRICS = ("iters_per_s", "op_s.p50", "setup_s", "peak_rss_mb")
GOLDEN_TEST = "golden_exp_scale"


class LedgerError(Exception):
    pass


def load_perfbench_metrics(root):
    """perfbench/metrics.py of the checkout at `root`, without bytecode."""
    sys.dont_write_bytecode = True
    path = root / "perfbench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_metrics", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def parse_perfbench(stdout, workload):
    """The four end-to-end metrics from perfbench's final JSON line."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        doc = json.loads(lines[-1])
        values = {m: doc["metrics"][m]["value"] for m in METRICS}
    except (IndexError, ValueError, KeyError, TypeError) as e:
        raise LedgerError(f"{workload}: no perfbench result line ({e})")
    if not doc.get("correct") or doc.get("failed", 1) != 0:
        raise LedgerError(f"{workload}: {doc.get('failed')} of "
                          f"{doc.get('attempted')} ops failed")
    return values


def parse_ctest(stdout):
    """`GOLDEN_TEST`'s own seconds from a ctest log."""
    m = re.search(r"Test\s+#\d+: " + re.escape(GOLDEN_TEST)
                  + r" \.*\s+Passed\s+([0-9.]+) sec", stdout)
    if not m:
        raise LedgerError(f"ctest output has no passing {GOLDEN_TEST}")
    return float(m.group(1))


def git_commit(run, root):
    rc, head, _ = run(["git", "-C", str(root), "rev-parse", "--short=12",
                       "HEAD"])
    if rc != 0:
        raise LedgerError("git rev-parse failed")
    rc, status, _ = run(["git", "-C", str(root), "status", "--porcelain",
                         "--untracked-files=no", "--", ".", ":!" + LEDGER])
    if rc != 0:
        raise LedgerError("git status failed")
    return head.strip() + ("-dirty" if status.strip() else "")


def measure(run, root):
    """One record for the checkout at `root`.  `run(cmd)` executes a
    command and returns (exit code, stdout, wall seconds)."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = load_perfbench_metrics(root)
    workloads = {}
    for w in (entry["name"] for entry in bench["workloads"]):
        rc, out, _ = run([sys.executable, str(root / "perfbench" / "run.py"),
                          "--workload", w, "--seed", str(SEED), "--trace",
                          "0", "--seconds", str(seconds)])
        if rc != 0:
            raise LedgerError(f"perfbench {w} exited with {rc}:\n"
                              + out[-2000:])
        values = parse_perfbench(out, w)
        raw = (root / ".bench_build" / "perfbench"
               / f"run-{w}-seed{SEED}-trace0.json")
        workloads[w] = {"host_factor": metrics.host_factor(
            json.loads(raw.read_text())), **values}
    rc, out, wall = run(["ctest", "--test-dir", str(root / "build"), "-j4"])
    if rc != 0:
        raise LedgerError(f"tier-1 ctest exited with {rc}:\n" + out[-2000:])
    return {"commit": git_commit(run, root), "workloads": workloads,
            "tier1_s": round(wall, 2), "golden_exp_scale_s": parse_ctest(out)}


def append_record(path, record):
    records = json.loads(path.read_text()) if path.is_file() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")


def run_command(cmd):
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    return proc.returncode, proc.stdout, time.monotonic() - t0


def main():
    try:
        record = measure(run_command, ROOT)
    except (LedgerError, OSError, ValueError, KeyError) as e:
        print(f"perf_ledger: {e}; nothing written", file=sys.stderr)
        return 1
    append_record(ROOT / LEDGER, record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
