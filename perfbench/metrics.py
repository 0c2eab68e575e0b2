"""Arithmetic of the benchmark: percentiles, span self time, per-layer
reduction, digest comparison and run-to-run spread.

Pure functions over the JSON document the perfbench binary writes, kept
apart from run.py so test_metrics.py can pin them.
"""

import math
import statistics

# The host-speed probe's median duration on the reference host, the 4-vCPU
# VM the README baseline was measured on.  End-to-end times are reported
# in reference-host seconds: host seconds times this over the probe's
# median in the same launch.
PROBE_REF_NS = 25_000_000

# Relative tolerance of a digest entry.  Virtual times may move by
# rounding (the event model's two network simulators agree to ~1e-9 s);
# a changed partition moves a weighted work sum by at least one box,
# i.e. by more than 1e-4 of it.
DIGEST_REL_TOL = 1e-6


# -- percentiles ------------------------------------------------------------

def tail_percentile(n):
    """The highest of p90/p99/p99.9 with at least ten of `n` samples beyond
    it, or None when even p90 has fewer (n < 100)."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def spread(values):
    """Interquartile distance as a share of the median (quartiles as
    statistics.quantiles(values, n=4) gives them)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- spans ------------------------------------------------------------------

def _union_length(intervals):
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval covered by its children.  A span's children are the spans it
    caused (`parent`) and the spans that began nested inside it on its own
    thread (`enclosing`) — a pool thread waiting on its own parallel work
    may run an unrelated task there."""
    children = [[] for _ in spans]
    for s in spans:
        for owner in {s["parent"], s["enclosing"]}:
            if owner >= 0:
                children[owner].append(s)
    out = []
    for s, kids in zip(spans, children):
        lo, hi = s["start"], s["end"]
        covered = _union_length(
            [(max(lo, c["start"]), min(hi, c["end"])) for c in kids
             if c["end"] > lo and c["start"] < hi])
        out.append(hi - lo - covered)
    return out


def busy_per_thread(spans, root):
    """Σ over threads of the time covered by `root`'s children on that
    thread (ns).  Children of one thread nest or are disjoint."""
    by_thread = {}
    for s in spans:
        if s["parent"] == root:
            by_thread.setdefault(s["thread"], []).append((s["start"], s["end"]))
    return sum(_union_length(v) for v in by_thread.values())


def layer_metrics(doc):
    """Per-layer metrics of a traced run: self seconds per layer from the
    spans, counts from the counters, ratios over both."""
    spans = doc["spans"]
    counters = doc["counters"]
    selfs = self_times(spans)

    def seconds(*names):
        return sum(t for s, t in zip(spans, selfs) if s["name"] in names) * 1e-9

    traced = [o for o in doc["ops"] if o["traced"]]
    untraced = [o for o in doc["ops"] if not o["traced"]]

    def ref_rate(ops):
        # Probe i ran just before op i: rescale each half by its own probes.
        return rate(ops) * statistics.median(
            doc["probe_ns"][o["id"]] for o in ops)
    op_wall = sum(o["end_ns"] - o["start_ns"] for o in traced)
    busy = sum(busy_per_thread(spans, i)
               for i, s in enumerate(spans) if s["name"] == "op")

    def count(name):
        return counters.get(name, 0)

    epochs = count("amr.epochs")
    advance = seconds("sim.advance", "sim.advance_first")
    migrate = seconds("sim.migrate")
    candidates = count("sfc.index_candidates")
    return {
        "amr.trace_s": (seconds("amr.boxes"), "s"),
        "amr.particles_s": (seconds("amr.particles"), "s"),
        "amr.epochs": (epochs, "count"),
        "amr.boxes": (count("amr.boxes"), "count"),
        "amr.distinct_frac": (
            count("amr.distinct_epochs") / epochs if epochs else 0.0,
            "fraction"),
        "partition.s": (seconds("partition"), "s"),
        "partition.calls": (count("partition.calls"), "count"),
        "partition.splits": (count("partition.splits"), "count"),
        "partition.assignments": (count("partition.assignments"), "count"),
        "runtime.self_s": (seconds("runtime.run", "runtime.epoch"), "s"),
        "sim.advance_s": (advance, "s"),
        "sim.advance_first_s": (seconds("sim.advance_first"), "s"),
        "sim.migrate_s": (migrate, "s"),
        "sim.regrid_s": (seconds("sim.regrid"), "s"),
        "sim.events": (count("sim.events"), "count"),
        "sim.events_per_s": (
            count("sim.events") / (advance + migrate)
            if advance + migrate > 0 else 0.0, "1/s"),
        "hdda.views_s": (seconds("hdda.views"), "s"),
        "sfc.index_candidates": (candidates, "count"),
        "sfc.index_hits": (count("sfc.index_hits"), "count"),
        "sfc.hit_ratio": (
            count("sfc.index_hits") / candidates if candidates else 0.0,
            "fraction"),
        "pool.parallel_eff": (
            busy / (op_wall * doc["threads"]) if op_wall else 0.0,
            "fraction"),
        "trace.overhead_frac": (
            1.0 - ref_rate(traced) / ref_rate(untraced)
            if traced and untraced else 0.0, "fraction"),
    }


# -- end to end -------------------------------------------------------------

def rate(ops):
    """Coarse iterations per host second over a set of ops."""
    wall = sum(o["end_ns"] - o["start_ns"] for o in ops) * 1e-9
    return sum(o["iters"] for o in ops) / wall


def host_factor(doc):
    """Reference-host seconds per host second during one launch."""
    return PROBE_REF_NS / statistics.median(doc["probe_ns"])


def end_to_end(doc, setup_docs):
    """End-to-end metrics of an untraced run, in reference-host seconds:
    throughput over the timed ops, median op time, median set-up time over
    `setup_docs` (every launch of the run), peak RSS."""
    f = host_factor(doc)
    walls = [(o["end_ns"] - o["start_ns"]) * 1e-9 for o in doc["ops"]]
    return {
        "iters_per_s": (rate(doc["ops"]) / f, "1/s"),
        "op_s.p50": (statistics.median(walls) * f, "s"),
        "setup_s": (statistics.median(d["setup_s"] * host_factor(d)
                                      for d in setup_docs), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


# -- correctness ------------------------------------------------------------

def digests_match(expected, actual, rel_tol=DIGEST_REL_TOL):
    """True when two digests have the same length and every entry agrees
    within rel_tol (relative to the larger magnitude)."""
    if len(expected) != len(actual):
        return False
    return all(math.isclose(e, a, rel_tol=rel_tol, abs_tol=0.0)
               for e, a in zip(expected, actual))


def failed_ops(ops, reference):
    """Ids of ops that reported an error, or whose digest differs from
    `reference` ({op id: digest}); ops without a reference entry are
    judged by their own checks only."""
    failed = set()
    for o in ops:
        ref = reference.get(o["id"])
        mismatch = ref is not None and not digests_match(ref, o["digest"])
        if o["error"] or mismatch:
            failed.add(o["id"])
    return failed
